"""Built-in example inputs.

Every generator returns a `RelativeSimplicialCategory` ready for the
nerve constructions and the verification engine:

* ``bg:z<m>``: one object with hom the nerve of the cyclic group of
  order m, composed by pointwise multiplication; marking = everything.
  The homs are Kan, so these satisfy the fibrancy precondition of the
  coherent-nerve checks.
* ``discrete:poset01``, ``discrete:poset012``, ``discrete:antichain3``:
  discrete simplicial categories on small posets; marking = identities.
* ``poset:<relations>``: discrete simplicial category on the poset
  described by comma-separated items, each either a bare element or a
  relation ``a<b`` (e.g. ``poset:0<1,0<2,3``); marking = identities.
* ``two-object-interval``: the free-living morphism, hom(0,1) a point;
  marking = identities.
"""

from __future__ import annotations

from .cat import (
    FiniteCategory,
    RelativeSimplicialCategory,
    SimplicialCategory,
    cyclic_group_category,
    discrete_simplicial_category,
    nerve_cat,
    poset_category,
)
from .sset import FinitePoset

__all__ = ["build_example", "example_names"]

EXAMPLE_NAMES = (
    "bg:z<m>",
    "discrete:poset01",
    "discrete:poset012",
    "discrete:antichain3",
    "poset:<relations>",
    "two-object-interval",
)


def example_names() -> tuple:
    return EXAMPLE_NAMES


def _cyclic_group_example(m: int, D: int) -> SimplicialCategory:
    N = nerve_cat(cyclic_group_category(m), D)
    # the chain index (x extended by c is x * m + c) orders the level-n
    # cells of nerve(Z/m) as base-m numbers of their n labels, first label
    # most significant, and composition adds labels digit by digit: the
    # pair (g, f) at g * m^n + f composes the leading n - 1 digits one
    # level down and adds the last digits mod m.
    vals = [[0]]
    for n in range(1, D + 1):
        prev, c = vals[-1], m ** (n - 1)
        vals.append([prev[(g // m) * c + f // m] * m + (g % m + f % m) % m
                     for g in range(m * c) for f in range(m * c)])
    return SimplicialCategory(
        ["x"], {("x", "x"): N}, {("x", "x", "x"): vals}, {"x": 0}, D, name=f"bg:z{m}"
    )


def _parse_poset(desc: str) -> FinitePoset:
    elements: list = []
    relations = []

    def intern(tok: str):
        tok = tok.strip()
        if not tok:
            raise ValueError("empty poset element")
        val = int(tok) if tok.lstrip("-").isdigit() else tok
        if val not in elements:
            elements.append(val)
        return val

    for item in desc.split(","):
        if "<" in item:
            lo, hi = item.split("<", 1)
            relations.append((intern(lo), intern(hi)))
        else:
            intern(item)
    if not elements:
        raise ValueError("poset description names no elements")
    elements.sort(key=str)
    return FinitePoset(elements, relations)


_CHAINS = {
    "poset01": "0<1",
    "poset012": "0<1,1<2",
    "antichain3": "0,1,2",
}


def build_example(name: str, max_dim: int = 2) -> RelativeSimplicialCategory:
    """Resolve a generator name at the given truncation.

    Unknown names raise ``ValueError``.
    """
    if max_dim < 1:
        raise ValueError("examples need truncation at least 1")
    if name.startswith("bg:z"):
        suffix = name[4:]
        if not suffix.isdigit() or int(suffix) < 1:
            raise ValueError(f"unknown example {name!r}: the group order must be a positive integer")
        SC = _cyclic_group_example(int(suffix), max_dim)
        return RelativeSimplicialCategory.whole(SC)
    if name.startswith("discrete:"):
        key = name[len("discrete:") :]
        if key not in _CHAINS:
            raise ValueError(f"unknown example {name!r}: discrete examples are "
                             + ", ".join(sorted(_CHAINS)))
        P = _parse_poset(_CHAINS[key])
        SC = discrete_simplicial_category(poset_category(P, name=key), max_dim)
        SC.name = name
        return RelativeSimplicialCategory.identities_only(SC)
    if name.startswith("poset:"):
        P = _parse_poset(name[len("poset:") :])
        SC = discrete_simplicial_category(poset_category(P, name=name), max_dim)
        return RelativeSimplicialCategory.identities_only(SC)
    if name == "two-object-interval":
        C = FiniteCategory(
            [0, 1],
            {(0, 0): ["id0"], (0, 1): ["walk"], (1, 1): ["id1"]},
            lambda a, b, c, g, f: g if f.startswith("id") else f,
            {0: "id0", 1: "id1"},
            name=name,
        )
        SC = discrete_simplicial_category(C, max_dim)
        return RelativeSimplicialCategory.identities_only(SC)
    raise ValueError(f"unknown example {name!r}: try one of {', '.join(EXAMPLE_NAMES)}")
