"""Simplicial categories made from ordinary ones, and back.

`discrete_simplicial_category` gives a finite category constant homs
(`constant_sset`); `poset_category` is the ordinary category of a
poset; `level_category` is the ordinary category of the
level-q cells of a simplicial category, whose nerve the ``nerve`` verb
builds. `_discrete_example` builds the ``discrete:``, ``poset:`` and
``two-object-interval`` examples of `generators.build_example`.

``import nervekit`` does not load this module up front: the package
resolves these names from here on first use, and `build_example`
imports it for a discrete example.
"""

from __future__ import annotations

from .cat import FiniteCategory, RelativeSimplicialCategory, SimplicialCategory
from .posets import FinitePoset
from .sset import SimplicialSet, TruncationError, _families


def level_category(SC: SimplicialCategory, q: int) -> FiniteCategory:
    """The ordinary category of level-q hom cells.

    A morphism is labelled by its cell, so its nerve's chains are
    (objects, cells), as the levelwise nerve's row q is.
    """
    if q > SC.D:
        raise TruncationError(f"level {q} beyond hom truncation {SC.D}")
    homs = {(a, b): list(range(H.card(q))) for (a, b), H in SC.homs.items()}
    comps = {abc: tables[q] for abc, tables in SC.comps.items()}
    ids = {a: SC.identity_cell(a, q) for a in SC.objects}
    return FiniteCategory(SC.objects, homs, comps, ids, name=f"{SC.name}_lvl{q}")


def poset_category(P: FinitePoset, name: str = "") -> FiniteCategory:
    """The ordinary category of a poset: one morphism a -> b when a <= b."""
    els = P.elements
    homs = {(a, b): [0] for a in els for b in els if P.leq(a, b)}
    comps = {(a, b, c): [0] for a, b in homs for c in els if P.leq(b, c)}
    return FiniteCategory(els, homs, comps, {a: 0 for a in els}, name=name or "poset")


def constant_sset(k: int, D: int, labels=None, name: str = "") -> SimplicialSet:
    """k cells at every level with all operators the identity."""
    cards = [k] * (D + 1)
    faces, degens = ([[list(range(k)) for _ in range(rows(n))] for n in range(D + 1)] for _, _, rows, _ in _families(D))
    lab = None if labels is None else [list(labels) for _ in range(D + 1)]
    return SimplicialSet(D, cards, faces, degens, labels=lab, name=name or f"constant({k})")


def discrete_simplicial_category(C: FiniteCategory, D: int) -> SimplicialCategory:
    """Simplicial category with constant homs built from an ordinary category.

    Every level holds C's composition tables. An object whose identity
    label is not in its hom gets no identity vertex.
    """
    homs = {}
    for (a, b), labels in C.homs.items():
        homs[(a, b)] = constant_sset(
            len(labels), D, labels=[(a, b, l) for l in labels], name=f"hom({a},{b})"
        )
    comps = {abc: [table] * (D + 1) for abc, table in C.comps.items()}
    ids = {a: C.homs[(a, a)].index(C.ids[a]) for a in C.objects if C.ids.get(a) in C.hom_labels(a, a)}
    return SimplicialCategory(C.objects, homs, comps, ids, D, name=f"discrete({C.name})")


# --- the discrete examples of `generators.build_example` --------------------


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
            if item.count("<") > 1:
                raise ValueError(f"poset item {item.strip()!r} has more than one '<': write a<b,b<c")
            lo, hi = item.split("<")
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


def _discrete_example(name: str, max_dim: int):
    """The ``discrete:``, ``poset:`` or ``two-object-interval`` example,
    or None for another name."""
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
            {abc: [0] for abc in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]},
            {0: "id0", 1: "id1"},
            name=name,
        )
        SC = discrete_simplicial_category(C, max_dim)
        return RelativeSimplicialCategory.identities_only(SC)
    return None
