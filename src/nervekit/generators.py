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

Only ``bg:z<m>`` is built here; the other examples are discrete
categories, built in `nervekit.discrete` when one is asked for.
"""

from __future__ import annotations

from .cat import RelativeSimplicialCategory, SimplicialCategory, cyclic_group_category, nerve_cat

__all__ = ["build_example", "example_names"]

# The most table entries bg:z<m> may hold: per level n <= D, the
# composition table (m^(2n) entries) and the nerve's faces and
# degeneracies (at most 2(n + 1) m^n). `build_example` refuses a larger
# request before building anything. The largest bg:z<m> any test, pin
# or benchmark workload builds is bg:z5 at D = 4, 414323 entries.
MAX_TABLE_ENTRIES = 4_000_000


def _group_table_entries(m: int, D: int) -> int:
    """The table entries of bg:z<m> at truncation D, counted up to the
    first level that takes them past `MAX_TABLE_ENTRIES`."""
    entries, cells = 0, 1
    for n in range(D + 1):
        entries += cells * cells + 2 * (n + 1) * cells
        if entries > MAX_TABLE_ENTRIES:
            break
        cells *= m
    return entries

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
    # the chain index orders the level-n cells of nerve(Z/m) as base-m
    # numbers of their n labels, first label most significant, and
    # composition adds labels digit by digit: row G * m + a of level n
    # is row G one level down times m, each entry plus the last digits
    # turned by a
    turns = [[(a + b) % m for b in range(m)] for a in range(m)]
    vals = [[0]]
    for n in range(1, D + 1):
        prev, c = vals[-1], m ** (n - 1)
        table = []
        for G in range(c):
            row = [p * m for p in prev[G * c : G * c + c]]
            for turn in turns:
                table += [p + t for p in row for t in turn]
        vals.append(table)
    return SimplicialCategory(
        ["x"], {("x", "x"): N}, {("x", "x", "x"): vals}, {"x": 0}, D, name=f"bg:z{m}"
    )


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
        m = int(suffix)
        if _group_table_entries(m, max_dim) > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"{name} at max_dim {max_dim} needs more than the {MAX_TABLE_ENTRIES} table entries an example "
                f"may hold: its level-{max_dim} composition table alone has {m}^{2 * max_dim}"
            )
        SC = _cyclic_group_example(m, max_dim)
        return RelativeSimplicialCategory.whole(SC)
    from .discrete import _discrete_example

    R = _discrete_example(name, max_dim)
    if R is not None:
        return R
    raise ValueError(f"unknown example {name!r}: try one of {', '.join(EXAMPLE_NAMES)}")
