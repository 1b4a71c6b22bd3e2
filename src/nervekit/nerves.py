"""Nerve constructions and the comparison map between them.

* `coherent_nerve`: level n cells are simplicial functors out of
  `gadgets.coherent_path_category(n, D)`, stored and labelled as the
  tuple (objects, values) over the nondegenerate generator chains,
  `comparison._generator_slots`.
* `levelwise_nerve`: the bisimplicial set whose column p at row q is
  the set of p-chains of level-q morphisms; `classifying_space` is its
  diagonal.
* `comparison_map` sends a diagonal chain cell to the coherent-nerve
  cell `comparison_cell` gives in closed form; `consistency_check`
  compares it with the grid-collapse route along the diagonal.

``import nervekit`` loads this module because a traced benchmark run
wraps these five functions where they are defined
(``bench/trace_child.py`` ``TRACED``). Each keeps its signature and
docstring here; all but `classifying_space` import their bodies when
first called, from `nervekit.comparison` (with the cell formulas and
`comparison_cell`) and `nervekit.bisimplicial`.
"""

from __future__ import annotations

from .bisset import diagonal
from .sset import TruncationError


def coherent_nerve(SC: SimplicialCategory, L: int, name: str = "") -> SimplicialSet:
    """The coherent nerve up to level L, as an explicit simplicial set.

    Needs L <= D + 1: an L-cell's generator chains live at levels up to
    L - 1, which must fit inside the hom truncation. Each cell's label
    is the cell itself, the tuple (objects, values) with one value per
    nondegenerate generator chain (`comparison._generator_slots`).
    """
    from .coherent import _coherent_nerve

    return _coherent_nerve(SC, L, name)


def levelwise_nerve(SC: SimplicialCategory, P: int, Q: int, name: str = "") -> BisimplicialSet:
    """Bisimplicial set of chains: column p at row q is p-chains of q-cells.

    Row q is ``nerve_cat(level_category(SC, q), P)``, built by
    `chain_index_nerve`, its cells labelled (objects, cells). A vertical
    operator h keeps the objects and acts on each hom cell, so in its
    target row r it sends x extended by c: e -> y to
    first_r[h(x)] + start_r[e][y] + h(c).
    """
    from .bisimplicial import _levelwise_nerve

    return _levelwise_nerve(SC, P, Q, name)


def classifying_space(SC: SimplicialCategory, L: int, name: str = "") -> SimplicialSet:
    """Diagonal of the levelwise nerve: level n is n-chains of n-cells."""
    if L > SC.D:
        raise TruncationError(f"level {L} beyond hom truncation {SC.D}")
    return diagonal(levelwise_nerve(SC, L, L), name=name or f"bspace({SC.name})")


def comparison_map(SC: SimplicialCategory, L: int) -> SimplicialMap:
    """The map from the classifying space to the coherent nerve.

    Level k sends a chain of k-cells to the coherent-nerve cell whose
    value on a generator chain of pair (i, j) folds, by composition with
    later hops on the left, the action on each hop t in (i, j] of the
    tuple of largest elements strictly below t (see `comparison_cell`).
    A level's cells are folded block by block (`_cells_from_plan`).
    """
    from .coherent import _comparison_map

    return _comparison_map(SC, L)


def consistency_check(SC: SimplicialCategory, f: SimplicialMap) -> CheckReport:
    """Agreement of the comparison routes on and around the diagonal.

    ``f`` is the comparison map built by `comparison_map`, checked up to
    its level L = ``f.L``. (a) On every diagonal cell, the cell ``f``
    stores equals the grid-collapse route along the diagonal chain; the
    map's cells come from `comparison_cell`, and the two routes compute
    their hop coordinates by separately written rules and share only
    the fold. (b) Restricting the column coordinate to a vertex
    collapses each column cell to the constant cell at that object.
    (c) Acting a row cell vertically by a constant map and comparing
    lands on the level-0 inclusion of its vertex restriction.

    Every instance of (b) and (c) is checked and counted, but each
    distinct input is evaluated once, under a key holding exactly what
    the two sides read (see `coherent._consistency_check`). The report
    keeps nine witnesses, in the order of the instances (per bidegree,
    by cell and then by vertex); ``bounds`` counts every instance.
    """
    from .coherent import _consistency_check

    return _consistency_check(SC, f)
