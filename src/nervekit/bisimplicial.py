"""Truncated bisimplicial sets: tables, columns, diagonal, and the
levelwise nerve.

Bidegree (p, q) means column p, row q. Columns are simplicial sets in
the row index and vice versa; the diagonal restricts to p = q. All
operator tables are stored exhaustively, as in `SimplicialSet`;
`axioms.validate_bisset` checks both directions plus every commutation
square within the truncation. The four operator families, the schema
document, rows and the transpose live in `nervekit.bitables`, which
`compare` never loads.

The levelwise nerve of a simplicial category has column p at row q the
set of p-chains of level-q morphisms, one `sset.chain_index_nerve` per
row. Row q is ``nerve_cat(level_category(SC, q), P)``, so a cell is
labelled (objects, cells): its p + 1 objects, one tuple shared by the
cells over them, and the level-q hom cell of each hop. The vertical
operators act on each hom cell.

``import nervekit`` does not load this module up front. The traced
entry points `bisset.diagonal` and `nerves.levelwise_nerve` import
their bodies from here when first called, so only a verb that builds
a bisimplicial set compiles this module. The marked kinds live in
`nervekit.marked`.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .cat import SimplicialCategory, _chain_labels
from .sset import SimplicialSet, TruncationError, _extend, _families, chain_index_nerve


class BisimplicialSet:
    """Cells and the four operator families on a (P, Q) truncation.

    ``hfaces[p][q]`` holds p+1 rows for the horizontal faces at (p, q),
    empty at p = 0; ``hdegens[p][q]`` holds p+1 rows when p < P.
    Vertical tables mirror this in q.
    """

    def __init__(
        self,
        P: int,
        Q: int,
        cards: Sequence[Sequence[int]],
        hfaces,
        hdegens,
        vfaces,
        vdegens,
        labels=None,
        name: str = "",
    ):
        self.P = P
        self.Q = Q
        self.cards = [list(row) for row in cards]
        self.hfaces = hfaces
        self.hdegens = hdegens
        self.vfaces = vfaces
        self.vdegens = vdegens
        self.labels = labels
        self.name = name

    def card(self, p: int, q: int) -> int:
        return self.cards[p][q]

    def hface(self, p: int, q: int, i: int, x: int) -> int:
        return self.hfaces[p][q][i][x]

    def hdegen(self, p: int, q: int, i: int, x: int) -> int:
        return self.hdegens[p][q][i][x]

    def vface(self, p: int, q: int, j: int, x: int) -> int:
        return self.vfaces[p][q][j][x]

    def vdegen(self, p: int, q: int, j: int, x: int) -> int:
        return self.vdegens[p][q][j][x]

    def label(self, p: int, q: int, x: int):
        if self.labels is None:
            return (p, q, x)
        return self.labels[p][q][x]

    def counts(self) -> tuple:
        return tuple(tuple(row) for row in self.cards)

    def row(self, q: int) -> SimplicialSet:
        """Row q, the simplicial set of the horizontal operators."""
        from .bitables import _row

        return _row(self, q)

    def column(self, p: int) -> SimplicialSet:
        cards = list(self.cards[p])
        faces = [self.vfaces[p][q] for q in range(self.Q + 1)]
        degens = [self.vdegens[p][q] if q < self.Q else [] for q in range(self.Q + 1)]
        labels = None if self.labels is None else self.labels[p]
        return SimplicialSet(self.Q, cards, faces, degens, labels=labels, name=f"{self.name}[col {p}]")

    def transpose(self) -> "BisimplicialSet":
        """The bisimplicial set with (p, q) and (q, p) swapped."""
        from .bitables import _transpose

        return _transpose(self)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<BisimplicialSet{tag} P={self.P} Q={self.Q}>"


def _diagonal(X: BisimplicialSet, name: str = "") -> SimplicialSet:
    # the body of `bisset.diagonal`
    D = min(X.P, X.Q)
    cards = [X.card(n, n) for n in range(D + 1)]
    # d_i is d^v_i after d^h_i, and s_i is s^v_i after s^h_i
    ops = []
    for kind, _, rows, step in _families(D):
        h, v = getattr(X, "h" + kind), getattr(X, "v" + kind)
        ops.append([[[v(n + step, n, i, h(n, n, i, x)) for x in range(cards[n])] for i in range(rows(n))] for n in range(D + 1)])
    faces, degens = ops
    labels = None
    if X.labels is not None:
        labels = [[X.labels[n][n][x] for x in range(cards[n])] for n in range(D + 1)]
    return SimplicialSet(D, cards, faces, degens, labels=labels, name=name or f"diag({X.name})")


# -- the levelwise nerve ---------------------------------------------------

# The most cells `_levelwise_nerve` builds, counted over every row first.
# bg:z2 at (4, 4), the largest any test builds, has 74963; bg:z3 at
# (4, 4) and bg:z2 at (5, 5) would start rows of 3^16 and 2^25 cells.
MAX_LEVELWISE_CELLS = 1_000_000


def _levelwise_nerve(SC: SimplicialCategory, P: int, Q: int, name: str) -> BisimplicialSet:
    # the body of `nerves.levelwise_nerve`
    if Q > SC.D:
        raise TruncationError(f"row {Q} beyond hom truncation {SC.D}")
    obs = SC.objects
    homs = [[SC.hom(a, b) for b in obs] for a in obs]
    level_cards = [[[H.card(q) for H in row] for row in homs] for q in range(Q + 1)]
    total = 0
    for cards in level_cards:  # the p-chains ending at each object, p = 0..P
        ending = [1] * len(obs)
        for _ in range(P + 1):
            total += sum(ending)
            ending = [sum(e * row[b] for e, row in zip(ending, cards)) for b in range(len(obs))]
    if total > MAX_LEVELWISE_CELLS:
        raise TruncationError(f"the levelwise nerve at ({P}, {Q}) has {total} cells, above the bound of {MAX_LEVELWISE_CELLS}")
    rows = []
    for q, cards in enumerate(level_cards):

        def comp(a, b, c, q=q):
            return SC.comps[(obs[a], obs[b], obs[c])][q]

        counts, faces, degens, ends, firsts = chain_index_nerve(cards, comp, [SC.identity_cell(a, q) for a in obs], P)
        cells = [[range(n) for n in row] for row in cards]
        rows.append((counts, faces, degens, _chain_labels(obs, cells, ends, P), cards, ends, firsts))
    index = list(range(max(max(row[0]) for row in rows)))

    def vertical(q, r):
        # per column, the tables of the operators j = 0..q from row q to row r
        tables = [[] for _ in range(P + 1)]
        if not 0 <= r <= Q:
            return tables
        cards, ends, firsts = rows[q][4], rows[q][5], rows[r][6]
        start = [list(itertools.accumulate(row, initial=0)) for row in rows[r][4]]
        for j in range(q + 1):
            offsets = [
                [start[e][y] + (H.face if r < q else H.degen)(q, j, c) for y, H in enumerate(row) for c in range(cards[e][y])]
                for e, row in enumerate(homs)
            ]
            table = index[: len(obs)]
            for p in range(P + 1):
                if p:
                    table = _extend(index, table, firsts[p - 1], ends[p - 1], offsets)
                tables[p].append(table)
        return tables

    def by_column(per_row):
        return [[per_row[q][p] for q in range(Q + 1)] for p in range(P + 1)]

    return BisimplicialSet(
        P, Q, *(by_column([row[t] for row in rows]) for t in range(3)),
        by_column([vertical(q, q - 1) for q in range(Q + 1)]),
        by_column([vertical(q, q + 1) for q in range(Q + 1)]),
        labels=by_column([row[3] for row in rows]), name=name or f"chains({SC.name})",
    )
