"""Marked simplicial and bisimplicial sets.

A marked simplicial set distinguishes some level-1 cells; a marked
bisimplicial set some column-1 cells. `levelwise_nerve_marked` marks
the single-morphism chains of a relative category's subcategory, and
`diagonal_marked` keeps the marked (1, 1) cells as marked edges.

``import nervekit`` does not load this module up front: the package
resolves these names from here on first use, so only the marked verbs
(``binerve`` and ``diag`` of a relative category, ``cls``, ``theta``)
compile it. It binds the traced entry points `nerves.levelwise_nerve`
and `bisset.diagonal` when it loads, so a traced run sees them nested.
"""

from __future__ import annotations

from .bisimplicial import BisimplicialSet
from .bisset import diagonal
from .cat import RelativeSimplicialCategory
from .nerves import levelwise_nerve
from .reporting import FrozenRecord, Record, ValidationReport
from .sset import SimplicialSet, TruncationError, _families


class MarkedSimplicialSet(Record):
    """A simplicial set with a distinguished set of level-1 cells."""

    _fields = ("space", "marked")

    def __init__(self, space: SimplicialSet, marked: frozenset[int]):
        self.space = space
        self.marked = marked

    def validate(self, subject: str = "marked simplicial set") -> ValidationReport:
        rep = ValidationReport(subject)
        if self.space.D < 1:
            rep.add("marking level", (), "marking needs level 1 data")
            return rep
        for e in self.marked:
            if not 0 <= e < self.space.card(1):
                rep.add("marked cell range", (1, e), "marked cell out of range")
        for e in range(self.space.card(1)):
            rep.checked += 1
            if self.space.is_degenerate(1, e) and e not in self.marked:
                rep.add("degenerate edges marked", (1, e), "identity edge left unmarked")
        return rep


class MarkedBisimplicialSet(FrozenRecord):
    """A bisimplicial set with marked column-1 cells.

    ``marked`` holds (q, x) pairs with x a cell at bidegree (1, q). The
    marking must be a simplicial subset of column 1 containing every
    horizontal degeneracy of column 0; `validate` checks that.
    """

    _fields = ("space", "marked")

    def __init__(self, space: BisimplicialSet, marked: frozenset):
        super().__init__(space=space, marked=marked)

    def is_marked(self, q: int, x: int) -> bool:
        return (q, x) in self.marked

    def validate(self, subject: str = "") -> ValidationReport:
        rep = ValidationReport(subject or f"marked {self.space.name}")
        X = self.space
        if X.P < 1:
            rep.add("marking degree", (), "no column 1 to mark")
            return rep
        for (q, x) in self.marked:
            if not (0 <= q <= X.Q and 0 <= x < X.card(1, q)):
                rep.add("marking range", (q, x), "marked cell out of range")
                return rep
        families = _families(X.Q)
        for (q, x) in self.marked:
            for kind, _, rows, step in families:
                noun, nouns = ("face", "faces") if step < 0 else ("degeneracy", "degeneracies")
                for j in range(rows(q)):
                    rep.checked += 1
                    if (q + step, getattr(X, "v" + kind)(1, q, j, x)) not in self.marked:
                        rep.add(f"marking closed under {nouns}", (q, j, x), f"vertical {noun} escapes marking")
        for q in range(X.Q + 1):
            for y in range(X.card(0, q)):
                rep.checked += 1
                if (q, X.hdegen(0, q, 0, y)) not in self.marked:
                    rep.add("identities marked", (q, y), "horizontal degeneracy image unmarked")
        return rep


def diagonal_marked(M: MarkedBisimplicialSet, name: str = "") -> MarkedSimplicialSet:
    """Diagonal with marking: edges marked when the (1, 1) cell is marked."""
    space = diagonal(M.space, name=name)
    marked = frozenset(x for (q, x) in M.marked if q == 1)
    return MarkedSimplicialSet(space, marked)


def levelwise_nerve_marked(R: RelativeSimplicialCategory, P: int, Q: int, name: str = "") -> MarkedBisimplicialSet:
    """`levelwise_nerve` with single-morphism chains marked by the subcategory.

    The marking lives in column 1, so P must be at least 1.
    """
    if P < 1:
        raise TruncationError(f"marking lives in column 1, column bound is {P}")
    space = levelwise_nerve(R.cat, P, Q, name=name or f"chains({R.name})")
    marked = set()
    for q in range(Q + 1):
        for x in range(space.card(1, q)):
            (a, b), (c,) = space.label(1, q, x)
            if c in R.sub_cells(a, b, q):
                marked.add((q, x))
    return MarkedBisimplicialSet(space, frozenset(marked))
