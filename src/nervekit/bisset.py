"""Truncated bisimplicial sets: tables, marking, rows, columns, diagonal.

Bidegree (p, q) means column p, row q. Columns are simplicial sets in
the row index and vice versa; the diagonal restricts to p = q. All
operator tables are stored exhaustively, as in `SimplicialSet`, and
`validate_bisset` checks both directions plus every commutation square
within the truncation.
"""

from __future__ import annotations

from typing import Sequence

from .reporting import FrozenRecord, ValidationReport
from .sset import MarkedSimplicialSet, SimplicialSet, validate_sset


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
        cards = [self.cards[p][q] for p in range(self.P + 1)]
        faces = [self.hfaces[p][q] for p in range(self.P + 1)]
        degens = [self.hdegens[p][q] if p < self.P else [] for p in range(self.P + 1)]
        labels = None
        if self.labels is not None:
            labels = [list(self.labels[p][q]) for p in range(self.P + 1)]
        return SimplicialSet(self.P, cards, faces, degens, labels=labels, name=f"{self.name}[row {q}]")

    def column(self, p: int) -> SimplicialSet:
        cards = list(self.cards[p])
        faces = [self.vfaces[p][q] for q in range(self.Q + 1)]
        degens = [self.vdegens[p][q] if q < self.Q else [] for q in range(self.Q + 1)]
        labels = None if self.labels is None else [list(lvl) for lvl in self.labels[p]]
        return SimplicialSet(self.Q, cards, faces, degens, labels=labels, name=f"{self.name}[col {p}]")

    def transpose(self) -> "BisimplicialSet":
        # new (p, q) reads the old (q, p); rows become columns
        flip = lambda tbl: [
            [tbl[b][a] for b in range(self.P + 1)] for a in range(self.Q + 1)
        ]
        labels = None if self.labels is None else flip(self.labels)
        return BisimplicialSet(
            self.Q,
            self.P,
            flip(self.cards),
            flip(self.vfaces),
            flip(self.vdegens),
            flip(self.hfaces),
            flip(self.hdegens),
            labels=labels,
            name=f"transpose({self.name})",
        )

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<BisimplicialSet{tag} P={self.P} Q={self.Q}>"


def diagonal(X: BisimplicialSet, name: str = "") -> SimplicialSet:
    """The diagonal simplicial set: level n is bidegree (n, n).

    Faces apply the horizontal then the vertical operator (the order is
    immaterial once the commutation squares hold); degeneracies dually.
    """
    D = min(X.P, X.Q)
    cards = [X.card(n, n) for n in range(D + 1)]
    faces: list[list[list[int]]] = [[]]
    for n in range(1, D + 1):
        faces.append(
            [
                [X.vface(n - 1, n, i, X.hface(n, n, i, x)) for x in range(cards[n])]
                for i in range(n + 1)
            ]
        )
    degens = []
    for n in range(D + 1):
        if n == D:
            degens.append([])
        else:
            degens.append(
                [
                    [X.vdegen(n + 1, n, i, X.hdegen(n, n, i, x)) for x in range(cards[n])]
                    for i in range(n + 1)
                ]
            )
    labels = None
    if X.labels is not None:
        labels = [[X.labels[n][n][x] for x in range(cards[n])] for n in range(D + 1)]
    return SimplicialSet(D, cards, faces, degens, labels=labels, name=name or f"diag({X.name})")


def validate_bisset(X: BisimplicialSet, subject: str = "") -> ValidationReport:
    """Both directions' simplicial identities plus all commutation squares."""
    rep = ValidationReport(subject or X.name or "bisimplicial set")
    for q in range(X.Q + 1):
        sub = validate_sset(X.row(q), subject=f"row {q}")
        for v in sub.violations:
            rep.add(f"row {q}: {v.identity}", v.location, v.detail)
        rep.checked += sub.checked
    for p in range(X.P + 1):
        sub = validate_sset(X.column(p), subject=f"column {p}")
        for v in sub.violations:
            rep.add(f"column {p}: {v.identity}", v.location, v.detail)
        rep.checked += sub.checked
    if not rep.ok:
        return rep
    for p in range(X.P + 1):
        for q in range(X.Q + 1):
            for x in range(X.card(p, q)):
                if p >= 1 and q >= 1:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            rep.checked += 1
                            lhs = X.vface(p - 1, q, j, X.hface(p, q, i, x))
                            rhs = X.hface(p, q - 1, i, X.vface(p, q, j, x))
                            if lhs != rhs:
                                rep.add("d^v_j d^h_i = d^h_i d^v_j", (p, q, i, j, x), f"{lhs} != {rhs}")
                if p >= 1 and q < X.Q:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            rep.checked += 1
                            lhs = X.vdegen(p - 1, q, j, X.hface(p, q, i, x))
                            rhs = X.hface(p, q + 1, i, X.vdegen(p, q, j, x))
                            if lhs != rhs:
                                rep.add("s^v_j d^h_i = d^h_i s^v_j", (p, q, i, j, x), f"{lhs} != {rhs}")
                if p < X.P and q >= 1:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            rep.checked += 1
                            lhs = X.vface(p + 1, q, j, X.hdegen(p, q, i, x))
                            rhs = X.hdegen(p, q - 1, i, X.vface(p, q, j, x))
                            if lhs != rhs:
                                rep.add("d^v_j s^h_i = s^h_i d^v_j", (p, q, i, j, x), f"{lhs} != {rhs}")
                if p < X.P and q < X.Q:
                    for i in range(p + 1):
                        for j in range(q + 1):
                            rep.checked += 1
                            lhs = X.vdegen(p + 1, q, j, X.hdegen(p, q, i, x))
                            rhs = X.hdegen(p, q + 1, i, X.vdegen(p, q, j, x))
                            if lhs != rhs:
                                rep.add("s^v_j s^h_i = s^h_i s^v_j", (p, q, i, j, x), f"{lhs} != {rhs}")
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
        for (q, x) in self.marked:
            if q >= 1:
                for j in range(q + 1):
                    rep.checked += 1
                    if (q - 1, X.vface(1, q, j, x)) not in self.marked:
                        rep.add("marking closed under faces", (q, j, x), "vertical face escapes marking")
            if q < X.Q:
                for j in range(q + 1):
                    rep.checked += 1
                    if (q + 1, X.vdegen(1, q, j, x)) not in self.marked:
                        rep.add("marking closed under degeneracies", (q, j, x), "vertical degeneracy escapes marking")
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
