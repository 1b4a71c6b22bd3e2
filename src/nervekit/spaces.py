"""Single-cell operators and products: simplicial sets only some verbs build.

* `act` and `vertices` apply one monotone operator to one cell, through
  the steps `act_table` takes for a whole level;
* `ProductSset` is the lazy levelwise product of two cell-table
  interfaces, `materialize` copies any such interface into explicit
  tables, and `product` does both;
* `subcomplex` closes a set of cells under faces and degeneracies;
* `_map_reads` tells the maps `enumerate_maps` returns how to read
  each cell from their packed vectors.

``import nervekit`` does not load this module up front: the package
resolves these names from here on first use (`act` also from
`nervekit.sset`).
"""

from __future__ import annotations

from typing import Sequence

from .serialize import sset_to_json
from .sset import SimplicialMap, SimplicialSet, _DegeneracyTest, _families, _steps


def act(X, n: int, x: int, f: Sequence[int]) -> int:
    """Apply an arbitrary monotone operator to a cell.

    ``f`` is a weakly increasing tuple of length m+1 with values in
    0..n, read as a map [m] -> [n]; the result is the image of ``x``
    under the induced map level n -> level m. The operator is factored
    into faces (one per value missing from the image, largest first)
    followed by degeneracies (doubled positions, smallest first), which
    is exactly the unique surjection-after-injection factorization
    (`_factored`). ``tests/test_sset.py`` keeps a recursive
    factoring and a label formula as oracles.
    """
    faces, degens = _steps(X, n, f)
    for k, j in faces:
        x = X.face(k, j, x)
    for k, t in degens:
        x = X.degen(k, t, x)
    return x


def vertices(X, n: int, x: int) -> tuple[int, ...]:
    """Vertex tuple of a cell, via the operators picking out each value."""
    return tuple(act(X, n, x, (t,)) for t in range(n + 1))


def materialize(V, name: str = "") -> SimplicialSet:
    """Copy any cell-table interface (e.g. a lazy view) into explicit tables."""
    D = V.D
    doc = sset_to_json(V)
    cards = doc["cells"]
    labels = None
    if getattr(V, "labels", None) is not None or hasattr(V, "label"):
        labels = [[V.label(n, x) for x in range(cards[n])] for n in range(D + 1)]
    if labels is not None and all(l is None for lvl in labels for l in lvl):
        labels = None
    return SimplicialSet(D, cards, doc["face"], doc["degen"], labels=labels, name=name or getattr(V, "name", ""))


class ProductSset(_DegeneracyTest):
    """Lazy levelwise product of two cell-table interfaces.

    The pair (a, b) at level n is the single index a * B.card(n) + b,
    so the first factor is the major digit. Operators act
    componentwise.
    """

    def __init__(self, A, B, name: str = ""):
        self.A = A
        self.B = B
        self.D = min(A.D, B.D)
        self.name = name

    def card(self, n: int) -> int:
        return self.A.card(n) * self.B.card(n)

    def split(self, n: int, x: int) -> tuple[int, int]:
        b = self.B.card(n)
        return x // b, x % b

    def pair(self, n: int, a: int, b: int) -> int:
        return a * self.B.card(n) + b

    def face(self, n: int, i: int, x: int) -> int:
        a, b = self.split(n, x)
        return self.A.face(n, i, a) * self.B.card(n - 1) + self.B.face(n, i, b)

    def degen(self, n: int, i: int, x: int) -> int:
        a, b = self.split(n, x)
        return self.A.degen(n, i, a) * self.B.card(n + 1) + self.B.degen(n, i, b)

    def label(self, n: int, x: int):
        a, b = self.split(n, x)
        la, lb = self.A.label(n, a), self.B.label(n, b)
        if la is None and lb is None:
            return None
        return (la, lb)


def product(X, Y, name: str = "") -> SimplicialSet:
    """Materialized levelwise product."""
    return materialize(ProductSset(X, Y), name=name)


def subcomplex(X: SimplicialSet, seeds) -> tuple[SimplicialSet, SimplicialMap]:
    """Smallest subobject containing the seed cells, with its inclusion.

    ``seeds`` is an iterable of (level, cell). Closure takes two passes
    over the levels: faces downward from the top, then degeneracies
    upward from level 0 (a face of a degeneracy of x is x or a
    degeneracy of a face of x). The tables gather the rows of X.
    """
    keep: list[set[int]] = [set() for _ in range(X.D + 1)]
    for n, x in seeds:
        keep[int(n)].add(int(x))
    families = [(getattr(X, kind + "s"), rows, step) for kind, _, rows, step in _families(X.D)]
    for tables, rows, step in families:
        for n in range(X.D + 1)[::step]:
            for i in range(rows(n)):
                keep[n + step].update(map(tables[n][i].__getitem__, keep[n]))
    old = [sorted(cells) for cells in keep]
    new = [dict(zip(cells, range(len(cells)))).__getitem__ for cells in old]

    def gather(rows, renumber, cells):
        return [list(map(renumber, map(row.__getitem__, cells))) for row in rows]

    top = X.D
    faces, degens = (
        [gather(tables[n], new[n + step], old[n]) if rows(n) else [] for n in range(top + 1)] for tables, rows, step in families
    )
    labels = None if X.labels is None else [list(map(X.labels[n].__getitem__, old[n])) for n in range(top + 1)]
    S = SimplicialSet(top, list(map(len, old)), faces, degens, labels=labels, name=f"sub({X.name})")
    return S, SimplicialMap(S, X, values=old)


def _map_reads(base, stored, witness, degen_table) -> list:
    """How the maps one `enumerate_maps` search found read every cell.

    A map stores only the cells the search assigned, by their slots
    (cell (n, x) is slot ``base[n] + x``), in its packed vector. Any
    other cell is s_i of its witness (m, i, y) one level down, so it
    repeats one stored cell. ``reads[n][x]`` is (p, steps): the cell's
    value is entry p of the packed vector carried through X's
    degeneracy tables ``steps`` in turn, its witness chain from the
    stored cell up.
    """
    at = {s: (p, ()) for p, s in enumerate(stored)}
    reads = []
    for s in range(base[-1]):
        if s not in at:
            m, i, y = witness[s]
            p, steps = reads[base[m] + y]
            at[s] = p, steps + (degen_table(m, i),)
        reads.append(at[s])
    return [reads[a:b] for a, b in zip(base, base[1:])]
