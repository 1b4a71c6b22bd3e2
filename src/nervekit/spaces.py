"""Single-cell operators and products: simplicial sets only some verbs build.

* `act` and `vertices` apply one monotone operator to one cell, through
  the steps `act_table` takes for a whole level;
* `ProductSset` is the lazy levelwise product of two cell-table
  interfaces, `materialize` copies any such interface into explicit
  tables, and `product` does both.

``import nervekit`` does not load this module up front: the package
resolves these names from here on first use (`act` also from
`nervekit.sset`).
"""

from __future__ import annotations

from typing import Sequence

from .serialize import sset_to_json
from .sset import SimplicialSet, _DegeneracyTest, _steps


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
