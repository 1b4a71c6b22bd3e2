"""Simplicial sets and maps that only the tests build or compare."""
from typing import Optional

from nervekit import SimplicialMap, SimplicialSet, act, standard_simplex, subcomplex


def sset_data_equal(X, Y) -> bool:
    """Levelwise comparison of two cell-table interfaces, labels ignored."""
    if X.D != Y.D:
        return False
    for n in range(X.D + 1):
        if X.card(n) != Y.card(n):
            return False
    for n in range(1, X.D + 1):
        for i in range(n + 1):
            for x in range(X.card(n)):
                if X.face(n, i, x) != Y.face(n, i, x):
                    return False
    for n in range(X.D):
        for i in range(n + 1):
            for x in range(X.card(n)):
                if X.degen(n, i, x) != Y.degen(n, i, x):
                    return False
    return True


def identity_map(X) -> SimplicialMap:
    return SimplicialMap(X, X, values=[range(X.card(n)) for n in range(X.D + 1)])


def yoneda_map(X, n: int, x: int, L: Optional[int] = None) -> SimplicialMap:
    """The map out of the n-simplex classifying cell x, as explicit tables.

    Level m sends the monotone tuple labelling a simplex cell to the
    action of that operator on x.
    """
    if L is None:
        L = X.D
    Delta = standard_simplex(n, L)
    vals = [
        [act(X, n, x, Delta.label(m, c)) for c in range(Delta.card(m))] for m in range(L + 1)
    ]
    return SimplicialMap(Delta, X, values=vals)


def boundary_simplex(n: int, D: Optional[int] = None) -> SimplicialSet:
    """Boundary of the n-simplex: cells whose vertices miss some value."""
    if D is None:
        D = max(n - 1, 0)
    full = set(range(n + 1))
    Delta = standard_simplex(n, D)
    seeds = [
        (m, x)
        for m in range(D + 1)
        for x in range(Delta.card(m))
        if set(Delta.label(m, x)) != full
    ]
    S, _ = subcomplex(Delta, seeds)
    S.name = f"boundary({n})"
    return S
