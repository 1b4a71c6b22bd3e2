"""Simplicial maps: the check of their identities, and composites.

`_validate_map` is the body of `sset.validate_map`, the traced entry
point ``import nervekit`` loads; it imports this module when first
called, so only a verb that checks a map compiles it.
"""

from __future__ import annotations

import itertools
from operator import ne

from .reporting import ValidationReport
from .sset import SimplicialMap


def _validate_map(f: SimplicialMap, subject: str) -> ValidationReport:
    # the body of `sset.validate_map`
    rep = ValidationReport(subject)
    A, X = f.source, f.target
    L = f.L
    values = [list(map(f.apply, itertools.repeat(n), range(A.card(n)))) for n in range(L + 1)]
    for n, row in enumerate(values):
        c = X.card(n)
        for x, v in enumerate(row):
            if not 0 <= v < c:
                rep.add("value range", (n, x), f"value {v} outside target level {n}")
    if rep.violations:
        return rep

    def square(law, n, i, m, op_A, op_X):
        # f at level m after op_A against op_X after f at level n
        cells = range(A.card(n))
        differ = map(ne, map(values[m].__getitem__, map(op_A, cells)), map(op_X, values[n]))
        for x in itertools.compress(cells, differ):
            rep.add(law, (n, i, x), f"{values[m][op_A(x)]} != {op_X(values[n][x])}")
        rep.checked += len(cells)

    for n in range(1, L + 1):
        for i in range(n + 1):
            square("f d_i = d_i f", n, i, n - 1, A.face_map(n, i), X.face_map(n, i))
    for n in range(min(L, A.D - 1, X.D - 1) + 1):
        if n + 1 > f.L:
            break
        for i in range(n + 1):
            square("f s_i = s_i f", n, i, n + 1, A.degen_map(n, i), X.degen_map(n, i))
    return rep


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    L = min(f.L, g.L)
    vals = [[g.apply(n, f.apply(n, x)) for x in range(f.source.card(n))] for n in range(L + 1)]
    return SimplicialMap(f.source, g.target, values=vals, L=L)
