"""Simplicial maps: the check of their identities, and composites.

`_validate_map` is the body of `sset.validate_map`, the traced entry
point ``import nervekit`` loads; it imports this module when first
called, so only a verb that checks a map compiles it.
"""

from __future__ import annotations

import itertools
from operator import ne

from .reporting import ValidationReport
from .sset import SimplicialMap, _families


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

    # degeneracies only below the top level of L, A and X
    for kind, symbol, rows, step in _families(min(L, A.D, X.D)):
        for n in range(L + 1):
            for i in range(rows(n)):
                op_A, op_X = (getattr(Y, kind + "_map")(n, i) for Y in (A, X))
                square(f"f {symbol}_i = {symbol}_i f", n, i, n + step, op_A, op_X)
    return rep


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    L = min(f.L, g.L)
    vals = [[g.apply(n, f.apply(n, x)) for x in range(f.source.card(n))] for n in range(L + 1)]
    return SimplicialMap(f.source, g.target, values=vals, L=L)
