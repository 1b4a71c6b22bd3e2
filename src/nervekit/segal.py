"""The levelwise nerve as a Segal space, checked cell by cell.

* `segal_column_check`: column n at level q is the set of composable
  chains of level-q hom cells, compatibly with the vertical operators,
  and column n is the strict pullback of column n - 1 and column 1 over
  column 0.
* `fiber_check`: the fibers of column 1 over pairs of constant cells
  are the homs.

No CLI verb runs these checks, so ``import nervekit`` does not load
this module up front: the package resolves its public names on first
use.
"""

from __future__ import annotations

import itertools

from .cat import RelativeSimplicialCategory
from .nerves import levelwise_nerve
from .reporting import CheckReport
from .sset import TruncationError, _families

# each check keeps the first witnesses it finds, up to this many
MAX_WITNESSES = 8


def _column_factors(NB, n: int, q: int, x: int) -> tuple:
    # restrict the column-n cell to each edge {i-1, i} by horizontal faces,
    # then read the morphism off the column-1 label ((a, b), (c,))
    out = []
    for i in range(1, n + 1):
        y, p = x, n
        for _ in range(n - i):
            y = NB.hface(p, q, p, y)
            p -= 1
        for _ in range(i - 1):
            y = NB.hface(p, q, 0, y)
            p -= 1
        (a, b), (c,) = NB.label(1, q, y)
        out.append((a, b, c))
    return tuple(out)


def segal_column_check(R, n_max: int, Q: int) -> CheckReport:
    """Column formula and strict Segal pullback for the levelwise nerve.

    For 1 <= n <= n_max and q <= Q, the horizontal edge restrictions
    must identify column n at level q with the set of composable chains
    of level-q hom cells, compatibly with the vertical operators. For
    n >= 2 the restriction to the front face and the last edge must be
    a bijection onto the pullback of column n-1 and column 1 over
    column 0.
    """
    SC = R.cat if isinstance(R, RelativeSimplicialCategory) else R
    if not 0 <= Q <= SC.D:
        raise TruncationError(f"row bound {Q} beyond hom truncation {SC.D}")
    if n_max < 1:
        raise ValueError("need at least one column")
    NB = levelwise_nerve(SC, n_max, Q)
    families = _families(Q)
    witnesses = []
    cells_checked = 0
    op_instances = 0
    segal_pairs = 0

    def note(*w):
        if len(witnesses) < MAX_WITNESSES:
            witnesses.append(w)

    fac = {}
    for n in range(1, n_max + 1):
        for q in range(Q + 1):
            for x in range(NB.card(n, q)):
                fac[(n, q, x)] = _column_factors(NB, n, q, x)

    for n in range(1, n_max + 1):
        for q in range(Q + 1):
            seen = {}
            for x in range(NB.card(n, q)):
                t = fac[(n, q, x)]
                cells_checked += 1
                if any(t[i][1] != t[i + 1][0] for i in range(n - 1)):
                    note("factors not composable", n, q, x, t)
                elif t in seen:
                    note("factor tuple repeated", n, q, x, seen[t])
                else:
                    seen[t] = x
            total = 0
            for objs in itertools.product(SC.objects, repeat=n + 1):
                prod = 1
                for i in range(n):
                    prod *= SC.hom(objs[i], objs[i + 1]).card(q)
                total += prod
            if total != NB.card(n, q):
                note("column count mismatch", n, q, NB.card(n, q), total)
            for x in range(NB.card(n, q)):
                t = fac[(n, q, x)]
                for kind, _, rows, step in families:
                    noun = "face" if step < 0 else "degeneracy"
                    for j in range(rows(q)):
                        y = getattr(NB, "v" + kind)(n, q, j, x)
                        want = tuple((a, b, getattr(SC.hom(a, b), kind)(q, j, c)) for a, b, c in t)
                        op_instances += 1
                        if fac[(n, q + step, y)] != want:
                            note(f"vertical {noun} vs factors", n, q, j, x)

    for n in range(2, n_max + 1):
        for q in range(Q + 1):
            first_count: dict = {}
            for v in range(NB.card(1, q)):
                a = fac[(1, q, v)][0][0]
                first_count[a] = first_count.get(a, 0) + 1
            last_count: dict = {}
            for u in range(NB.card(n - 1, q)):
                b = fac[(n - 1, q, u)][-1][1]
                last_count[b] = last_count.get(b, 0) + 1
            pullback = sum(last_count.get(o, 0) * first_count.get(o, 0) for o in SC.objects)
            seen = {}
            for x in range(NB.card(n, q)):
                u = NB.hface(n, q, n, x)
                v = x
                for r in range(n, 1, -1):
                    v = NB.hface(r, q, 0, v)
                segal_pairs += 1
                if (u, v) in seen:
                    note("segal pair repeated", n, q, x, seen[(u, v)])
                else:
                    seen[(u, v)] = x
                if fac[(n - 1, q, u)][-1][1] != fac[(1, q, v)][0][0]:
                    note("segal pair endpoints", n, q, x)
            if pullback != NB.card(n, q):
                note("segal count mismatch", n, q, NB.card(n, q), pullback)

    return CheckReport(
        check=f"column formula and Segal pullback for {SC.name or 'category'}",
        verdict="pass" if not witnesses else "fail",
        witnesses=witnesses,
        bounds={
            "n_max": n_max,
            "Q": Q,
            "cells_checked": cells_checked,
            "op_instances": op_instances,
            "segal_pairs": segal_pairs,
        },
    )


def fiber_check(R) -> CheckReport:
    """Fibers of (source, target): column 1 over column 0 x column 0.

    For each object pair (X, Y) and each level q, the column-1 cells
    whose horizontal faces are the constant cells at X and Y must
    biject with the q-cells of hom(X, Y), compatibly with the vertical
    operators.
    """
    SC = R.cat if isinstance(R, RelativeSimplicialCategory) else R
    D = SC.D
    NB = levelwise_nerve(SC, 1, D)
    families = _families(D)
    witnesses = []
    cells_checked = 0

    def note(*w):
        if len(witnesses) < MAX_WITNESSES:
            witnesses.append(w)

    def endpoint(q, y, i):
        # i = 1 keeps vertex 0 (source), i = 0 keeps vertex 1 (target)
        z = NB.hface(1, q, i, y)
        return NB.label(0, q, z)[0][0]

    for q in range(D + 1):
        fibers: dict = {}
        for y in range(NB.card(1, q)):
            src, tgt = endpoint(q, y, 1), endpoint(q, y, 0)
            (a, b), (c,) = NB.label(1, q, y)
            if (a, b) != (src, tgt):
                note("label vs operator endpoints", q, y, (a, b), (src, tgt))
            fibers.setdefault((src, tgt), {})[y] = c
            cells_checked += 1
        for X in SC.objects:
            for Y in SC.objects:
                got = fibers.get((X, Y), {})
                H = SC.hom(X, Y)
                if sorted(got.values()) != list(range(H.card(q))):
                    note("fiber not in bijection with hom", X, Y, q, sorted(got.values()))
                    continue
                for y, c in got.items():
                    for kind, _, rows, step in families:
                        noun = "face" if step < 0 else "degeneracy"
                        for j in range(rows(q)):
                            _, (d,) = NB.label(1, q + step, getattr(NB, "v" + kind)(1, q, j, y))
                            if d != getattr(H, kind)(q, j, c):
                                note(f"fiber vs vertical {noun}", X, Y, q, j, y)
    return CheckReport(
        check=f"hom fibers of column 1 for {SC.name or 'category'}",
        verdict="pass" if not witnesses else "fail",
        witnesses=witnesses,
        bounds={"levels": D, "pairs": len(SC.objects) ** 2, "cells_checked": cells_checked},
    )
