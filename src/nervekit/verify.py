"""Exact verification engine.

Everything here either passes exactly or fails with a witness; nothing
is sampled and nothing is approximated. The checks fall into three
groups:

* point-set verifications of a single object: `pi0`, `horn_check`,
  `homology` (re-exported from the chain-complex module);
* structural cross-checks between constructions: `segal_column_check`
  (column formula and strict Segal pullback of the levelwise nerve),
  `fiber_check` (hom fibers of column 1), `consistency_check`
  (re-exported; diagonal and vertex-restriction routes),
  `induced_chain_iso` (re-exported; homology of a map);
* a brute-force search: `uniqueness_search`, which enumerates every
  natural family of functors from the path gadgets to the chain
  gadgets up to a cosimplicial truncation.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .cat import (
    RelativeSimplicialCategory,
    SimplicialFunctor,
    _pi0_classes,
    coherent_path_category,
    comparison_functor,
    compose_functors,
    enumerate_simplicial_functors,
    functors_equal,
    path_functor,
    simplex_power_category,
    simplex_power_transform,
)
from .homology import HomologyReport, homology, induced_chain_iso
from .nerves import consistency_check, levelwise_nerve
from .reporting import CheckReport
from .sset import TruncationError, act_table, enumerate_maps, horn

__all__ = [
    "HomologyReport",
    "consistency_check",
    "fiber_check",
    "homology",
    "horn_check",
    "induced_chain_iso",
    "pi0",
    "segal_column_check",
    "uniqueness_report",
    "uniqueness_search",
]


def pi0(X) -> list[list[int]]:
    """Partition of the vertices by the 1-cell endpoint relation.

    Classes are sorted internally and listed by smallest member.
    """
    roots = _pi0_classes(X)
    groups: dict[int, list[int]] = {}
    for v, r in enumerate(roots):
        groups.setdefault(r, []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _lab(X, n: int, x: int):
    lab = X.label(n, x)
    return x if lab is None else lab


def horn_check(X, n: int, k: int, max_witnesses: int = 8) -> CheckReport:
    """Does every map from the (n, k)-horn into X extend to an n-cell?

    All horn maps are enumerated by `enumerate_maps`. A filler for h is
    an n-cell z whose operator action reproduces h on every
    nondegenerate horn cell (agreement there forces agreement
    everywhere). So the horn restrictions of the n-cells of X, each the
    tuple of `act` over those horn cells, are built once as a set (one
    `act_table` per horn cell), and h is fillable iff its value tuple on
    the same cells is in that set.
    The report gives fillability only, not the number of fillers.
    Failures are reported as labelled assignments.
    """
    if not 1 <= n <= X.D:
        raise TruncationError(f"horn extension at level {n} needs truncation >= {n}, have {X.D}")
    H = horn(n, k)
    nd = [(m, c) for m in range(H.D + 1) for c in H.nondegenerate_cells(m)]
    ops = [H.label(m, c) for m, c in nd]
    restrictions = set(zip(*(act_table(X, n, f) for f in ops)))
    maps = enumerate_maps(H, X)
    witnesses = []
    unfillable = 0
    for h in maps:
        if tuple(h.apply(m, c) for m, c in nd) not in restrictions:
            unfillable += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(
                    {
                        "assignment": [
                            (H.label(m, c), _lab(X, m, h.apply(m, c))) for m, c in nd
                        ]
                    }
                )
    return CheckReport(
        check=f"horn({n},{k}) extension in {X.name or 'sset'}",
        verdict="pass" if unfillable == 0 else "fail",
        witnesses=witnesses,
        bounds={"n": n, "k": k, "horn_maps": len(maps), "unfillable": unfillable},
    )


def _column_factors(NB, n: int, q: int, x: int) -> tuple:
    # restrict the column-n cell to each edge {i-1, i} by horizontal faces,
    # then read the morphism off the column-1 label (a, ((a, b, (a, b, c)),))
    out = []
    for i in range(1, n + 1):
        y, p = x, n
        for _ in range(n - i):
            y = NB.hface(p, q, p, y)
            p -= 1
        for _ in range(i - 1):
            y = NB.hface(p, q, 0, y)
            p -= 1
        _, ms = NB.label(1, q, y)
        a, b, mlab = ms[0]
        out.append((a, b, mlab[2]))
    return tuple(out)


def segal_column_check(R, n_max: int, Q: int, max_witnesses: int = 8) -> CheckReport:
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
    witnesses = []
    cells_checked = 0
    op_instances = 0
    segal_pairs = 0

    def note(*w):
        if len(witnesses) < max_witnesses:
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
                if q >= 1:
                    for j in range(q + 1):
                        y = NB.vface(n, q, j, x)
                        want = tuple((a, b, SC.hom(a, b).face(q, j, c)) for a, b, c in t)
                        op_instances += 1
                        if fac[(n, q - 1, y)] != want:
                            note("vertical face vs factors", n, q, j, x)
                if q < Q:
                    for j in range(q + 1):
                        y = NB.vdegen(n, q, j, x)
                        want = tuple((a, b, SC.hom(a, b).degen(q, j, c)) for a, b, c in t)
                        op_instances += 1
                        if fac[(n, q + 1, y)] != want:
                            note("vertical degeneracy vs factors", n, q, j, x)

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


def fiber_check(R, max_witnesses: int = 8) -> CheckReport:
    """Fibers of (source, target): column 1 over column 0 x column 0.

    For each object pair (X, Y) and each level q, the column-1 cells
    whose horizontal faces are the constant cells at X and Y must
    biject with the q-cells of hom(X, Y), compatibly with the vertical
    operators.
    """
    SC = R.cat if isinstance(R, RelativeSimplicialCategory) else R
    D = SC.D
    NB = levelwise_nerve(SC, 1, D)
    witnesses = []
    cells_checked = 0

    def note(*w):
        if len(witnesses) < max_witnesses:
            witnesses.append(w)

    def endpoint(q, y, i):
        # i = 1 keeps vertex 0 (source), i = 0 keeps vertex 1 (target)
        z = NB.hface(1, q, i, y)
        return NB.label(0, q, z)[0]

    for q in range(D + 1):
        fibers: dict = {}
        for y in range(NB.card(1, q)):
            src, tgt = endpoint(q, y, 1), endpoint(q, y, 0)
            _, ms = NB.label(1, q, y)
            a, b, mlab = ms[0]
            if (a, b) != (src, tgt):
                note("label vs operator endpoints", q, y, (a, b), (src, tgt))
            fibers.setdefault((src, tgt), {})[y] = mlab[2]
            cells_checked += 1
        for X in SC.objects:
            for Y in SC.objects:
                got = fibers.get((X, Y), {})
                H = SC.hom(X, Y)
                if sorted(got.values()) != list(range(H.card(q))):
                    note("fiber not in bijection with hom", X, Y, q, sorted(got.values()))
                    continue
                for y, c in got.items():
                    if q >= 1:
                        for j in range(q + 1):
                            yy = NB.vface(1, q, j, y)
                            _, ms = NB.label(1, q - 1, yy)
                            if ms[0][2][2] != H.face(q, j, c):
                                note("fiber vs vertical face", X, Y, q, j, y)
                    if q < D:
                        for j in range(q + 1):
                            yy = NB.vdegen(1, q, j, y)
                            _, ms = NB.label(1, q + 1, yy)
                            if ms[0][2][2] != H.degen(q, j, c):
                                note("fiber vs vertical degeneracy", X, Y, q, j, y)
    return CheckReport(
        check=f"hom fibers of column 1 for {SC.name or 'category'}",
        verdict="pass" if not witnesses else "fail",
        witnesses=witnesses,
        bounds={"levels": D, "pairs": len(SC.objects) ** 2, "cells_checked": cells_checked},
    )


def _monotone_maps(a: int, b: int):
    return list(itertools.combinations_with_replacement(range(b + 1), a + 1))


def uniqueness_search(N: int, D: Optional[int] = None) -> list[tuple]:
    """All natural families of functors from path gadgets to chain gadgets.

    A family assigns to each n <= N a simplicial functor from
    `coherent_path_category(n, D)` to `simplex_power_category(n, D)`;
    naturality is required against every monotone map between [a] and
    [b] for a, b <= N, pre- and postcomposed through `path_functor`
    and `simplex_power_transform`. The search is exhaustive over all
    functors per degree, so it is only feasible at desk scale (N <= 2).
    """
    if N < 1:
        raise ValueError("need cosimplicial degree at least 1")
    if D is None:
        D = N
    candidates = [
        enumerate_simplicial_functors(coherent_path_category(n, D), simplex_power_category(n, D))
        for n in range(N + 1)
    ]
    squares = [
        (a, b, f, path_functor(f, a, b, D), simplex_power_transform(f, a, b, D))
        for a in range(N + 1)
        for b in range(N + 1)
        for f in _monotone_maps(a, b)
    ]
    families = []
    for combo in itertools.product(*candidates):
        if all(
            functors_equal(compose_functors(combo[b], up), compose_functors(right, combo[a]))
            for a, b, f, up, right in squares
        ):
            families.append(combo)
    return families


def _functor_tables_equal(F: SimplicialFunctor, G: SimplicialFunctor) -> bool:
    if F.obj != G.obj or set(F.homs) != set(G.homs):
        return False
    return all(F.homs[p].key() == G.homs[p].key() for p in F.homs)


def uniqueness_report(N: int, D: Optional[int] = None) -> CheckReport:
    """Report form of `uniqueness_search`, compared against the canonical family."""
    if D is None:
        D = N
    families = uniqueness_search(N, D)
    expected = tuple(comparison_functor(n, D) for n in range(N + 1))
    matches = [
        fam for fam in families if all(_functor_tables_equal(g, e) for g, e in zip(fam, expected))
    ]
    verdict = "pass" if len(families) == 1 and len(matches) == 1 else "fail"
    witnesses = []
    if verdict == "fail":
        for fam in families[:4]:
            witnesses.append([g.vertex_signature() for g in fam])
    return CheckReport(
        check=f"uniqueness at truncation {N}",
        verdict=verdict,
        witnesses=witnesses,
        bounds={
            "N": N,
            "D": D,
            "families": len(families),
            "canonical_found": len(matches),
        },
    )
