"""Normalized chains and mod-2 ranks.

A chain group is free on the nondegenerate cells of a level, its basis
from `_nondeg_bases`. A boundary or chain map is kept as columns, one
dict row -> coefficient per basis cell (`_boundary_columns`,
`_chain_matrix_columns`). Mod-2 linear algebra is one routine,
`_f2_rank` on bitmask columns: mod-2 homology and chain checks read
ranks only.

The body of `homology.induced_chain_iso` lives here too, with its
chain-map check `_chain_map_defect`. `nervekit.homology` imports it
when first called, so a process that checks no chain map and computes
no homology does not compile this module. Homology groups, with
`HomologyReport`, live in `nervekit.groups`, which `compare` never
loads.
"""

from __future__ import annotations

from typing import Optional

from .reporting import CheckReport
from .sset import SimplicialMap, TruncationError


def _nondeg_bases(X, top: int):
    bases = [X.nondegenerate_cells(n) for n in range(top + 1)]
    pos = [{x: r for r, x in enumerate(b)} for b in bases]
    return bases, pos


def _boundary_columns(X, n: int, bases_n, pos_prev) -> list[dict]:
    """Column r: the boundary of the r-th nondegenerate n-cell, as row -> coeff."""
    cols = []
    for x in bases_n:
        col: dict[int, int] = {}
        for i in range(n + 1):
            y = X.face(n, i, x)
            r = pos_prev.get(y)
            if r is None:
                continue
            c = col.get(r, 0) + (1 if i % 2 == 0 else -1)
            if c:
                col[r] = c
            else:
                col.pop(r, None)
        cols.append(col)
    return cols


def _chain_matrix_columns(f, n: int, bases_A, pos_X) -> list[dict]:
    """Column r: the image under ``f`` of the r-th basis cell, empty where it is degenerate."""
    cols = []
    for x in bases_A:
        y = f.apply(n, x)
        r = pos_X.get(y)
        cols.append({} if r is None else {r: 1})
    return cols


# --- mod 2 linear algebra on bitmasks ---------------------------------------


def _f2_masks(cols: list[dict]) -> list[int]:
    out = []
    for col in cols:
        m = 0
        for r, v in col.items():
            if v % 2:
                m |= 1 << r
        out.append(m)
    return out


def _f2_rank(masks) -> int:
    """Rank over F2 of the bit vectors ``masks``: each is reduced by the
    pivots kept so far, highest bit first, and kept if anything is left."""
    pivots: dict[int, int] = {}
    for v in masks:
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                break
            v ^= p
    return len(pivots)


# --- chain maps and isomorphisms -------------------------------------------


def _column_sum(cols: list[dict], col: dict) -> dict:
    """The sum, over the entries r -> v of ``col``, of v times ``cols[r]``,
    zeros dropped: ``col`` read through the matrix with columns ``cols``."""
    out: dict[int, int] = {}
    for r, v in col.items():
        for rr, w in cols[r].items():
            out[rr] = out.get(rr, 0) + v * w
    return {r: v for r, v in out.items() if v}


def _chain_map_defect(dA: dict, dX: dict, fM: dict, top: int):
    """The first (n, c), n = 1..top, where d f and f d differ on the c-th
    basis n-cell of the source, or None if the columns of ``fM`` are a
    chain map between the boundaries ``dA`` and ``dX``. Both sides sum
    coefficient times column."""
    for n in range(1, top + 1):
        for c, col in enumerate(dA[n]):
            if _column_sum(dX[n], fM[n][c]) != _column_sum(fM[n - 1], col):
                return n, c
    return None


def _induced_chain_iso(f: SimplicialMap, coeff: str, max_deg: Optional[int]) -> CheckReport:
    # the body of `homology.induced_chain_iso`
    A, X = f.source, f.target
    if coeff == "z":
        from .integer import _z_degree_iso
    elif coeff != "f2":
        raise ValueError(f"unknown coefficients {coeff!r}")
    if max_deg is None:
        max_deg = min(A.D, X.D) - 1
    if max_deg > min(A.D, X.D) - 1 or max_deg > f.L - 1:
        raise TruncationError("degree out of range for this map's truncations")
    top = max_deg + 1
    bA, pA = _nondeg_bases(A, top)
    bX, pX = _nondeg_bases(X, top)
    dA = {n: _boundary_columns(A, n, bA[n], pA[n - 1]) for n in range(1, top + 1)}
    dX = {n: _boundary_columns(X, n, bX[n], pX[n - 1]) for n in range(1, top + 1)}
    fM = {n: _chain_matrix_columns(f, n, bA[n], pX[n]) for n in range(top + 1)}

    check = CheckReport(check=f"induced_chain_iso[{coeff}]", verdict="pass")
    check.bounds["max_deg"] = max_deg
    bad = _chain_map_defect(dA, dX, fM, top)
    if bad is not None:
        n, c = bad
        check.verdict = "fail"
        check.witnesses.append({"reason": "not a chain map", "degree": n, "cell": bA[n][c]})
        return check
    if coeff == "f2":
        # each boundary as bit vectors, eliminated once; d_0 is zero
        mA = [[0] * len(bA[0])] + [_f2_masks(dA[n]) for n in range(1, top + 1)]
        mX = [[0] * len(bX[0])] + [_f2_masks(dX[n]) for n in range(1, top + 1)]
        rA, rX = [_f2_rank(m) for m in mA], [_f2_rank(m) for m in mX]
    for n in range(max_deg + 1):
        if coeff == "z":
            ok, info = _z_degree_iso(n, bA, bX, dA, dX, fM)
        else:
            # the cone block K_n: (a, x) -> (d a, f a + d x), X_n in the low
            # bits. Its image projects onto B_{n-1}A with kernel
            # f(Z_n A) + B_n X, so f_* is onto iff that sum is Z_n X.
            nX = len(bX[n])
            K = [m << nX | c for m, c in zip(mA[n], _f2_masks(fM[n]))] + mX[n + 1]
            info = {
                "dim_source": len(bA[n]) - rA[n] - rA[n + 1],
                "dim_target": nX - rX[n] - rX[n + 1],
                "surjective": _f2_rank(K) - rA[n] == nX - rX[n],
            }
            ok = info["dim_source"] == info["dim_target"] and info["surjective"]
        check.bounds[f"H{n}"] = info
        if not ok:
            check.verdict = "fail"
            check.witnesses.append({"degree": n, **info})
    return check
