"""Chain-complex kernels of normalized chains, and mod-2 elimination.

A chain group is free on the nondegenerate cells of a level, its basis
from `_nondeg_bases`. A boundary or chain map is kept as columns, one
dict row -> coefficient per basis cell (`_boundary_columns`,
`_chain_matrix_columns`). Mod-2 linear algebra runs on bitmasks:
`_F2Space` is a row-reduced span and `_f2_kernel_basis` carries
coefficient combinations through elimination; `_f2_degree_iso` decides
one degree of `homology.induced_chain_iso` over F2.

`nervekit.homology` imports this module inside the functions that use
it, so a process that computes no homology does not compile it.
"""

from __future__ import annotations


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


class _F2Space:
    """Row-reduced span of bit vectors with membership and reduction."""

    def __init__(self, vecs=()):
        self.pivots: dict[int, int] = {}
        for v in vecs:
            self.add(v)

    def reduce(self, v: int) -> int:
        while v:
            h = v.bit_length() - 1
            p = self.pivots.get(h)
            if p is None:
                return v
            v ^= p
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v
            return True
        return False

    @property
    def dim(self) -> int:
        return len(self.pivots)


def _f2_kernel_basis(masks: list[int], ncols: int) -> list[int]:
    """Kernel of the matrix with the given columns, as coefficient bitmasks."""
    # carry (column, coefficient-combo) pairs through elimination
    rows: list[tuple[int, int]] = []
    basis = []
    for j, m in enumerate(masks):
        combo = 1 << j
        v = m
        for pm, pc in rows:
            if v and (v ^ pm) < v:
                v ^= pm
                combo ^= pc
        if v:
            rows.append((v, combo))
            rows.sort(key=lambda t: -t[0])
        else:
            basis.append(combo)
    return basis


def _f2_degree_iso(n, bA, bX, dA, dX, fM):
    nA, nX = len(bA[n]), len(bX[n])
    kerA = (
        _f2_kernel_basis(_f2_masks(dA[n]), nA) if n >= 1 else [1 << j for j in range(nA)]
    )
    kerX = (
        _f2_kernel_basis(_f2_masks(dX[n]), nX) if n >= 1 else [1 << j for j in range(nX)]
    )
    dimHA = len(kerA) - _F2Space(_f2_masks(dA[n + 1])).dim
    # boundaries of X, then the image of f's cycles added to their span
    span = _F2Space(_f2_masks(dX[n + 1]))
    dimHX = len(kerX) - span.dim
    # image of f on chains, as masks over X rows
    fmask = _f2_masks(fM[n])

    def push(combo: int) -> int:
        v = 0
        j = 0
        while combo:
            if combo & 1:
                v ^= fmask[j]
            combo >>= 1
            j += 1
        return v

    for c in kerA:
        span.add(push(c))
    surj = span.dim == len(kerX)  # span of image + boundaries vs all cycles
    info = {"dim_source": dimHA, "dim_target": dimHX, "surjective": surj}
    return (dimHA == dimHX and surj), info
