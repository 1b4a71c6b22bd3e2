"""The integer route of `nervekit.homology`: Smith normal form, dense
matrices and exact solves.

`_smith_normal_form` is the body of `homology.smith_normal_form`,
within the transform budget `_check_snf_budget` enforces. `_dense`
turns sparse columns into the dense rows it reads; `_kernel_basis` and
`_IntSolver` read kernels and solutions off one Smith decomposition,
and `_z_degree_iso` decides one degree of `homology.induced_chain_iso`
over the integers. They call the traced entry point
`homology.smith_normal_form`, bound when this module loads.

`nervekit.homology` and `nervekit.chains` import this module only when
the coefficients are Z, so a mod-2 run does not compile it.
"""

from __future__ import annotations

from typing import Optional

from .homology import SNF_MAX_TRANSFORM_ENTRIES, smith_normal_form
from .sset import TruncationError


# --- Smith normal form with transforms --------------------------------------


def _check_snf_budget(rows: int, cols: int) -> None:
    """Refuse a rows x cols Smith normal form whose transforms would hold
    more than `homology.SNF_MAX_TRANSFORM_ENTRIES` entries; callers check
    the shape before they build the dense matrix."""
    if rows * rows + cols * cols > SNF_MAX_TRANSFORM_ENTRIES:
        raise TruncationError(
            f"Smith normal form of a {rows} x {cols} matrix needs {rows * rows + cols * cols} transform "
            f"entries, above the budget of {SNF_MAX_TRANSFORM_ENTRIES}"
        )


def _smith_normal_form(A: list[list[int]]):
    # the body of `homology.smith_normal_form`
    rows = len(A)
    cols = len(A[0]) if rows else 0
    _check_snf_budget(rows, cols)
    M = [list(r) for r in A]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row i -= q * row j
        Mi, Mj = M[i], M[j]
        for c in range(cols):
            Mi[c] -= q * Mj[c]
        Ui, Uj = U[i], U[j]
        for c in range(rows):
            Ui[c] -= q * Uj[c]

    def col_op(i, j, q):  # col i -= q * col j
        for r in range(rows):
            M[r][i] -= q * M[r][j]
        for r in range(cols):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < rows and t < cols:
        # pick the entry of least nonzero magnitude as pivot
        best = None
        for r in range(t, rows):
            Mr = M[r]
            for c in range(t, cols):
                v = Mr[c]
                if v:
                    if best is None or abs(v) < best[0]:
                        best = (abs(v), r, c)
                        if abs(v) == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, r, c = best
        if r != t:
            swap_rows(t, r)
        if c != t:
            swap_cols(t, c)
        while True:
            # clear column t
            dirty = False
            for r in range(t + 1, rows):
                if M[r][t]:
                    q = M[r][t] // M[t][t]
                    row_op(r, t, q)
                    if M[r][t]:
                        swap_rows(t, r)
                        dirty = True
            if dirty:
                continue
            for c in range(t + 1, cols):
                if M[t][c]:
                    q = M[t][c] // M[t][t]
                    col_op(c, t, q)
                    if M[t][c]:
                        swap_cols(t, c)
                        dirty = True
            if dirty:
                continue
            break
        # pivot must divide the rest of the submatrix
        p = M[t][t]
        offender = None
        for r in range(t + 1, rows):
            Mr = M[r]
            for c in range(t + 1, cols):
                if Mr[c] % p:
                    offender = (r, c)
                    break
            if offender is not None:
                break
        if offender is not None:
            # pull the bad column into the pivot column; clearing then
            # leaves a remainder < |p|, so the pivot strictly shrinks
            col_op(t, offender[1], -1)
            continue
        if p < 0:
            for c in range(cols):
                M[t][c] = -M[t][c]
            for c in range(rows):
                U[t][c] = -U[t][c]
        t += 1
    diag = [M[i][i] for i in range(min(rows, cols))]
    rank = sum(1 for d in diag if d)
    return diag, U, V, rank


# --- dense matrices and exact solves ----------------------------------------


def _dense(cols: list[dict], rows: int) -> list[list[int]]:
    A = [[0] * len(cols) for _ in range(rows)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            A[r][c] = v
    return A


def _mat_vec(A, v):
    return [sum(a * b for a, b in zip(row, v)) for row in A]


def _kernel_basis(A: list[list[int]], cols: int) -> list[list[int]]:
    """Basis of the integer kernel lattice, as column vectors.

    ``cols`` is the width of A, passed explicitly because a matrix with
    no rows does not record it; its kernel is all of Z^cols.
    """
    rows = len(A)
    if cols == 0:
        return []
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    diag, U, V, rank = smith_normal_form(A)
    return [[V[r][j] for r in range(cols)] for j in range(rank, cols)]


class _IntSolver:
    """Solve A y = b repeatedly from one Smith decomposition."""

    def __init__(self, A: list[list[int]]):
        self.rows = len(A)
        self.cols = len(A[0]) if self.rows else 0
        if self.rows and self.cols:
            self.diag, self.U, self.V, self.rank = smith_normal_form(A)
        else:
            self.diag, self.U, self.V, self.rank = [], None, None, 0

    def solve(self, b: list[int]) -> Optional[list[int]]:
        if self.cols == 0:
            return [] if all(v == 0 for v in b) else None
        if self.rows == 0:
            return [0] * self.cols
        ub = _mat_vec(self.U, b)
        z = [0] * self.cols
        for j in range(min(self.rows, self.cols)):
            d = self.diag[j] if j < len(self.diag) else 0
            if d:
                if ub[j] % d:
                    return None
                z[j] = ub[j] // d
            elif ub[j]:
                return None
        for j in range(min(self.rows, self.cols), self.rows):
            if ub[j]:
                return None
        return _mat_vec(self.V, z)


def _z_degree_iso(n, bA, bX, dA, dX, fM):
    nA, nX = len(bA[n]), len(bX[n])
    KA = (
        _kernel_basis(_dense(dA[n], len(bA[n - 1])), nA) if n >= 1 else
        [[int(i == j) for i in range(nA)] for j in range(nA)]
    )
    KX = (
        _kernel_basis(_dense(dX[n], len(bX[n - 1])), nX) if n >= 1 else
        [[int(i == j) for i in range(nX)] for j in range(nX)]
    )
    kA, kX = len(KA), len(KX)
    KXmat = [[KX[j][r] for j in range(kX)] for r in range(nX)]
    solver_KX = _IntSolver(KXmat)
    KAmat = [[KA[j][r] for j in range(kA)] for r in range(nA)]
    solver_KA = _IntSolver(KAmat)

    def chain_push(vec: list[int]) -> list[int]:
        out = [0] * nX
        for j, v in enumerate(vec):
            if v:
                col = fM[n][j]
                for r, c in col.items():
                    out[r] += c * v
        return out

    # induced matrix M: kernel coords of A to kernel coords of X
    Mcols = []
    for b in KA:
        sol = solver_KX.solve(chain_push(b))
        if sol is None:
            return False, {"reason": "image leaves the cycle lattice"}
        Mcols.append(sol)
    # boundaries in kernel coordinates
    def to_coords(cols_dicts, rows, solver):
        out = []
        for col in cols_dicts:
            vec = [0] * rows
            for r, v in col.items():
                vec[r] = v
            sol = solver.solve(vec)
            if sol is None:
                return None
            out.append(sol)
        return out

    BA = to_coords(dA[n + 1], nA, solver_KA)
    BX = to_coords(dX[n + 1], nX, solver_KX)
    if BA is None or BX is None:
        return False, {"reason": "boundary outside the cycle lattice"}
    # groups for the record
    def group_of(k, B):
        mat = [[col[r] for col in B] for r in range(k)] if B else [[] for _ in range(k)]
        if k == 0:
            return {"betti": 0, "torsion": []}
        if not B:
            return {"betti": k, "torsion": []}
        diag, _, _, rank = smith_normal_form(mat)
        return {"betti": k - rank, "torsion": [d for d in diag[:rank] if d > 1]}

    HA = group_of(kA, BA)
    HX = group_of(kX, BX)
    info = {"source": HA, "target": HX}
    # surjectivity: columns of M plus boundaries of X must span Z^kX
    stacked = [[(Mcols[c][r] if c < kA else BX[c - kA][r]) for c in range(kA + len(BX))] for r in range(kX)]
    if kX:
        diag, _, _, rank = smith_normal_form(stacked)
        if rank < kX or any(d != 1 for d in diag[:rank]):
            info["surjective"] = False
            return False, info
    info["surjective"] = True
    # injectivity: kernel of the induced map must die in the source quotient
    width = kA + len(BX)
    paired = [[(Mcols[c][r] if c < kA else -BX[c - kA][r]) for c in range(width)] for r in range(kX)]
    solver_BA = _IntSolver([[col[r] for col in BA] for r in range(kA)] if BA else [[] for _ in range(kA)])
    for ker_vec in _kernel_basis(paired, width):
        v = ker_vec[:kA]
        if all(c == 0 for c in v):
            continue
        if BA:
            if solver_BA.solve(v) is None:
                info["injective"] = False
                info["witness_vector"] = v
                return False, info
        else:
            info["injective"] = False
            info["witness_vector"] = v
            return False, info
    info["injective"] = True
    return True, info
