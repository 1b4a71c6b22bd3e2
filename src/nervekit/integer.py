"""The integer route of `nervekit.homology`: dense matrices and exact solves.

`_dense` turns sparse columns into the dense rows `smith_normal_form`
reads; `_kernel_basis` and `_IntSolver` read kernels and solutions off
one Smith decomposition, and `_z_degree_iso` decides one degree of
`homology.induced_chain_iso` over the integers.

`nervekit.homology` imports this module only when the coefficients are
Z, so a mod-2 run does not compile it.
"""

from __future__ import annotations

from typing import Optional

from .homology import smith_normal_form


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
