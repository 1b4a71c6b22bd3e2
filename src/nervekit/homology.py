"""Exact homology of truncated simplicial sets.

Chain groups are free on nondegenerate cells (normalized chains); the
boundary is the alternating face sum with degenerate targets dropped.
Integer homology uses a hand-rolled Smith normal form with transform
tracking, so kernels, solutions, and torsion come out exactly. Mod-2
homology uses bitmask Gaussian elimination.

A truncation at D determines boundaries only up to level D, so degree
n homology needs n <= D - 1; higher degrees raise `TruncationError`.
"""

from __future__ import annotations

from typing import Optional

from .reporting import CheckReport, Record
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


def _dense(cols: list[dict], rows: int) -> list[list[int]]:
    A = [[0] * len(cols) for _ in range(rows)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            A[r][c] = v
    return A


# --- integer Smith normal form with transforms ------------------------------


def smith_normal_form(A: list[list[int]]):
    """Return (diag, U, V, rank) with U*A*V diagonal, U and V unimodular.

    Diagonal entries are nonnegative and each divides the next.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
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


# --- reports ----------------------------------------------------------------


class HomologyReport(Record):
    """Per-degree homology groups, exact."""

    _fields = ("subject", "coeff", "max_deg", "groups")

    def __init__(self, subject: str, coeff: str, max_deg: int, groups: list | None = None):
        self.subject = subject
        self.coeff = coeff
        self.max_deg = max_deg
        self.groups = [] if groups is None else groups

    def to_json(self):
        return {
            "subject": self.subject,
            "coeff": self.coeff,
            "max_deg": self.max_deg,
            "groups": self.groups,
        }

    def lines(self):
        out = []
        for g in self.groups:
            n = g["degree"]
            if self.coeff == "f2":
                out.append(f"H_{n} (mod 2): dimension {g['dim']}")
            else:
                parts = ["Z"] * g["betti"] + [f"Z/{d}" for d in g["torsion"]]
                out.append(f"H_{n}: " + (" + ".join(parts) if parts else "0"))
        return out


def homology(X, coeff: str = "z", max_deg: Optional[int] = None, subject: str = "") -> HomologyReport:
    """Homology of the normalized chain complex up to ``max_deg``.

    ``coeff`` is "z" or "f2". Degrees above D - 1 are not determined by
    a D-truncation and raise `TruncationError`.
    """
    if coeff not in ("z", "f2"):
        raise ValueError(f"unknown coefficients {coeff!r}")
    if max_deg is None:
        max_deg = X.D - 1
    if max_deg > X.D - 1:
        raise TruncationError(f"degree {max_deg} needs level {max_deg + 1} cells, truncation is {X.D}")
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    top = max_deg + 1
    bases, pos = _nondeg_bases(X, top)
    cols = {n: _boundary_columns(X, n, bases[n], pos[n - 1]) for n in range(1, top + 1)}
    rep = HomologyReport(subject or getattr(X, "name", "") or "space", coeff, max_deg)
    for n in range(max_deg + 1):
        dim_n = len(bases[n])
        if coeff == "f2":
            rk_out = _F2Space(_f2_masks(cols[n])).dim if n >= 1 else 0
            rk_in = _F2Space(_f2_masks(cols[n + 1])).dim
            rep.groups.append({"degree": n, "dim": dim_n - rk_out - rk_in})
        else:
            if n >= 1:
                A = _dense(cols[n], len(bases[n - 1]))
                rk_out = smith_normal_form(A)[3] if bases[n - 1] and bases[n] else 0
            else:
                rk_out = 0
            Bm = _dense(cols[n + 1], dim_n)
            if bases[n + 1] and dim_n:
                diag, _, _, rk_in = smith_normal_form(Bm)
                torsion = [d for d in diag[:rk_in] if d > 1]
            else:
                rk_in, torsion = 0, []
            rep.groups.append(
                {"degree": n, "betti": dim_n - rk_out - rk_in, "torsion": torsion}
            )
    return rep


def _chain_matrix_columns(f: SimplicialMap, n: int, bases_A, pos_X) -> list[dict]:
    cols = []
    for x in bases_A:
        y = f.apply(n, x)
        r = pos_X.get(y)
        cols.append({} if r is None else {r: 1})
    return cols


def induced_chain_iso(f: SimplicialMap, coeff: str = "f2", max_deg: Optional[int] = None) -> CheckReport:
    """Check that a simplicial map induces homology isomorphisms.

    Verifies the normalized chain map commutes with boundaries, then
    per degree up to ``max_deg`` decides isomorphism exactly: over mod-2
    coefficients by dimension count plus surjectivity rank, over the
    integers by surjectivity and injectivity of the induced map between
    presented quotients. Witnesses carry the failing degree and the
    computed groups.
    """
    A, X = f.source, f.target
    if coeff not in ("z", "f2"):
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
    # chain-map property: boundary after f equals f after boundary, read
    # off the columns above; a column of fM is empty where f(x) is
    # degenerate and holds one entry otherwise
    for n in range(1, top + 1):
        for c, x in enumerate(bA[n]):
            lhs: dict[int, int] = {}
            for r in fM[n][c]:
                lhs = dX[n][r]
            rhs: dict[int, int] = {}
            for r, v in dA[n][c].items():
                for rr in fM[n - 1][r]:
                    rhs[rr] = rhs.get(rr, 0) + v
            if lhs != {k: v for k, v in rhs.items() if v}:
                check.verdict = "fail"
                check.witnesses.append(
                    {"reason": "not a chain map", "degree": n, "cell": x}
                )
                return check
    for n in range(max_deg + 1):
        if coeff == "f2":
            ok, info = _f2_degree_iso(n, bA, bX, dA, dX, fM)
        else:
            ok, info = _z_degree_iso(n, bA, bX, dA, dX, fM)
        check.bounds[f"H{n}"] = info
        if not ok:
            check.verdict = "fail"
            check.witnesses.append({"degree": n, **info})
    return check


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
