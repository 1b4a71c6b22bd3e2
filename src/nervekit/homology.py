"""Exact homology of truncated simplicial sets.

Chain groups are free on nondegenerate cells (normalized chains); the
boundary is the alternating face sum with degenerate targets dropped.
Integer homology uses a hand-rolled Smith normal form with transform
tracking, so kernels, solutions, and torsion come out exactly. Mod-2
homology uses bitmask Gaussian elimination.

A truncation at D determines boundaries only up to level D, so degree
n homology needs n <= D - 1; higher degrees raise `TruncationError`.

This module holds the entry points, `homology`, `induced_chain_iso`
and `smith_normal_form`. The kernels they run load when first called:
the bases, boundary and chain-map columns and mod-2 elimination from
`nervekit.chains`, and the dense matrices and exact solves of the
integer route from `nervekit.integer`, only when the coefficients are Z.
"""

from __future__ import annotations

from typing import Optional

from .reporting import CheckReport, Record
from .sset import SimplicialMap, TruncationError


# --- integer Smith normal form with transforms ------------------------------

# The most entries the two dense transforms of `smith_normal_form` may
# hold together, rows² + cols². The largest matrix any test or pinned
# report reaches is 540 x 360 (421200), in the integer homology of the
# subdivided RP²; a boundary of bg:z2 in degree 4 has 63577 columns.
SNF_MAX_TRANSFORM_ENTRIES = 2_000_000


def _check_snf_budget(rows: int, cols: int) -> None:
    """Refuse a rows x cols Smith normal form whose transforms would hold
    more than `SNF_MAX_TRANSFORM_ENTRIES` entries; callers check the shape
    before they build the dense matrix."""
    if rows * rows + cols * cols > SNF_MAX_TRANSFORM_ENTRIES:
        raise TruncationError(
            f"Smith normal form of a {rows} x {cols} matrix needs {rows * rows + cols * cols} transform "
            f"entries, above the budget of {SNF_MAX_TRANSFORM_ENTRIES}"
        )


def smith_normal_form(A: list[list[int]]):
    """Return (diag, U, V, rank) with U*A*V diagonal, U and V unimodular.

    Diagonal entries are nonnegative and each divides the next. A matrix
    whose transforms would hold more than `SNF_MAX_TRANSFORM_ENTRIES`
    entries raises `TruncationError` before anything is allocated.
    """
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


# --- homology and chain isomorphisms ----------------------------------------


def homology(X, coeff: str = "z", max_deg: Optional[int] = None, subject: str = "") -> HomologyReport:
    """Homology of the normalized chain complex up to ``max_deg``.

    ``coeff`` is "z" or "f2". Degrees above D - 1 are not determined by
    a D-truncation and raise `TruncationError`. Over Z, a boundary
    whose Smith normal form is over the budget is refused before it is
    densified.
    """
    from .chains import _boundary_columns, _nondeg_bases

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
    if coeff == "f2":
        from .chains import _F2Space, _f2_masks
    else:
        from .integer import _dense

        def boundary_snf(n):
            rows = len(bases[n - 1])
            _check_snf_budget(rows, len(bases[n]))
            return smith_normal_form(_dense(cols[n], rows))

    for n in range(max_deg + 1):
        dim_n = len(bases[n])
        if coeff == "f2":
            rk_out = _F2Space(_f2_masks(cols[n])).dim if n >= 1 else 0
            rk_in = _F2Space(_f2_masks(cols[n + 1])).dim
            rep.groups.append({"degree": n, "dim": dim_n - rk_out - rk_in})
        else:
            rk_out = boundary_snf(n)[3] if n >= 1 and bases[n - 1] and bases[n] else 0
            if bases[n + 1] and dim_n:
                diag, _, _, rk_in = boundary_snf(n + 1)
                torsion = [d for d in diag[:rk_in] if d > 1]
            else:
                rk_in, torsion = 0, []
            rep.groups.append(
                {"degree": n, "betti": dim_n - rk_out - rk_in, "torsion": torsion}
            )
    return rep


def induced_chain_iso(f: SimplicialMap, coeff: str = "f2", max_deg: Optional[int] = None) -> CheckReport:
    """Check that a simplicial map induces homology isomorphisms.

    Verifies the normalized chain map commutes with boundaries, then
    per degree up to ``max_deg`` decides isomorphism exactly: over mod-2
    coefficients by dimension count plus surjectivity rank, over the
    integers by surjectivity and injectivity of the induced map between
    presented quotients. Witnesses carry the failing degree and the
    computed groups.
    """
    from .chains import _boundary_columns, _chain_matrix_columns, _nondeg_bases

    A, X = f.source, f.target
    if coeff == "f2":
        from .chains import _f2_degree_iso as degree_iso
    elif coeff == "z":
        from .integer import _z_degree_iso as degree_iso
    else:
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
        ok, info = degree_iso(n, bA, bX, dA, dX, fM)
        check.bounds[f"H{n}"] = info
        if not ok:
            check.verdict = "fail"
            check.witnesses.append({"degree": n, **info})
    return check
