"""Homology groups: `HomologyReport` and the body of `homology.homology`.

`nervekit.homology` imports `_homology` from here when `homology` is
first called, so only a verb that computes homology groups compiles
this module (`compare` checks its chain isomorphism in
`nervekit.chains` and never does). It binds the traced
`homology.smith_normal_form` when it loads, so a traced run sees the
eliminations of the integer route nested in their entry point.
"""

from __future__ import annotations

from typing import Optional

from .chains import _boundary_columns, _f2_masks, _f2_rank, _nondeg_bases
from .homology import smith_normal_form
from .reporting import Record
from .sset import TruncationError


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


def _homology(X, coeff: str, max_deg: Optional[int], subject: str) -> HomologyReport:
    # the body of `homology.homology`
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
        # each boundary eliminated once; d_0 is zero
        ranks = [0] + [_f2_rank(_f2_masks(cols[n])) for n in range(1, top + 1)]
    else:
        from .integer import _check_snf_budget, _dense

        def boundary_snf(n):
            rows = len(bases[n - 1])
            _check_snf_budget(rows, len(bases[n]))
            return smith_normal_form(_dense(cols[n], rows))

    for n in range(max_deg + 1):
        dim_n = len(bases[n])
        if coeff == "f2":
            rep.groups.append({"degree": n, "dim": dim_n - ranks[n] - ranks[n + 1]})
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
