"""Structured results for validators and checkers.

Every check in the package funnels its outcome through one of two shapes:

* ``ValidationReport`` for structural validators (simplicial identities,
  functor laws, ...) that either pass or produce a list of violations,
  each pinned to the exact identity and cell that failed.
* ``CheckReport`` for higher-level verification routines that return a
  verdict plus witnesses (counts, cell names, search traces) and the
  bounds within which the verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Violation:
    """One failed identity.

    Parameters
    ----------
    identity : str
        Which law failed, e.g. ``"d_i d_j = d_{j-1} d_i"``.
    location : tuple
        Where it failed: indices (dimension, operator indices, cell).
    detail : str
        Human-readable expansion with both sides of the failed equation.
    """

    identity: str
    location: tuple
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "location": list(self.location),
            "detail": self.detail,
        }


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, identity: str, location: tuple, detail: str = "") -> None:
        self.violations.append(Violation(identity, location, detail))

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checked": self.checked,
            "violations": [v.to_json() for v in self.violations],
        }

    def raise_if_failed(self) -> None:
        if not self.ok:
            first = self.violations[0]
            raise ValueError(
                f"{self.subject}: {len(self.violations)} violation(s); "
                f"first: {first.identity} at {first.location} {first.detail}"
            )


@dataclass
class CheckReport:
    """Outcome of a verification routine.

    ``verdict`` is one of ``"pass"``, ``"fail"``, ``"inconclusive"``.
    ``bounds`` records the truncation levels within which the verdict is
    exact, so a pass is never silently extrapolated past stored data.
    """

    check: str
    verdict: str
    witnesses: list = field(default_factory=list)
    bounds: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "bounds": self.bounds,
        }
