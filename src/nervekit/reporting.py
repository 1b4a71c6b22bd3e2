"""Structured results for validators and checkers.

Every check in the package funnels its outcome through one of two shapes:

* ``ValidationReport`` for structural validators (simplicial identities,
  functor laws, ...) that either pass or produce a list of violations,
  each pinned to the exact identity and cell that failed.
* ``CheckReport`` for higher-level verification routines that return a
  verdict plus witnesses (counts, cell names, search traces) and the
  bounds within which the verdict is exact.

``Record`` and ``FrozenRecord`` give these and the package's other small
record classes field-wise equality, as ``dataclasses`` would, without
importing it: that module loads ``inspect``, ``dis``, ``ast`` and
``tokenize`` and costs about 15 ms of every ``nervekit`` process.
"""

from __future__ import annotations

from typing import Any


class Record:
    """Field-wise ``==`` and ``repr`` over the names in ``_fields``.

    Subclasses set their fields in ``__init__``. ``==`` holds between
    instances of the same class whose fields are equal and is
    ``NotImplemented`` for any other type. A record is mutable and
    unhashable unless it derives from `FrozenRecord`.
    """

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    """A `Record` whose fields cannot be reassigned; it hashes by its fields."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __hash__(self):
        return hash(self._values())


class Violation(FrozenRecord):
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

    _fields = ("identity", "location", "detail")

    def __init__(self, identity: str, location: tuple, detail: str = ""):
        super().__init__(identity=identity, location=location, detail=detail)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "location": list(self.location),
            "detail": self.detail,
        }


class ValidationReport(Record):
    _fields = ("subject", "violations", "checked")

    def __init__(self, subject: str, violations: list[Violation] | None = None, checked: int = 0):
        self.subject = subject
        self.violations = [] if violations is None else violations
        self.checked = checked

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, identity: str, location: tuple, detail: str = "") -> None:
        self.violations.append(Violation(identity, location, detail))

    def merge(self, sub: "ValidationReport", prefix: str) -> None:
        """Take over ``sub``'s checks and violations, each identity led by ``prefix``."""
        for v in sub.violations:
            self.add(prefix + v.identity, v.location, v.detail)
        self.checked += sub.checked

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


class CheckReport(Record):
    """Outcome of a verification routine.

    ``verdict`` is one of ``"pass"``, ``"fail"``, ``"inconclusive"``.
    ``bounds`` records the truncation levels within which the verdict is
    exact, so a pass is never silently extrapolated past stored data.
    """

    _fields = ("check", "verdict", "witnesses", "bounds")

    def __init__(self, check: str, verdict: str, witnesses: list | None = None,
                 bounds: dict[str, Any] | None = None):
        self.check = check
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses
        self.bounds = {} if bounds is None else bounds

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
