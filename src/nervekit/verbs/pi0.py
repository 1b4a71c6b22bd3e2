"""``pi0``: the path components of the input, of a category through its classifying space."""

from __future__ import annotations

from ..components import pi0
from ._shared import _space_of


def run(args, value, results: dict) -> bool:
    X = _space_of(value, results, lambda SC: SC.D)
    results["classes"] = pi0(X)
    results["count"] = len(results["classes"])
    return False
