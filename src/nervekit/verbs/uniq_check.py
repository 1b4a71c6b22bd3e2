"""``uniq-check``: every simplicial functor matching the comparison family, enumerated."""

from __future__ import annotations

from ..uniqueness import uniqueness_report
from . import UsageError


def run(args, value, results: dict) -> bool:
    if args.max_cosimplicial < 1:
        raise UsageError(f"--max-cosimplicial {args.max_cosimplicial} must be at least 1")
    rep = uniqueness_report(args.max_cosimplicial)
    results["uniqueness"] = rep.to_json()
    return not rep.ok
