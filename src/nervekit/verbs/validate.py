"""``validate``: the axiom checks for whatever document kind the input is."""

from __future__ import annotations

from ..axioms import validate_bisset, validate_relative, validate_simplicial_category, validate_sset
from ..bisimplicial import BisimplicialSet
from ..cat import RelativeSimplicialCategory, SimplicialCategory
from ..marked import MarkedBisimplicialSet


def run(args, value, results: dict) -> bool:
    reps = []
    if isinstance(value, RelativeSimplicialCategory):
        reps.append(validate_relative(value))
    elif isinstance(value, SimplicialCategory):
        reps.append(validate_simplicial_category(value))
    elif isinstance(value, MarkedBisimplicialSet):
        reps.append(validate_bisset(value.space))
        reps.append(value.validate())
    elif isinstance(value, BisimplicialSet):
        reps.append(validate_bisset(value))
    else:
        reps.append(validate_sset(value, subject="input"))
    results["validation"] = [r.to_json() for r in reps]
    return any(not r.ok for r in reps)
