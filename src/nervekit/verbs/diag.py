"""``diag``: the diagonal of a bisimplicial set, or of a category's levelwise nerve."""

from __future__ import annotations

from ..bisimplicial import BisimplicialSet
from ..bisset import diagonal
from ..cat import RelativeSimplicialCategory, SimplicialCategory
from ..marked import MarkedBisimplicialSet, diagonal_marked, levelwise_nerve_marked
from ..nerves import levelwise_nerve
from . import UsageError
from ._shared import _space_summary


def run(args, value, results: dict) -> bool:
    if isinstance(value, RelativeSimplicialCategory):
        value = levelwise_nerve_marked(value, value.cat.D, value.cat.D)
    elif isinstance(value, SimplicialCategory):
        value = levelwise_nerve(value, value.D, value.D)
    if isinstance(value, MarkedBisimplicialSet):
        Dg = diagonal_marked(value)
        results["marked_edges"] = len(Dg.marked)
        _space_summary(args, results, Dg.space)
    elif isinstance(value, BisimplicialSet):
        _space_summary(args, results, diagonal(value))
    else:
        raise UsageError("diag needs a bisimplicial set or category input")
    return False
