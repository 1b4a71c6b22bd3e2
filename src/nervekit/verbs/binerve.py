"""``binerve``: the levelwise nerve as a bisimplicial set, marked on a relative input."""

from __future__ import annotations

from ..cat import RelativeSimplicialCategory
from ..nerves import levelwise_nerve
from . import _as_cat
from ._shared import _bidegrees, _marked_summary, _maybe_artifact


def run(args, value, results: dict) -> bool:
    SC = _as_cat(value)
    P, Q = _bidegrees(args, SC.D, SC.D)
    if isinstance(value, RelativeSimplicialCategory):
        from ..marked import levelwise_nerve_marked

        _marked_summary(args, results, levelwise_nerve_marked(value, P, Q))
    else:
        B = levelwise_nerve(SC, P, Q)
        results["cells"] = [list(r) for r in B.counts()]
        _maybe_artifact(args, results, B)
    return False
