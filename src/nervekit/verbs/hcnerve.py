"""``hcnerve``: the homotopy coherent nerve, up to level D + 1."""

from __future__ import annotations

from ..nerves import coherent_nerve
from . import _as_cat, _level_bound
from ._shared import _nerve_summary


def run(args, value, results: dict) -> bool:
    SC = _as_cat(value)
    _nerve_summary(args, results, coherent_nerve(SC, _level_bound(args, SC.D, ceiling=SC.D + 1)))
    return False
