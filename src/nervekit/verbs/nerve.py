"""``nerve``: the ordinary nerve of the underlying category at simplicial level zero."""

from __future__ import annotations

from ..cat import nerve_cat
from ..discrete import level_category
from . import _as_cat, _level_bound
from ._shared import _nerve_summary


def run(args, value, results: dict) -> bool:
    SC = _as_cat(value)
    L = _level_bound(args, SC.D)
    _nerve_summary(args, results, nerve_cat(level_category(SC, 0), L))
    return False
