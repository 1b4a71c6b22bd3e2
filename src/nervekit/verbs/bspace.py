"""``bspace``: the classifying space, the diagonal of the levelwise nerve."""

from __future__ import annotations

from ..nerves import classifying_space
from . import _as_cat, _level_bound
from ._shared import _nerve_summary


def run(args, value, results: dict) -> bool:
    SC = _as_cat(value)
    _nerve_summary(args, results, classifying_space(SC, _level_bound(args, SC.D)))
    return False
