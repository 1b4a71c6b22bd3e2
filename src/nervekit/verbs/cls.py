"""``cls``: the classification diagram of a category with marked morphisms."""

from __future__ import annotations

from ..classification import classification_diagram
from ._shared import _as_relative, _marked_bidegrees, _marked_summary


def run(args, value, results: dict) -> bool:
    R = _as_relative(value)
    _marked_summary(args, results, classification_diagram(R, *_marked_bidegrees(args, R.cat.D)))
    return False
