"""``theta``: the bidegree-wise comparison of the classification diagram with the nerve data."""

from __future__ import annotations

from ..classification import classification_comparison
from ._shared import _as_relative, _marked_bidegrees


def run(args, value, results: dict) -> bool:
    R = _as_relative(value)
    rep = classification_comparison(R, *_marked_bidegrees(args, R.cat.D))
    results["theta"] = rep.to_json()
    return not rep.ok
