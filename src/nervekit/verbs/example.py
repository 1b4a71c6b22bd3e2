"""``example``: the generator names, or the shape of one built example."""

from __future__ import annotations

from ..generators import example_names
from . import _homs
from ._shared import _as_relative, _maybe_artifact


def run(args, value, results: dict) -> bool:
    if value is None:
        results["available"] = list(example_names())
        return False
    R = _as_relative(value)
    results["objects"] = [str(o) for o in R.cat.objects]
    results["hom_levels"] = {f"{a},{b}": list(H.counts()) for (a, b), H in _homs(R.cat)}
    results["marked_cells"] = {
        f"{a},{b}": [len(R.sub_cells(a, b, n)) for n in range(R.cat.D + 1)]
        for (a, b) in sorted(R.sub.keys(), key=lambda p: (str(p[0]), str(p[1])))
    }
    _maybe_artifact(args, results, R)
    return False
