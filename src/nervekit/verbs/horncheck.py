"""``horncheck``: every horn up to the bound, of the input or of each hom of a category."""

from __future__ import annotations

from ..cat import RelativeSimplicialCategory, SimplicialCategory
from ..verify import horn_check
from . import _as_cat, _as_sset, _homs


def run(args, value, results: dict) -> bool:
    if isinstance(value, (RelativeSimplicialCategory, SimplicialCategory)):
        targets = [(f"hom({a},{b})", H) for (a, b), H in _homs(_as_cat(value))]
    else:
        targets = [("input", _as_sset(value))]
    results["horns"] = []
    failed = False
    for tag, X in targets:
        bound = min(args.max_dim if args.max_dim is not None else 3, X.D)
        for n in range(1, bound + 1):
            for k in range(n + 1):
                rep = horn_check(X, n, k)
                results["horns"].append({"subject": tag, **rep.to_json()})
                failed = failed or not rep.ok
    return failed
