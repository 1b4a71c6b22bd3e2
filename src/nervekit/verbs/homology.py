"""``homology``: homology of the input, of a category through its classifying space."""

from __future__ import annotations

from ..homology import homology
from ..sset import TruncationError
from . import _level_bound
from ._shared import _space_of


def run(args, value, results: dict) -> bool:
    X = _space_of(value, results, lambda SC: _level_bound(args, SC.D))
    if args.max_dim is not None and args.max_dim < 0:
        raise TruncationError(f"degree bound {args.max_dim} is negative")
    # degrees above X.D - 1 lack the boundary needed for an exact answer
    exact = max(X.D - 1, 0)
    max_deg = min(args.max_dim, exact) if args.max_dim is not None else exact
    results["homology"] = homology(X, coeff=args.coeff, max_deg=max_deg).to_json()
    return False
