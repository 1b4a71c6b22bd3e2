"""What several verbs share: the summaries of built objects, the
bidegree bounds, and the space a homotopy invariant is read from."""

from __future__ import annotations

from ..cat import RelativeSimplicialCategory, SimplicialCategory
from ..nerves import classifying_space
from ..serialize import to_json
from ..sset import SimplicialSet, TruncationError
from . import UsageError, _as_cat, _as_sset


def _as_relative(value) -> RelativeSimplicialCategory:
    if isinstance(value, RelativeSimplicialCategory):
        return value
    raise UsageError("this command needs a relative (marked) category input")


def _bidegrees(args, P: int, Q: int) -> tuple[int, int]:
    """The bounds (P, Q) from --cols and --rows, defaulting to the given ones."""
    P = args.cols if args.cols is not None else P
    Q = args.rows if args.rows is not None else Q
    if P < 0 or Q < 0:
        raise TruncationError(f"bidegree bound ({P},{Q}) is negative")
    return P, Q


def _marked_bidegrees(args, D: int) -> tuple[int, int]:
    """`_bidegrees` for the marked verbs: marked constructions need a
    column, so the default is P = max(D // 2, 1) and Q = D - P."""
    P = max(D // 2, 1)
    return _bidegrees(args, P, D - P)


def _maybe_artifact(args, results: dict, value) -> None:
    if args.emit_cells:
        results["artifact"] = to_json(value)


def _space_summary(args, results: dict, X) -> None:
    """The level counts of a built simplicial set, and its tables with --emit-cells."""
    results["levels"] = list(X.counts())
    _maybe_artifact(args, results, X)


def _nerve_summary(args, results: dict, X) -> None:
    """`_space_summary` of a built nerve, with its nondegenerate cells per level."""
    results["nondegenerate"] = list(X.nondeg_counts())
    _space_summary(args, results, X)


def _marked_summary(args, results: dict, M) -> None:
    """The cell counts of a marked bisimplicial set, its marked cells per
    row, and its tables with --emit-cells."""
    results["cells"] = [list(r) for r in M.space.counts()]
    results["marked"] = [sum(1 for (q, _) in M.marked if q == qq) for qq in range(M.space.Q + 1)]
    _maybe_artifact(args, results, M)


def _space_of(value, results: dict, level) -> SimplicialSet:
    """A simplicial set input, or the classifying space of a category
    input up to level ``level(SC)``."""
    if isinstance(value, (RelativeSimplicialCategory, SimplicialCategory)):
        SC = _as_cat(value)
        value = classifying_space(SC, level(SC))
        results["space"] = "classifying space"
    return _as_sset(value)
