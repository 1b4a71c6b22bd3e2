"""Exact verification engine: `horn_check`.

Everything here either passes exactly or fails with a witness; nothing
is sampled and nothing is approximated. ``import nervekit`` loads this
module because a traced benchmark run wraps `horn_check` where it is
defined (``bench/trace_child.py`` ``TRACED``); it keeps the signature
and docstring, and its body loads from `nervekit.horns` when first
called, so `compare` compiles neither. `pi0` lives in
`nervekit.components`, the homology checks in `nervekit.homology`,
`consistency_check` in `nervekit.nerves`, the whole-object validators
in `nervekit.axioms`, the Segal and fiber checks in `nervekit.segal`
and the uniqueness search in `nervekit.uniqueness`; each loads only in
a verb that runs it.
"""

from __future__ import annotations

__all__ = ["horn_check"]


def horn_check(X, n: int, k: int, max_witnesses: int = 8) -> CheckReport:
    """Does every map from the (n, k)-horn into X extend to an n-cell?

    All horn maps are enumerated by `enumerate_maps`, which branches on
    the top horn cells, the faces d_j of the n-simplex with j != k, and
    forces the rest. So an n-cell z fills h iff d_j z is the value of h
    on the face d_j for each of them. The restrictions of the n-cells
    of X, each the tuple of those faces, are built once as a set (one
    single-face `act_table` per top horn cell), and h is fillable iff
    its values on those cells, one `itemgetter` read, are in that set.
    The report gives fillability only, not the number of fillers.
    Failures are reported as labelled assignments on every
    nondegenerate horn cell.
    """
    from .horns import _horn_check

    return _horn_check(X, n, k, max_witnesses)
