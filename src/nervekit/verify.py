"""Exact verification engine: `horn_check`.

Everything here either passes exactly or fails with a witness; nothing
is sampled and nothing is approximated. ``import nervekit`` loads this
module because a traced benchmark run wraps `horn_check` where it is
defined (``bench/trace_child.py`` ``TRACED``). `pi0` lives in
`nervekit.components`, the homology checks in `nervekit.homology`,
`consistency_check` in `nervekit.nerves`, the whole-object validators
in `nervekit.axioms`, the Segal and fiber checks in `nervekit.segal`
and the uniqueness search in `nervekit.uniqueness`; each loads only in
a verb that runs it.
"""

from __future__ import annotations

from operator import itemgetter

from .reporting import CheckReport
from .sset import TruncationError, act_table, enumerate_maps

__all__ = ["horn_check"]


def _lab(X, n: int, x: int):
    lab = X.label(n, x)
    return x if lab is None else lab


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
    if not 1 <= n <= X.D:
        raise TruncationError(f"horn extension at level {n} needs truncation >= {n}, have {X.D}")
    from .horns import horn

    H = horn(n, k)
    faces = [tuple(i for i in range(n + 1) if i != j) for j in range(n + 1) if j != k]
    cols = [act_table(X, n, f) for f in faces]
    # one top cell (n = 1) reads as a value, several as a tuple
    restrictions = set(zip(*cols) if len(cols) > 1 else cols[0])
    read = itemgetter(*(H.index_of(n - 1, f) for f in faces))
    maps = enumerate_maps(H, X)
    nd = None  # the horn's nondegenerate cells, listed at the first witness
    witnesses = []
    unfillable = 0
    for h in maps:
        if read(h.values[n - 1]) not in restrictions:
            unfillable += 1
            if len(witnesses) < max_witnesses:
                if nd is None:
                    nd = [(m, c) for m in range(H.D + 1) for c in H.nondegenerate_cells(m)]
                witnesses.append(
                    {
                        "assignment": [
                            (H.label(m, c), _lab(X, m, h.apply(m, c))) for m, c in nd
                        ]
                    }
                )
    return CheckReport(
        check=f"horn({n},{k}) extension in {X.name or 'sset'}",
        verdict="pass" if unfillable == 0 else "fail",
        witnesses=witnesses,
        bounds={"n": n, "k": k, "horn_maps": len(maps), "unfillable": unfillable},
    )
