"""Exact verification engine.

Everything here either passes exactly or fails with a witness; nothing
is sampled and nothing is approximated. This module holds the
point-set verifications of a single object: `pi0` and `horn_check`.
`homology` and `induced_chain_iso` (homology of a map) live in
`nervekit.homology`, and `consistency_check` (diagonal and
vertex-restriction routes) in `nervekit.nerves`. The checks no verb but
``uniq-check`` runs live in modules of their own, which ``import
nervekit`` does not load up front: `nervekit.segal`
(`segal_column_check`, the column formula and strict Segal pullback of
the levelwise nerve, and `fiber_check`, its hom fibers of column 1) and
`nervekit.uniqueness` (`uniqueness_search`, which enumerates every
natural family of functors from the path gadgets to the chain gadgets
up to a cosimplicial truncation).
"""

from __future__ import annotations

from .cat import _pi0_classes
from .reporting import CheckReport
from .sset import TruncationError, act_table, enumerate_maps, horn

__all__ = ["horn_check", "pi0"]


def pi0(X) -> list[list[int]]:
    """Partition of the vertices by the 1-cell endpoint relation.

    Classes are sorted internally and listed by smallest member.
    """
    roots = _pi0_classes(X)
    groups: dict[int, list[int]] = {}
    for v, r in enumerate(roots):
        groups.setdefault(r, []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _lab(X, n: int, x: int):
    lab = X.label(n, x)
    return x if lab is None else lab


def horn_check(X, n: int, k: int, max_witnesses: int = 8) -> CheckReport:
    """Does every map from the (n, k)-horn into X extend to an n-cell?

    All horn maps are enumerated by `enumerate_maps`. Every horn cell
    is a face or a degeneracy of a top nondegenerate one, a face d_j of
    the n-simplex with j != k, so a horn map is determined by its values
    on those faces, and an n-cell z fills h iff d_j z is the value of h
    on the face d_j for each of them. So the restrictions of the n-cells
    of X, each the tuple of those faces, are built once as a set (one
    single-face `act_table` per top horn cell), and h is fillable iff
    its value tuple on the same cells is in that set.
    The report gives fillability only, not the number of fillers.
    Failures are reported as labelled assignments on every
    nondegenerate horn cell.
    """
    if not 1 <= n <= X.D:
        raise TruncationError(f"horn extension at level {n} needs truncation >= {n}, have {X.D}")
    H = horn(n, k)
    top = H.nondegenerate_cells(n - 1)
    restrictions = set(zip(*(act_table(X, n, H.label(n - 1, c)) for c in top)))
    maps = enumerate_maps(H, X)
    nd = [(m, c) for m in range(H.D + 1) for c in H.nondegenerate_cells(m)]
    witnesses = []
    unfillable = 0
    for h in maps:
        if tuple(h.apply(n - 1, c) for c in top) not in restrictions:
            unfillable += 1
            if len(witnesses) < max_witnesses:
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
