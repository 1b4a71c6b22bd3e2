"""Uniqueness of the comparison functors, by brute-force search.

`uniqueness_search` enumerates every natural family of functors from
the path gadgets to the chain gadgets up to a cosimplicial truncation;
`uniqueness_report` compares what it finds with the canonical family of
`comparison_functor`. Only the ``uniq-check`` verb needs this module,
so ``import nervekit`` does not load it up front: the package resolves
its public names on first use.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .cat import comparison_functor, compose_functors
from .functors import functors_equal
from .gadgets import (
    coherent_path_category,
    enumerate_simplicial_functors,
    path_functor,
    simplex_power_category,
    simplex_power_transform,
)
from .reporting import CheckReport


def _monotone_maps(a: int, b: int):
    return list(itertools.combinations_with_replacement(range(b + 1), a + 1))


def uniqueness_search(N: int, D: Optional[int] = None) -> list[tuple]:
    """All natural families of functors from path gadgets to chain gadgets.

    A family assigns to each n <= N a simplicial functor from
    `coherent_path_category(n, D)` to `simplex_power_category(n, D)`;
    naturality is required against every monotone map between [a] and
    [b] for a, b <= N, pre- and postcomposed through `path_functor`
    and `simplex_power_transform`. The search is exhaustive over all
    functors per degree, so it is only feasible at desk scale (N <= 2).
    """
    if N < 1:
        raise ValueError("need cosimplicial degree at least 1")
    if D is None:
        D = N
    candidates = [
        enumerate_simplicial_functors(coherent_path_category(n, D), simplex_power_category(n, D))
        for n in range(N + 1)
    ]
    squares = [
        (a, b, f, path_functor(f, a, b, D), simplex_power_transform(f, a, b, D))
        for a in range(N + 1)
        for b in range(N + 1)
        for f in _monotone_maps(a, b)
    ]
    families = []
    for combo in itertools.product(*candidates):
        if all(
            functors_equal(compose_functors(combo[b], up), compose_functors(right, combo[a]))
            for a, b, f, up, right in squares
        ):
            families.append(combo)
    return families


def uniqueness_report(N: int, D: Optional[int] = None) -> CheckReport:
    """Report form of `uniqueness_search`, compared against the canonical family."""
    if D is None:
        D = N
    families = uniqueness_search(N, D)
    expected = tuple(comparison_functor(n, D) for n in range(N + 1))
    matches = [
        fam for fam in families if all(functors_equal(g, e) for g, e in zip(fam, expected))
    ]
    verdict = "pass" if len(families) == 1 and len(matches) == 1 else "fail"
    witnesses = []
    if verdict == "fail":
        for fam in families[:4]:
            witnesses.append([g.vertex_signature() for g in fam])
    return CheckReport(
        check=f"uniqueness at truncation {N}",
        verdict=verdict,
        witnesses=witnesses,
        bounds={
            "N": N,
            "D": D,
            "families": len(families),
            "canonical_found": len(matches),
        },
    )
