"""Exact homology of truncated simplicial sets.

Chain groups are free on nondegenerate cells (normalized chains); the
boundary is the alternating face sum with degenerate targets dropped.
Integer homology uses a hand-rolled Smith normal form with transform
tracking, so kernels, solutions, and torsion come out exactly. Mod-2
homology uses bitmask Gaussian elimination.

A truncation at D determines boundaries only up to level D, so degree
n homology needs n <= D - 1; higher degrees raise `TruncationError`.

``import nervekit`` loads this module because a traced benchmark run
wraps its three entry points where they are defined
(``bench/trace_child.py`` ``TRACED``). Each imports its body when first
called: `homology`, with `HomologyReport`, from `nervekit.groups`;
`induced_chain_iso`, with the chains and mod-2 ranks both use, from
`nervekit.chains`; the Smith normal form, with the integer route, from
`nervekit.integer`.
"""

from __future__ import annotations

from typing import Optional

# The most entries the two dense transforms of `smith_normal_form` may
# hold together, rows² + cols². The largest matrix any test or pinned
# report reaches is 540 x 360 (421200), in the integer homology of the
# subdivided RP²; a boundary of bg:z2 in degree 4 has 63577 columns.
SNF_MAX_TRANSFORM_ENTRIES = 2_000_000


def smith_normal_form(A: list[list[int]]):
    """Return (diag, U, V, rank) with U*A*V diagonal, U and V unimodular.

    Diagonal entries are nonnegative and each divides the next. A matrix
    whose transforms would hold more than `SNF_MAX_TRANSFORM_ENTRIES`
    entries raises `TruncationError` before anything is allocated.
    """
    from .integer import _smith_normal_form

    return _smith_normal_form(A)


def homology(X, coeff: str = "z", max_deg: Optional[int] = None, subject: str = "") -> HomologyReport:
    """Homology of the normalized chain complex up to ``max_deg``.

    ``coeff`` is "z" or "f2". Degrees above D - 1 are not determined by
    a D-truncation and raise `TruncationError`. Over Z, a boundary
    whose Smith normal form is over the budget is refused before it is
    densified.
    """
    from .groups import _homology

    return _homology(X, coeff, max_deg, subject)


def induced_chain_iso(f: SimplicialMap, coeff: str = "f2", max_deg: Optional[int] = None) -> CheckReport:
    """Check that a simplicial map induces homology isomorphisms.

    Verifies the normalized chain map commutes with boundaries, then
    per degree up to ``max_deg`` decides isomorphism exactly: over mod-2
    coefficients by ranks, of the boundaries and of the mapping-cone
    block (a, x) -> (d a, f a + d x), over the integers by surjectivity
    and injectivity of the induced map between presented quotients.
    Witnesses carry the failing degree and the computed groups.
    """
    from .chains import _induced_chain_iso

    return _induced_chain_iso(f, coeff, max_deg)
