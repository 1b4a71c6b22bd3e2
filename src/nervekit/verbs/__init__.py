"""The verbs' handlers, one module per verb: `nervekit.cli` imports
``nervekit.verbs.<verb>`` (``uniq_check`` for ``uniq-check``) after
parsing, so a run compiles only its own verb. A handler is
``run(args, value, results) -> bool``: it fills ``results`` from the
loaded input ``value`` (None for ``uniq-check`` and for ``example``
without ``--example``) and returns whether a check failed.

Here: the errors the driver maps to exit codes, and the input
coercions most verbs read. `nervekit.verbs._shared` holds what several
verbs share.
"""

from __future__ import annotations

from ..cat import RelativeSimplicialCategory, SimplicialCategory
from ..sset import SimplicialSet, TruncationError


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _as_cat(value) -> SimplicialCategory:
    if isinstance(value, RelativeSimplicialCategory):
        return value.cat
    if isinstance(value, SimplicialCategory):
        return value
    raise UsageError("this command needs a simplicial category input")


def _as_sset(value) -> SimplicialSet:
    if isinstance(value, SimplicialSet):
        return value
    raise UsageError("this command needs a simplicial set input")


def _level_bound(args, D: int, ceiling: int | None = None) -> int:
    L = args.max_dim if args.max_dim is not None else D
    top = D if ceiling is None else ceiling
    if not 0 <= L <= top:
        raise TruncationError(f"level bound {L} outside 0..{top}")
    return L


def _homs(SC: SimplicialCategory) -> list:
    """The ((a, b), hom) pairs of ``SC``, ordered by ``str((a, b))``."""
    return sorted(SC.homs.items(), key=lambda kv: str(kv[0]))
