"""Truncated bisimplicial sets: the entry point of their diagonal.

``import nervekit`` loads this module because `diagonal` is one of the
functions a traced benchmark run wraps where it is defined
(``bench/trace_child.py`` ``TRACED``). The body of `diagonal` and
`BisimplicialSet` live in `nervekit.bisimplicial`, which loads when a
verb first builds a bisimplicial set.
"""

from __future__ import annotations


def diagonal(X: BisimplicialSet, name: str = "") -> SimplicialSet:
    """The diagonal simplicial set: level n is bidegree (n, n).

    Faces apply the horizontal then the vertical operator (the order is
    immaterial once the commutation squares hold); degeneracies dually.
    """
    from .bisimplicial import _diagonal

    return _diagonal(X, name)
