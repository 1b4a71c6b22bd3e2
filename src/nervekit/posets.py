"""Finite posets and the path posets.

`FinitePoset` keeps its elements in the given order, which fixes the
cell order of `gadgets.poset_nerve`; `path_poset(i, j)` is the poset of
subsets of {i..j} containing both ends, the hom of the path gadgets
and the index set of the comparison cell formulas. The ordinary
category of a poset, `poset_category`, lives in `nervekit.discrete`;
its nerve `poset_nerve` and the map of chain nerves `vertex_induced_map`
live in `nervekit.gadgets`. `compare` reads only `path_poset`.

``import nervekit`` does not load this module up front: the package
resolves its names from here on first use, so only a verb that reads
a poset (a ``discrete:`` or ``poset:`` example, the comparison cell
formulas, the gadgets) compiles it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence


class FinitePoset:
    """A finite poset given by generating relations.

    Elements keep their given order (used for canonical cell order in
    the nerve). The reflexive-transitive closure of the relations is
    computed up front; antisymmetry failures raise ``ValueError``.
    """

    def __init__(self, elements: Sequence, relations=()):
        self.elements = list(elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        if len(self._idx) != len(self.elements):
            raise ValueError("duplicate poset elements")
        m = len(self.elements)
        leq = [[i == j for j in range(m)] for i in range(m)]
        for a, b in relations:
            leq[self._idx[a]][self._idx[b]] = True
        for k in range(m):
            for i in range(m):
                if leq[i][k]:
                    row_i, row_k = leq[i], leq[k]
                    for j in range(m):
                        if row_k[j]:
                            row_i[j] = True
        for i in range(m):
            for j in range(i + 1, m):
                if leq[i][j] and leq[j][i]:
                    raise ValueError(
                        f"antisymmetry fails: {self.elements[i]!r} and {self.elements[j]!r}"
                    )
        self._leq = leq

    def __len__(self):
        return len(self.elements)

    def index(self, e) -> int:
        return self._idx[e]

    def leq(self, a, b) -> bool:
        return self._leq[self._idx[a]][self._idx[b]]


@lru_cache(maxsize=None)
def path_poset(i: int, j: int) -> FinitePoset:
    """Subsets of {i..j} with min i and max j, ordered by inclusion.

    Elements are sorted tuples, listed by (size, lexicographic).
    """
    if i > j:
        raise ValueError("empty interval")
    interior = list(range(i + 1, j))
    elements = []
    for r in range(len(interior) + 1):
        for extra in itertools.combinations(interior, r):
            elements.append(tuple(sorted(set((i, j)) | set(extra))))
    elements.sort(key=lambda s: (len(s), s))
    rels = [
        (s, t) for s in elements for t in elements if set(s) <= set(t)
    ]
    return FinitePoset(elements, rels)
