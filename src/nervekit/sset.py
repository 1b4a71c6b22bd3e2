"""Truncated simplicial sets with exact, table-backed operators.

The central class stores every cell of every level 0..D explicitly,
including degenerate ones, together with complete face and degeneracy
tables. Everything downstream (nerves, products, map enumeration,
homology) reduces to finite lookups in these tables, so all structural
laws can be checked exactly by enumeration.

Conventions
-----------
* Levels run 0..D inclusive. Requesting data beyond D raises
  ``TruncationError`` instead of guessing.
* Cells at each level are integers ``0..card(n)-1`` in a canonical
  order fixed by the builder.
* ``faces[n][i][x]`` is ``d_i(x)`` for ``x`` at level n >= 1,
  0 <= i <= n.
* ``degens[n][i][x]`` is ``s_i(x)`` for ``x`` at level n < D,
  0 <= i <= n.
* Equality of simplicial sets compares truncation, cardinalities and
  operator tables; labels are documentation and are ignored.
* Every nerve of a category (simplices, posets, `cat.nerve_cat`, the
  rows of `nerves.levelwise_nerve`) is built by `chain_index_nerve`.
* Which faces and degeneracies exist is `_families`, and the vertex
  map of each is `_vertex_map`; every validator, reader, writer and
  grid map reads them.

``import nervekit`` loads this module with what every verb runs: the
tables, `act_table`, the chain-index nerves, and the traced
`validate_map` and `enumerate_maps` (``bench/trace_child.py``
``TRACED``), whose bodies load from `nervekit.maps` and
`nervekit.horns` on first call. `validate_sset` lives in
`nervekit.axioms`, `PowerSset` in `nervekit.gadgets`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from operator import itemgetter
from typing import Optional, Sequence

from ._lazy import lazy


class TruncationError(Exception):
    """An operation needed simplicial data beyond the stored truncation."""


class _DegeneracyTest:
    """Degeneracy queries for any class with ``card``, ``face`` and ``degen``.

    `SimplicialSet` marks the images of its s_i rows instead, which is the
    same wherever d_{i+1} s_i = id, as on every valid set; the tests
    compare the two.
    """

    def is_degenerate(self, n: int, x: int) -> bool:
        # x is degenerate iff s_i(d_{i+1} x) == x for some i
        return any(self.degen(n - 1, i, self.face(n, i + 1, x)) == x for i in range(n))

    def nondegenerate_cells(self, n: int) -> list[int]:
        return [x for x in range(self.card(n)) if not self.is_degenerate(n, x)]

    def face_index(self, n: int, positions: Sequence[int] = ()) -> dict:
        """The cells of level n >= 1, ascending, keyed by their faces at
        ``positions`` (all by default) as ``itemgetter`` reads them."""
        key = itemgetter(*(positions or range(n + 1)))
        index: dict = {}
        for v in range(self.card(n)):
            index.setdefault(key([self.face(n, i, v) for i in range(n + 1)]), []).append(v)
        return index

    def face_map(self, n: int, i: int):
        """``d_i`` on level n as a function of the cell."""
        return partial(self.face, n, i)

    def degen_map(self, n: int, i: int):
        """``s_i`` on level n as a function of the cell."""
        return partial(self.degen, n, i)


class SimplicialSet(_DegeneracyTest):
    """A simplicial set truncated at level ``D``.

    Parameters
    ----------
    D : int
        Truncation level; cells and operators are stored for levels
        0..D. Degeneracies are stored for levels 0..D-1 (they land one
        level up).
    cards : sequence of int
        ``cards[n]`` is the number of cells at level n; length D+1.
    faces : sequence
        ``faces[n][i]`` is the table of ``d_i`` on level n, for
        1 <= n <= D. ``faces[0]`` must be empty.
    degens : sequence
        ``degens[n][i]`` is the table of ``s_i`` on level n, for
        0 <= n <= D-1. ``degens[D]`` must be empty.
    labels : sequence, optional
        ``labels[n][x]`` is an arbitrary printable tag for cell x at
        level n. Ignored by equality.
    name : str, optional
        Used in validation reports.

    The set owns the lists it is given, not copies: pass fresh lists or
    rows nothing mutates.
    """

    def __init__(self, D: int, cards, faces, degens, labels=None, name: str = ""):
        if D < 0:
            raise ValueError("truncation level must be >= 0")
        if len(cards) != D + 1:
            raise ValueError("cards must have length D+1")
        if len(faces) != D + 1 or len(degens) != D + 1:
            raise ValueError("faces and degens must have length D+1")
        self.D = D
        self.cards = [int(c) for c in cards]
        self.faces = faces
        self.degens = degens
        self.labels = labels
        self.name = name
        self._degenerate_flags: list[Optional[list[bool]]] = [None] * (D + 1)
        self._label_idx: list[Optional[dict]] = [None] * (D + 1)
        self._face_idx: dict[tuple[int, tuple[int, ...]], dict] = {}

    @classmethod
    def empty(cls, D: int, name: str = "empty") -> "SimplicialSet":
        z = [0] * (D + 1)
        faces, degens = ([[[] for _ in range(rows(n))] for n in range(D + 1)] for _, _, rows, _ in _families(D))
        return cls(D, z, faces, degens, labels=[[] for _ in z], name=name)

    def card(self, n: int) -> int:
        if n > self.D:
            raise TruncationError(f"level {n} beyond truncation {self.D}")
        return self.cards[n]

    def face(self, n: int, i: int, x: int) -> int:
        if n > self.D:
            raise TruncationError(f"level {n} beyond truncation {self.D}")
        return self.faces[n][i][x]

    def degen(self, n: int, i: int, x: int) -> int:
        if n >= self.D:
            raise TruncationError(f"degeneracy out of level {n} needs truncation > {n}")
        return self.degens[n][i][x]

    def face_map(self, n: int, i: int):
        """The lookup of the stored ``d_i`` row of level n."""
        if n > self.D:
            raise TruncationError(f"level {n} beyond truncation {self.D}")
        return self.faces[n][i].__getitem__

    def degen_map(self, n: int, i: int):
        """The lookup of the stored ``s_i`` row of level n."""
        if n >= self.D:
            raise TruncationError(f"degeneracy out of level {n} needs truncation > {n}")
        return self.degens[n][i].__getitem__

    def label(self, n: int, x: int):
        if self.labels is None:
            return None
        return self.labels[n][x]

    def index_of(self, n: int, label) -> int:
        """Index of the cell at level n carrying this label."""
        if self.labels is None:
            raise ValueError("simplicial set has no labels")
        if self._label_idx[n] is None:
            self._label_idx[n] = {l: i for i, l in enumerate(self.labels[n])}
        return self._label_idx[n][label]

    def is_degenerate(self, n: int, x: int) -> bool:
        return self._degenerate(n)[x]

    def nondegenerate_cells(self, n: int) -> list[int]:
        return [x for x, d in enumerate(self._degenerate(n)) if not d]

    def _degenerate(self, n: int) -> list[bool]:
        # per n-cell, whether an s_i row of level n - 1 hits it
        flags = self._degenerate_flags[n]
        if flags is None:
            flags = self._degenerate_flags[n] = [False] * self.cards[n]
            for row in self.degens[n - 1] if n else ():
                for y in row:
                    flags[y] = True
        return flags

    def face_index(self, n: int, positions: Sequence[int] = ()) -> dict:
        """`_DegeneracyTest.face_index` from the stored rows, built once per
        level and positions and shared by every caller: treat it as
        immutable."""
        if n > self.D:
            raise TruncationError(f"level {n} beyond truncation {self.D}")
        key = (n, tuple(positions))
        index = self._face_idx.get(key)
        if index is None:
            rows = [self.faces[n][i] for i in positions or range(n + 1)]
            index = self._face_idx[key] = {}
            for v, faces in enumerate(rows[0] if len(rows) == 1 else zip(*rows)):
                index.setdefault(faces, []).append(v)
        return index

    def counts(self) -> tuple[int, ...]:
        return tuple(self.cards)

    def nondeg_counts(self) -> tuple[int, ...]:
        return tuple(len(self.nondegenerate_cells(n)) for n in range(self.D + 1))

    def data_key(self):
        return (
            self.D,
            tuple(self.cards),
            tuple(tuple(tuple(r) for r in lvl) for lvl in self.faces),
            tuple(tuple(tuple(r) for r in lvl) for lvl in self.degens),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return self.data_key() == other.data_key()

    def __hash__(self):
        return hash(self.data_key())

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<SimplicialSet{tag} D={self.D} cards={self.cards}>"


def _families(D: int) -> tuple:
    """The operator families of a D-truncated simplicial set, as
    (kind, symbol, rows(n), step): d_i on levels n >= 1 and s_i on
    levels n < D, i = 0..n, landing at level n + step."""
    return ("face", "d", lambda n: n + 1 if n else 0, -1), ("degen", "s", lambda n: n + 1 if n < D else 0, 1)


def _vertex_map(n: int, i: int, step: int) -> tuple:
    """The vertex map [n + step] -> [n] of d_i (step -1) or s_i (step 1)
    on level n; the identity for step 0."""
    if step < 0:
        return tuple(t + (t >= i) for t in range(n))
    return tuple(t - (t > i) for t in range(n + 2)) if step else tuple(range(n + 1))


@lru_cache(maxsize=None)
def _factored(n: int, f: tuple) -> tuple:
    """The steps of ``f`` into [n], after checking it is monotone.

    Returns the faces and then the degeneracies, each a (level, index)
    pair in the order they apply. The degeneracies are found outermost
    first, at the first doubled position, so they apply innermost first.
    """
    m = len(f) - 1
    if m < 0:
        raise ValueError("operator must be nonempty")
    if any(f[t] > f[t + 1] for t in range(m)) or f[0] < 0 or f[-1] > n:
        raise ValueError(f"not a monotone map into [{n}]: {f}")
    image = set(f)
    g = list(f)
    faces = []
    k = n
    for j in range(n, -1, -1):
        if j in image:
            continue
        faces.append((k, j))
        k -= 1
        g = [v - 1 if v > j else v for v in g]
    degens = []
    while len(g) - 1 > k:
        t = next(t for t in range(len(g) - 1) if g[t] == g[t + 1])
        degens.append((len(g) - 2, t))
        del g[t + 1]
    return tuple(faces), tuple(reversed(degens))


def _steps(X, n: int, f: Sequence[int]) -> tuple:
    # ValueError for a bad operator comes before TruncationError
    f = tuple(f)
    steps = _factored(n, f)
    if len(f) - 1 > X.D:
        raise TruncationError(f"operator lands in level {len(f) - 1} beyond truncation {X.D}")
    return steps


def act_table(X, n: int, f: Sequence[int]) -> list[int]:
    """`act` of one operator on every n-cell, in cell order.

    Equals ``[act(X, n, x, f) for x in range(X.card(n))]`` and raises
    what `act` raises: it takes the same steps of `_factored`, cached
    per (n, f), and gathers the cells through each step's
    ``face_map``/``degen_map`` in turn, the stored rows of a
    `SimplicialSet` and the operators of a lazy one alike. So a sweep
    that applies the same operators to many targets, as `horn_check`
    does, factors each once. ``tests/test_sset.py`` compares both
    against a recursive factoring kept there as the oracle.
    """
    faces, degens = _steps(X, n, f)
    out = range(X.card(n))
    for k, j in faces:
        out = map(X.face_map(k, j), out)
    for k, t in degens:
        out = map(X.degen_map(k, t), out)
    return list(out)


def _extend(index: list[int], image, firsts, ends, offsets) -> list[int]:
    """A chain operator one level up from its table ``image``: x extended
    by the o-th morphism out of its end e goes to
    ``index[firsts[image[x]] + offsets[e][o]]``."""
    return [index[f + o] for f, e in zip(map(firsts.__getitem__, image), ends) for o in offsets[e]]


def chain_index_nerve(cards, comp, ids, D: int) -> tuple:
    """The nerve of a finite category by chain index, truncated at level D.

    Objects are 0..k-1, ``cards[a][b]`` counts the morphisms a -> b,
    ``comp(a, b, c)`` is the table sending g * cards[a][b] + f to the
    index of g∘f (f: a -> b, g: b -> c), called once per composable
    triple when D >= 2, and ``ids[a]`` indexes the identity of a.

    Level n + 1 extends each n-chain x in order by each c: e -> y out of
    its end e, at index first[x] + start[e][y] + c, start[e][y] counting
    the morphisms from e to objects before y. Every operator but
    d_{n-1}, d_n and s_n keeps the last morphism, so it extends its own
    table one level down (`_extend`); d_n is the prefix, d_{n-1}
    composes the last two morphisms and s_n appends an identity.

    Returns (counts, faces, degens, ends, firsts): cells per level, the
    tables as in `SimplicialSet`, and per level n < D each chain's end
    and first extension, ``firsts[n]`` ending with the count of n + 1.
    """
    k = len(cards)
    start = [list(itertools.accumulate(row, initial=0)) for row in cards]
    out = [s[-1] for s in start]
    targets = [[y for y, c in enumerate(row) for _ in range(c)] for row in cards]
    ends, firsts, counts = [list(range(k))], [], [k]
    for n in range(D):
        firsts.append(list(itertools.accumulate((out[e] for e in ends[n]), initial=0)))
        counts.append(firsts[n][-1])
        if n + 1 < D:
            ends.append([y for e in ends[n] for y in targets[e]])
    # offsets among the extensions of a chain ending at a: all of them,
    # the prefix, the identity of a, and two levels up the composite of
    # each pair a -> b -> c
    spans = [range(o) for o in out]
    prefix = [[0] * o for o in out]
    unit = [[start[a][a] + ids[a]] for a in range(k)]
    composites = []
    for a in range(k if D >= 2 else 0):
        row = []
        for b in range(k):
            if cards[a][b]:
                tables = [comp(a, b, c) if cards[b][c] else () for c in range(k)]
                row += [
                    start[a][c] + C[g * cards[a][b] + f]
                    for f in range(cards[a][b]) for c, C in enumerate(tables) for g in range(cards[b][c])
                ]
        composites.append(row)
    index = list(range(max(counts)))  # entries share one int object per index
    faces, degens = [[] for _ in range(D + 1)], [[] for _ in range(D + 1)]
    for n in range(D + 1):
        if n:
            faces[n] = [_extend(index, T, firsts[n - 2], ends[n - 1], spans) for T in faces[n - 1][: n - 1]]
            if n == 1:
                faces[n].append(_extend(index, range(k), [0] * k, ends[0], targets))
            else:
                faces[n].append(_extend(index, range(counts[n - 2]), firsts[n - 2], ends[n - 2], composites))
            faces[n].append(_extend(index, range(counts[n - 1]), index, ends[n - 1], prefix))
        if n < D:
            degens[n] = [_extend(index, T, firsts[n], ends[n - 1], spans) for T in degens[n - 1]] if n else []
            degens[n].append(_extend(index, range(counts[n]), firsts[n], ends[n], unit))
    return counts, faces, degens, ends, firsts


class SimplicialMap:
    """A levelwise map of truncated simplicial sets.

    Values are stored as explicit per-level tables, kept as given (not
    copied); `enumerate_maps` keeps packed vectors, read by `apply`
    (``values`` is None). ``fn(n, x)`` computes them only for the maps
    out of the lazy power homs of `gadgets._interval_transform`, too
    large to tabulate ((Δ⁴)⁴ has 70⁴ cells at level 3); a composite
    reads only the cells its other factor hits. ``L`` is the top level
    the map is defined on (defaults to the source truncation).
    """

    def __init__(self, source, target, values=None, fn=None, L: Optional[int] = None):
        if (values is None) == (fn is None):
            raise ValueError("exactly one of values, fn required")
        self.source = source
        self.target = target
        self.values = values
        self.fn = fn
        if L is None:
            L = source.D if values is None else len(values) - 1
        if L > source.D or L > target.D:
            raise TruncationError("map level exceeds a truncation")
        self.L = L

    def apply(self, n: int, x: int) -> int:
        if n > self.L:
            raise TruncationError(f"map not defined at level {n}")
        if self.values is not None:
            return self.values[n][x]
        return self.fn(n, x)

    def key(self):
        if self.values is not None:
            return tuple(tuple(self.values[n][: self.source.card(n)]) for n in range(self.L + 1))
        return tuple(tuple(self.apply(n, x) for x in range(self.source.card(n))) for n in range(self.L + 1))

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return self.L == other.L and self.key() == other.key()

    def __hash__(self):
        return hash((self.L, self.key()))

    def __repr__(self):
        return f"<SimplicialMap L={self.L}>"


def validate_map(f: SimplicialMap, subject: str = "map") -> ValidationReport:
    """Check that a map commutes with every face and degeneracy in range.

    Each square at (n, i) gathers, over the cells of A, f after the
    operator of A and the operator of X after f, through the operators'
    ``face_map``/``degen_map``, and compares the two in one pass; only
    the cells where they differ are evaluated again, for the message.
    Every cell of every square counts towards ``checked``.
    """
    from .maps import _validate_map

    return _validate_map(f, subject)


def enumerate_maps(A, X) -> list[SimplicialMap]:
    """All simplicial maps A -> X, in canonical order, by backtracking.

    It branches only on the maximal cells of A (nondegenerate and no
    face of a nondegenerate cell), top level first, with candidates
    from ``X.face_index(n, positions)`` keyed by the faces already
    assigned. A value chosen forces the cell's face closure through X's
    face tables: an unassigned face is set and its faces forced, an
    assigned one checked unless X's simplicial identities imply it, and
    a degenerate cell reached checked against its witness. A map keeps
    the cells so assigned; the others, degenerate, are filled from their
    witnesses when read. Maps come in lexicographic level-major order.
    """
    from .horns import _enumerate_maps

    return _enumerate_maps(A, X)


# ``bench/trace_child.py`` imports these two from here
__getattr__ = lazy(__name__, {"act": "spaces", "horn": "horns"})
