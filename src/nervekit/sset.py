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

`validate_sset`, the check of every simplicial identity, lives in
`nervekit.axioms`, and the lazy power `PowerSset` in `nervekit.gadgets`;
both load on first use. `validate_map` stays here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from operator import itemgetter, ne
from typing import Any, Optional, Sequence

from .reporting import Record, ValidationReport


class TruncationError(Exception):
    """An operation needed simplicial data beyond the stored truncation."""


class _DegeneracyTest:
    """Degeneracy queries for any class with ``card``, ``face`` and ``degen``."""

    def is_degenerate(self, n: int, x: int) -> bool:
        # x is degenerate iff s_i(d_{i+1} x) == x for some i
        return any(self.degen(n - 1, i, self.face(n, i + 1, x)) == x for i in range(n))

    def nondegenerate_cells(self, n: int) -> list[int]:
        return [x for x in range(self.card(n)) if not self.is_degenerate(n, x)]

    def face_index(self, n: int) -> dict:
        """The cells of level n >= 1 keyed by their face tuple, each list ascending."""
        index: dict[tuple[int, ...], list[int]] = {}
        for v in range(self.card(n)):
            index.setdefault(tuple(self.face(n, i, v) for i in range(n + 1)), []).append(v)
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
        self.faces = [[list(row) for row in faces[n]] for n in range(D + 1)]
        self.degens = [[list(row) for row in degens[n]] for n in range(D + 1)]
        self.labels = None if labels is None else [list(l) for l in labels]
        self.name = name
        self._nondeg: list[Optional[list[bool]]] = [None] * (D + 1)
        self._label_idx: list[Optional[dict]] = [None] * (D + 1)
        self._face_idx: list[Optional[dict]] = [None] * (D + 1)

    @classmethod
    def empty(cls, D: int, name: str = "empty") -> "SimplicialSet":
        z = [0] * (D + 1)
        faces = [[[] for _ in range(n + 1)] if n else [] for n in range(D + 1)]
        degens = [[[] for _ in range(n + 1)] if n < D else [] for n in range(D + 1)]
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
        flags = self._nondeg[n]
        if flags is None:
            test = super().is_degenerate
            flags = self._nondeg[n] = [test(n, y) for y in range(self.cards[n])]
        return flags[x]

    def face_index(self, n: int) -> dict:
        """`_DegeneracyTest.face_index`, built once per level and shared by
        every caller: treat it as immutable."""
        if n > self.D:
            raise TruncationError(f"level {n} beyond truncation {self.D}")
        if self._face_idx[n] is None:
            self._face_idx[n] = super().face_index(n)
        return self._face_idx[n]

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


def materialize(V, name: str = "") -> SimplicialSet:
    """Copy any cell-table interface (e.g. a lazy view) into explicit tables."""
    D = V.D
    cards = [V.card(n) for n in range(D + 1)]
    faces = [[] for _ in range(D + 1)]
    degens = [[] for _ in range(D + 1)]
    for n in range(1, D + 1):
        faces[n] = [[V.face(n, i, x) for x in range(cards[n])] for i in range(n + 1)]
    for n in range(D):
        degens[n] = [[V.degen(n, i, x) for x in range(cards[n])] for i in range(n + 1)]
    labels = None
    if getattr(V, "labels", None) is not None or hasattr(V, "label"):
        try:
            labels = [[V.label(n, x) for x in range(cards[n])] for n in range(D + 1)]
        except (ValueError, NotImplementedError):
            labels = None
    if labels is not None and all(l is None for lvl in labels for l in lvl):
        labels = None
    return SimplicialSet(D, cards, faces, degens, labels=labels, name=name or getattr(V, "name", ""))


class ProductSset(_DegeneracyTest):
    """Lazy levelwise product of two cell-table interfaces.

    The pair (a, b) at level n is the single index a * B.card(n) + b,
    so the first factor is the major digit. Operators act
    componentwise.
    """

    def __init__(self, A, B, name: str = ""):
        self.A = A
        self.B = B
        self.D = min(A.D, B.D)
        self.name = name

    def card(self, n: int) -> int:
        return self.A.card(n) * self.B.card(n)

    def split(self, n: int, x: int) -> tuple[int, int]:
        b = self.B.card(n)
        return x // b, x % b

    def pair(self, n: int, a: int, b: int) -> int:
        return a * self.B.card(n) + b

    def face(self, n: int, i: int, x: int) -> int:
        a, b = self.split(n, x)
        return self.A.face(n, i, a) * self.B.card(n - 1) + self.B.face(n, i, b)

    def degen(self, n: int, i: int, x: int) -> int:
        a, b = self.split(n, x)
        return self.A.degen(n, i, a) * self.B.card(n + 1) + self.B.degen(n, i, b)

    def label(self, n: int, x: int):
        a, b = self.split(n, x)
        la, lb = self.A.label(n, a), self.B.label(n, b)
        if la is None and lb is None:
            return None
        return (la, lb)


def product(X, Y, name: str = "") -> SimplicialSet:
    """Materialized levelwise product."""
    return materialize(ProductSset(X, Y), name=name)


def act(X, n: int, x: int, f: Sequence[int]) -> int:
    """Apply an arbitrary monotone operator to a cell.

    ``f`` is a weakly increasing tuple of length m+1 with values in
    0..n, read as a map [m] -> [n]; the result is the image of ``x``
    under the induced map level n -> level m. The operator is factored
    into faces (one per value missing from the image, largest first)
    followed by degeneracies (doubled positions, smallest first), which
    is exactly the unique surjection-after-injection factorization
    (`_factored`). ``tests/test_sset.py`` keeps a recursive
    factoring and a label formula as oracles.
    """
    faces, degens = _steps(X, n, f)
    for k, j in faces:
        x = X.face(k, j, x)
    for k, t in degens:
        x = X.degen(k, t, x)
    return x


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


def vertices(X, n: int, x: int) -> tuple[int, ...]:
    """Vertex tuple of a cell, via the operators picking out each value."""
    return tuple(act(X, n, x, (t,)) for t in range(n + 1))


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


def _chain_nerve(order, names: Sequence, D: int) -> SimplicialSet:
    # order[a][b] is true when a <= b, counting the one morphism a -> b,
    # so an n-chain is its n + 1 elements; its label is their names
    counts, faces, degens, ends, _ = chain_index_nerve(order, lambda a, b, c: [0], [0] * len(order), D)
    above = [[y for y, le in zip(names, row) if le] for row in order]
    labels = [[(y,) for y in names]]
    for n in range(D):
        labels.append([c + (y,) for c, e in zip(labels[n], ends[n]) for y in above[e]])
    return SimplicialSet(D, counts, faces, degens, labels=labels)


@lru_cache(maxsize=None)
def standard_simplex(n: int, D: int) -> SimplicialSet:
    """The n-simplex truncated at level D.

    Cells at level k are the weakly increasing (k+1)-tuples with values
    in 0..n, in lexicographic order; the label of a cell is that tuple.
    The result is cached and must be treated as immutable.
    """
    X = _chain_nerve([[a <= b for b in range(n + 1)] for a in range(n + 1)], range(n + 1), D)
    X.name = f"simplex({n})"
    return X


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


def poset_nerve(P: FinitePoset, D: int, name: str = "") -> SimplicialSet:
    """Nerve of a finite poset: level n cells are weakly increasing chains."""
    X = _chain_nerve(P._leq, P.elements, D)
    X.name = name or "poset_nerve"
    return X


def vertex_induced_map(NP: SimplicialSet, NQ: SimplicialSet, vfun) -> "SimplicialMap":
    """Map of chain nerves induced by applying ``vfun`` to every chain entry.

    Both arguments must be labelled with chains (tuples); ``vfun`` must
    be monotone for the result to be simplicial.
    """
    if NQ.D < NP.D:
        raise TruncationError("target truncated below source")
    vals = []
    for n in range(NP.D + 1):
        vals.append([NQ.index_of(n, tuple(vfun(a) for a in NP.label(n, x))) for x in range(NP.card(n))])
    return SimplicialMap(NP, NQ, values=vals)


def subcomplex(X: SimplicialSet, seeds) -> tuple[SimplicialSet, "SimplicialMap"]:
    """Smallest subobject containing the seed cells, with its inclusion.

    ``seeds`` is an iterable of (level, cell). Closure takes two passes
    over the levels: faces downward from the top, then degeneracies
    upward from level 0. The result is closed under faces too, since a
    face of a degeneracy of x is x or a degeneracy of a face of x.
    """
    keep: list[set[int]] = [set() for _ in range(X.D + 1)]
    for n, x in seeds:
        keep[int(n)].add(int(x))
    for n in range(X.D, 0, -1):
        for row in X.faces[n]:
            keep[n - 1].update(row[x] for x in keep[n])
    for n in range(X.D):
        for row in X.degens[n]:
            keep[n + 1].update(row[x] for x in keep[n])
    old = [sorted(keep[n]) for n in range(X.D + 1)]
    new_idx = [{x: i for i, x in enumerate(old[n])} for n in range(X.D + 1)]
    cards = [len(old[n]) for n in range(X.D + 1)]
    faces: list[list[list[int]]] = [[] for _ in range(X.D + 1)]
    degens: list[list[list[int]]] = [[] for _ in range(X.D + 1)]
    for n in range(1, X.D + 1):
        faces[n] = [[new_idx[n - 1][X.face(n, i, x)] for x in old[n]] for i in range(n + 1)]
    for n in range(X.D):
        degens[n] = [[new_idx[n + 1][X.degen(n, i, x)] for x in old[n]] for i in range(n + 1)]
    labels = None
    if X.labels is not None:
        labels = [[X.label(n, x) for x in old[n]] for n in range(X.D + 1)]
    S = SimplicialSet(X.D, cards, faces, degens, labels=labels, name=f"sub({X.name})")
    incl = SimplicialMap(S, X, values=old)
    return S, incl


@lru_cache(maxsize=None)
def horn(n: int, k: int, D: Optional[int] = None) -> SimplicialSet:
    """The (n, k)-horn: cells whose vertices miss some value other than k.

    The result is cached and must be treated as immutable.
    """
    if not 0 <= k <= n:
        raise ValueError("horn index out of range")
    if D is None:
        D = max(n - 1, 0)
    Delta = standard_simplex(n, D)
    seeds = [
        (m, x)
        for m in range(D + 1)
        for x in range(Delta.card(m))
        if any(j != k and j not in Delta.label(m, x) for j in range(n + 1))
    ]
    S, _ = subcomplex(Delta, seeds)
    S.name = f"horn({n},{k})"
    return S


class SimplicialMap:
    """A levelwise map of truncated simplicial sets.

    Values are stored as explicit per-level tables, kept as given (not
    copied). ``fn(n, x)`` computes them instead only for the maps out of
    lazy power homs that `gadgets._interval_transform` builds: their sources
    are too large to tabulate (a naturality square of the comparison
    functor at [4] reads ``simplex_power_transform(f, 4, b, 3)``, whose
    hom (Δ⁴)⁴ has 70⁴, about 24 million, cells at level 3), and a
    composite reads only the cells its other factor hits. ``L`` is the top level the map is
    defined on (defaults to the source truncation).
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
        return tuple(
            tuple(self.apply(n, x) for x in range(self.source.card(n))) for n in range(self.L + 1)
        )

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return self.L == other.L and self.key() == other.key()

    def __hash__(self):
        return hash((self.L, self.key()))

    def __repr__(self):
        return f"<SimplicialMap L={self.L}>"


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    L = min(f.L, g.L)
    vals = [[g.apply(n, f.apply(n, x)) for x in range(f.source.card(n))] for n in range(L + 1)]
    return SimplicialMap(f.source, g.target, values=vals, L=L)


def validate_map(f: SimplicialMap, subject: str = "map") -> ValidationReport:
    """Check that a map commutes with every face and degeneracy in range.

    Each square at (n, i) gathers, over the cells of A, f after the
    operator of A and the operator of X after f, through the operators'
    ``face_map``/``degen_map``, and compares the two in one pass; only
    the cells where they differ are evaluated again, for the message.
    Every cell of every square counts towards ``checked``.
    """
    rep = ValidationReport(subject)
    A, X = f.source, f.target
    L = f.L
    values = [list(map(f.apply, itertools.repeat(n), range(A.card(n)))) for n in range(L + 1)]
    for n, row in enumerate(values):
        c = X.card(n)
        for x, v in enumerate(row):
            if not 0 <= v < c:
                rep.add("value range", (n, x), f"value {v} outside target level {n}")
    if rep.violations:
        return rep

    def square(law, n, i, m, op_A, op_X):
        # f at level m after op_A against op_X after f at level n
        cells = range(A.card(n))
        differ = map(ne, map(values[m].__getitem__, map(op_A, cells)), map(op_X, values[n]))
        for x in itertools.compress(cells, differ):
            rep.add(law, (n, i, x), f"{values[m][op_A(x)]} != {op_X(values[n][x])}")
        rep.checked += len(cells)

    for n in range(1, L + 1):
        for i in range(n + 1):
            square("f d_i = d_i f", n, i, n - 1, A.face_map(n, i), X.face_map(n, i))
    for n in range(min(L, A.D - 1, X.D - 1) + 1):
        if n + 1 > f.L:
            break
        for i in range(n + 1):
            square("f s_i = s_i f", n, i, n + 1, A.degen_map(n, i), X.degen_map(n, i))
    return rep


def enumerate_maps(A, X) -> list[SimplicialMap]:
    """All simplicial maps A -> X, in canonical order, by backtracking.

    The search follows one plan that lists every cell of A after its
    faces. It is built depth-first from the nondegenerate cells, top
    level first, so each simplex is checked as soon as its faces are
    set; degenerate cells no face of a nondegenerate cell needs come
    last. A nondegenerate cell is a branch step: its candidates are
    read from the face index of X (``X.face_index(n)``, a per-level
    dict from face tuples to the cells with those faces in ascending
    order, which a `SimplicialSet` builds once and keeps for every
    later search), keyed by the values already given to its faces. A
    degenerate cell a branch step reads is a forced step, the
    degeneracy of its witness's value, read from a degeneracy table of
    X fetched once. So the search space is exactly the nondegenerate
    cells. The search runs on an explicit stack, so its depth is not
    bounded by Python's recursion limit.

    The output order is lexicographic in the full value tables
    (level-major, then cell index); the finished tables are sorted into
    it, since the plan assigns cells in another order. The degenerate
    cells no branch step reads are filled only after the sort, each from
    one placed cell through one composite degeneracy table. Each comes
    after that placed cell in the level-major order, so two full tables
    first differ at a placed cell, and the partial tables sort as the
    full ones do.
    """
    if X.D < A.D:
        raise TruncationError("target truncated below source")
    D = A.D
    # cell (n, x) of A is slot base[n] + x of one flat value vector, so
    # the vectors sort in the order of their level-major tables
    base = [0] * (D + 2)
    for n in range(D + 1):
        base[n + 1] = base[n] + A.card(n)

    # every degenerate cell is x = s_i(y) for some y at level n; its
    # witness (n, i, y) has the smallest such i, and the search forces x
    # from y
    witness: dict[int, tuple[int, int, int]] = {}
    for n in range(D):
        for i in range(n + 1):
            for y in range(A.card(n)):
                witness.setdefault(base[n + 1] + A.degen(n, i, y), (n, i, y))

    tables: dict[tuple[tuple[int, int], ...], list[int]] = {}

    def degen_table(steps: tuple[tuple[int, int], ...]) -> list[int]:
        # the degeneracies (m, i) in steps, innermost first, as one table of X
        t = tables.get(steps)
        if t is None:
            m, i = steps[-1]
            if len(steps) == 1:
                t = [X.degen(m, i, v) for v in range(X.card(m))]
            else:
                last = degen_table(steps[-1:])
                t = [last[v] for v in degen_table(steps[:-1])]
            tables[steps] = t
        return t

    placed = [False] * base[D + 1]
    branches: list[tuple[int, int, tuple[int, ...]]] = []
    # forced[b] holds the forced steps taken right after branch step b;
    # none can come first, since every witness chain ends at a branch
    forced: list[list[tuple[int, list[int], int]]] = []

    def place(n: int, x: int) -> None:
        # recursion one level down per call, so at most D + 1 frames deep
        s = base[n] + x
        if placed[s]:
            return
        placed[s] = True
        if s in witness:
            m, i, y = witness[s]
            place(m, y)
            forced[-1].append((s, degen_table(((m, i),)), base[m] + y))
            return
        faces = [A.face(n, i, x) for i in range(n + 1)] if n else []
        for y in faces:
            place(n - 1, y)
        branches.append((s, n, tuple(base[n - 1] + y for y in faces)))
        forced.append([])

    for n in range(D, -1, -1):
        for x in range(A.card(n)):
            if base[n] + x not in witness:
                place(n, x)
    # the rest are degenerate cells no branch step reads; each one's
    # witness is one level down, so placed or met earlier in this loop,
    # and its witness chain ends at the placed cell it is filled from
    chains: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    fill: list[tuple[int, int, list[int]]] = []
    for s, (m, i, y) in witness.items():
        if not placed[s]:
            w = base[m] + y
            root, steps = chains.get(w, (w, ()))
            chains[s] = (root, steps + ((m, i),))
            fill.append((s, root, degen_table(chains[s][1])))

    index = {n: X.face_index(n) for _, n, _ in branches if n}
    points = list(range(X.card(0)))
    vals = [0] * base[D + 1]
    # branch step b at level n >= 1 reads the values of its faces with
    # one getter and looks them up in the face index of level n
    finders = [(None, None) if n == 0 else (index[n], itemgetter(*faces)) for _, n, faces in branches]

    out: list[list[int]] = []
    B = len(branches)
    if B == 0:
        out.append(vals[:])
    else:
        # branch step 0 is a vertex: every branch step comes after its faces
        cands: list[Sequence[int]] = [points] * B
        pos = [0] * B
        b = 0
        while b >= 0:
            j = pos[b]
            c = cands[b]
            if j == len(c):
                b -= 1
                continue
            pos[b] = j + 1
            vals[branches[b][0]] = c[j]
            for s, t, w in forced[b]:
                vals[s] = t[vals[w]]
            if b + 1 == B:
                out.append(vals[:])
                continue
            b += 1
            lvl, get = finders[b]
            if get is not None:
                cands[b] = lvl.get(get(vals), ())
            pos[b] = 0
    out.sort()
    for vec in out:
        for s, w, t in fill:
            vec[s] = t[vec[w]]
    return [
        SimplicialMap(A, X, values=[vec[base[n] : base[n + 1]] for n in range(D + 1)]) for vec in out
    ]


class MarkedSimplicialSet(Record):
    """A simplicial set with a distinguished set of level-1 cells."""

    _fields = ("space", "marked")

    def __init__(self, space: SimplicialSet, marked: frozenset[int]):
        self.space = space
        self.marked = marked

    def validate(self, subject: str = "marked simplicial set") -> ValidationReport:
        rep = ValidationReport(subject)
        if self.space.D < 1:
            rep.add("marking level", (), "marking needs level 1 data")
            return rep
        for e in self.marked:
            if not 0 <= e < self.space.card(1):
                rep.add("marked cell range", (1, e), "marked cell out of range")
        for e in range(self.space.card(1)):
            rep.checked += 1
            if self.space.is_degenerate(1, e) and e not in self.marked:
                rep.add("degenerate edges marked", (1, e), "identity edge left unmarked")
        return rep

