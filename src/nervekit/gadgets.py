"""The cosimplicial gadget categories and the functor search over them.

* ``coherent_path_category(n, D)``: objects 0..n, hom(i, j) the nerve
  (`poset_nerve`) of the poset of subsets of {i..j} with fixed min and
  max, ordered by inclusion, composed by union; `vertex_induced_map`
  is the map of such nerves a monotone map of their entries induces. Simplicial functors out of it are the
  cells of the coherent nerve. `path_functor` is its cosimplicial
  structure.
* ``interval_power_category(n, K)``: objects 0..n, hom(i, j) the lazy
  (j-i)-fold power `PowerSset` of K, composed by concatenation.
  Functors out of it are chains of K-shaped cells, which is how
  classifying-space cells are recognized. With K the n-simplex it is
  the chain gadget `simplex_power_category(n, D)`, whose cosimplicial
  structure is `simplex_power_transform`.
* ``enumerate_simplicial_functors(S, T)``: every simplicial functor
  between two small simplicial categories, by exhaustive search.

Power coordinates are always listed from the top hop down to the hop
just above the source object, so concatenation of coordinate tuples is
exactly composition and its table at each level is the index identity.

The functors `cat.grid_collapse` and `cat.comparison_functor` run from
the path gadget to the chain gadget, and ``uniq-check`` searches the
functors between them. No other verb reads a gadget, so ``import
nervekit`` does not load this module up front: the package resolves
its names on first use.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .cat import SimplicialCategory
from .functors import SimplicialFunctor
from .horns import _chain_nerve, standard_simplex
from .posets import FinitePoset, path_poset
from .sset import SimplicialMap, SimplicialSet, TruncationError, _DegeneracyTest, enumerate_maps


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


@lru_cache(maxsize=None)
def coherent_path_category(n: int, D: int) -> SimplicialCategory:
    """The path-poset resolution of the linear order 0..n.

    hom(i, j) is the nerve of `path_poset(i, j)`; composition takes
    unions entrywise. Its simplicial functors into a category are the
    coherent-nerve cells. Cached; treat as immutable.
    """
    homs = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            homs[(i, j)] = poset_nerve(path_poset(i, j), D, name=f"paths({i},{j})")
    comps = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                G, F, tgt = homs[(j, k)], homs[(i, j)], homs[(i, k)]
                comps[(i, j, k)] = [
                    [
                        tgt.index_of(m, tuple(tuple(sorted(set(gc) | set(fc))) for gc, fc in zip(gch, fch)))
                        for gch in G.labels[m]
                        for fch in F.labels[m]
                    ]
                    for m in range(D + 1)
                ]
    ids = {i: 0 for i in range(n + 1)}
    return SimplicialCategory(list(range(n + 1)), homs, comps, ids, D, name=f"paths[{n}]")


def path_functor(f: Sequence[int], n_src: int, n_tgt: int, D: int) -> SimplicialFunctor:
    """Functor of path categories induced by a monotone map on vertices.

    Acts on objects by f and on a subset S by its image f(S).
    """
    f = _vertex_map(f, n_src, n_tgt)
    S = coherent_path_category(n_src, D)
    T = coherent_path_category(n_tgt, D)
    homs = {}
    for i in range(n_src + 1):
        for j in range(i, n_src + 1):
            homs[(i, j)] = vertex_induced_map(
                S.hom(i, j), T.hom(f[i], f[j]), lambda s: tuple(sorted({f[v] for v in s}))
            )
    return SimplicialFunctor(S, T, {i: f[i] for i in range(n_src + 1)}, homs)


def _vertex_map(f: Sequence[int], n_src: int, n_tgt: int) -> tuple:
    """``f`` as a tuple, after checking it is a monotone map [n_src] -> [n_tgt]."""
    f = tuple(f)
    if len(f) != n_src + 1 or any(f[t] > f[t + 1] for t in range(n_src)):
        raise ValueError("not a monotone vertex map")
    if f and (f[0] < 0 or f[-1] > n_tgt):
        raise ValueError("vertex map out of range")
    return f


class PowerSset(_DegeneracyTest):
    """Lazy m-fold power K^m of a cell-table interface.

    A cell is an m-tuple of K-cells of the same level, encoded as one
    integer in base card(n) with coordinate 0 as the most significant
    digit. Concatenation of tuples therefore agrees with the pairing
    rule of `ProductSset`: the index of (u ++ v) equals
    index(u) * card(n)**len(v) + index(v). The zeroth power is a point.
    """

    def __init__(self, K, m: int, name: str = ""):
        if m < 0:
            raise ValueError("power must be >= 0")
        self.K = K
        self.m = m
        self.D = K.D
        self.name = name

    def card(self, n: int) -> int:
        return self.K.card(n) ** self.m

    def coords(self, n: int, x: int) -> tuple[int, ...]:
        c = self.K.card(n)
        out = []
        for _ in range(self.m):
            out.append(x % c)
            x //= c
        return tuple(reversed(out))

    def index(self, n: int, coords: Sequence[int]) -> int:
        c = self.K.card(n)
        x = 0
        for u in coords:
            x = x * c + u
        return x

    def face(self, n: int, i: int, x: int) -> int:
        cs = self.coords(n, x)
        c = self.K.card(n - 1)
        y = 0
        for u in cs:
            y = y * c + self.K.face(n, i, u)
        return y

    def degen(self, n: int, i: int, x: int) -> int:
        cs = self.coords(n, x)
        c = self.K.card(n + 1)
        y = 0
        for u in cs:
            y = y * c + self.K.degen(n, i, u)
        return y

    def label(self, n: int, x: int):
        if self.m == 0:
            return ()
        return tuple(self.K.label(n, u) for u in self.coords(n, x))


def interval_power_category(n: int, K, name: str = "") -> SimplicialCategory:
    """Objects 0..n with hom(i, j) the (j-i)-fold power of K.

    Composition concatenates coordinate tuples, so its table at each
    level is the index identity, stored as a ``range``. Homs are lazy
    power views and nothing here materializes them, to keep large K
    feasible.
    """
    homs = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            homs[(i, j)] = PowerSset(K, j - i, name=f"power({i},{j})")
    comps = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                comps[(i, j, k)] = [range(homs[(i, k)].card(m)) for m in range(K.D + 1)]
    ids = {i: 0 for i in range(n + 1)}
    return SimplicialCategory(
        list(range(n + 1)), homs, comps, ids, K.D, name=name or f"interval[{n}]^{getattr(K, 'name', 'K')}"
    )


@lru_cache(maxsize=None)
def simplex_power_category_target(p: int, q: int, D: int) -> SimplicialCategory:
    """Power gadget on objects 0..p over the q-simplex (cached)."""
    return interval_power_category(p, standard_simplex(q, D), name=f"interval[{p}]^simplex({q})")


def simplex_power_category(n: int, D: int) -> SimplicialCategory:
    """`interval_power_category` with K the n-simplex (the chain gadget)."""
    return simplex_power_category_target(n, n, D)


def simplex_power_transform(f: Sequence[int], a: int, b: int, D: int) -> SimplicialFunctor:
    """Functor between chain gadgets over a monotone map [a] -> [b].

    Coordinates are pulled from covering hops and relabelled by f in
    the simplex direction; this is the cosimplicial structure under
    which classifying-space cells are functor-valued.
    """
    f = _vertex_map(f, a, b)
    S = simplex_power_category(a, D)
    T = simplex_power_category(b, D)
    Ka = standard_simplex(a, D)
    Kb = standard_simplex(b, D)
    return _interval_transform(S, T, f, Ka, Kb, lambda u: tuple(f[v] for v in u))


def _interval_transform(S, T, f, K_src, K_tgt, relabel) -> SimplicialFunctor:
    n_src = len(S.objects) - 1
    homs = {}
    for i in range(n_src + 1):
        for j in range(i, n_src + 1):
            src = S.hom(i, j)
            tgt = T.hom(f[i], f[j])

            def fn(m, x, i=i, j=j, src=src, tgt=tgt):
                cs = src.coords(m, x)
                out = []
                for c in range(f[j] - f[i]):
                    hop = f[j] - c
                    t = next(t for t in range(i + 1, j + 1) if f[t] >= hop)
                    u = K_src.label(m, cs[j - t])
                    out.append(K_tgt.index_of(m, relabel(u)))
                return tgt.index(m, out)

            homs[(i, j)] = SimplicialMap(src, tgt, fn=fn, L=S.D)
    return SimplicialFunctor(S, T, {i: f[i] for i in range(n_src + 1)}, homs)


def enumerate_simplicial_functors(S: SimplicialCategory, T: SimplicialCategory) -> list[SimplicialFunctor]:
    """All simplicial functors S -> T by exhaustive search (small inputs only).

    Object maps are filtered by hom emptiness, hom maps enumerated per
    pair, and candidates kept iff identities and composition are
    preserved. Deterministic order.
    """
    from .axioms import validate_functor

    results = []
    obj_lists = [T.objects] * len(S.objects)
    for combo in itertools.product(*obj_lists):
        omap = dict(zip(S.objects, combo))
        if any(
            S.hom(a, b).card(0) > 0 and (omap[a], omap[b]) not in T.homs
            for (a, b) in S.homs.keys()
        ):
            continue
        pairs = sorted(S.homs.keys(), key=str)
        per_pair = []
        feasible = True
        for (a, b) in pairs:
            cands = enumerate_maps(S.hom(a, b), T.hom(omap[a], omap[b]))
            if not cands:
                feasible = False
                break
            per_pair.append(cands)
        if not feasible:
            continue
        for choice in itertools.product(*per_pair):
            F = SimplicialFunctor(S, T, omap, dict(zip(pairs, choice)))
            if validate_functor(F).ok:
                results.append(F)
    return results
