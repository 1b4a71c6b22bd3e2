"""Finite categories, simplicial categories, functors, and the functors
from the path gadget to the power gadgets that drive the comparison
machinery.

* ``comparison_functor(n, D)``: the canonical functor from the path
  gadget ``coherent_path_category(n, D)`` to the chain gadget
  ``simplex_power_category(n, D)``, sending a subset S to the
  coordinate tuple whose entry for hop t is the largest element of S
  below t, listed from the top hop down. It is the diagonal case of
  ``grid_collapse``, the chain (0, 0), ..., (n, n).
* ``grid_collapse(p, q, tau, D)``: the composite functor out of a path
  category of a grid chain, collapsing to the first grid coordinate;
  hom action takes, per hop, the largest second coordinate seen
  strictly before that hop.

The gadgets themselves, their cosimplicial structure and the functor
search live in `nervekit.gadgets`, and the validators of categories,
relative categories and functors in `nervekit.axioms`; both load on
first use.

Every composition is an index table. A simplicial category stores its
per-level tables, the ``comp`` tables of its JSON document: at level n,
entry ``g * hom(a, b).card(n) + f`` is the index of g∘f in hom(a, c). A
finite category stores one table per triple in the layout of one level,
so its level-0 discrete category and its nerve read the table as given.
Functors store their hom maps as value tables too, and compose by
gathering one through the other. The one exception is
`gadgets.simplex_power_transform`, whose hom maps out of the lazy power
homs compute each cell on demand (see `SimplicialMap`).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .sset import (
    FinitePoset,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    chain_index_nerve,
    compose_maps,
    standard_simplex,
    vertices,
)


class FiniteCategory:
    """An ordinary finite category.

    Morphisms are triples (source, target, label); ``homs`` maps an
    object pair to its list of labels (missing pairs are empty), a
    morphism's index being its position in that list, and ``ids[a]`` is
    the label of the identity of a. ``comps[(a, b, c)]``, one per pair
    of nonempty homs a -> b -> c, is the table of one level of
    `SimplicialCategory.comps`: entry ``g * len(hom(a, b)) + f`` is the
    index in hom(a, c) of g∘f, for f in hom(a, b) and g in hom(b, c).
    """

    def __init__(self, objects: Sequence, homs: dict, comps: dict, ids: dict, name: str = ""):
        self.objects = list(objects)
        self.homs = {pair: list(labels) for pair, labels in homs.items() if labels}
        self.comps = dict(comps)
        self.ids = dict(ids)
        self.name = name

    def hom_labels(self, a, b) -> list:
        return self.homs.get((a, b), [])

    def identity(self, a) -> tuple:
        return (a, a, self.ids[a])

    def compose(self, g: tuple, f: tuple) -> tuple:
        if f[1] != g[0]:
            raise ValueError(f"not composable: {f} then {g}")
        a, b, c = f[0], f[1], g[1]
        F, G = self.hom_labels(a, b), self.hom_labels(b, c)
        k = self.comps[(a, b, c)][G.index(g[2]) * len(F) + F.index(f[2])]
        return (a, c, self.hom_labels(a, c)[k])

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<FiniteCategory{tag} objects={len(self.objects)}>"


def cyclic_group_category(m: int, obj="x") -> FiniteCategory:
    """The cyclic group of order m as a one-object groupoid."""
    if m < 1:
        raise ValueError("group order must be >= 1")
    table = [(g + f) % m for g in range(m) for f in range(m)]
    return FiniteCategory([obj], {(obj, obj): list(range(m))}, {(obj, obj, obj): table}, {obj: 0}, name=f"z{m}")


def poset_category(P: FinitePoset, name: str = "") -> FiniteCategory:
    els = P.elements
    homs = {(a, b): [0] for a in els for b in els if P.leq(a, b)}
    comps = {(a, b, c): [0] for a, b in homs for c in els if P.leq(b, c)}
    return FiniteCategory(els, homs, comps, {a: 0 for a in els}, name=name or "poset")


def nerve_cat(C: FiniteCategory, D: int) -> SimplicialSet:
    """Nerve of a finite category, truncated at level D.

    Level n cells are chains (x0, (m1, ..., mn)) of n composable
    morphism triples, in the order and with the operators of
    `chain_index_nerve`, which reads the tables of ``C.comps``.
    """
    obs = C.objects
    homs = [[C.hom_labels(a, b) for b in obs] for a in obs]
    ids = [homs[a][a].index(C.ids[x]) for a, x in enumerate(obs)]
    counts, faces, degens, ends, _ = chain_index_nerve(
        [[len(h) for h in row] for row in homs], lambda a, b, c: C.comps[(obs[a], obs[b], obs[c])], ids, D
    )
    return SimplicialSet(D, counts, faces, degens, labels=_chain_labels(obs, homs, ends, D), name=f"nerve({C.name})")


def _chain_labels(objects: Sequence, homs, ends, D: int) -> list[list[tuple]]:
    """Labels (x0, (m1, ..., mn)) of the chains of `chain_index_nerve`
    up to level D, given its ``ends`` and the hom labels by index pair."""
    steps = [[(x, y, l) for y, h in zip(objects, row) for l in h] for x, row in zip(objects, homs)]
    labels = [[(x, ()) for x in objects]]
    for n in range(D):
        labels.append([(x0, ms + (m,)) for (x0, ms), e in zip(labels[n], ends[n]) for m in steps[e]])
    return labels


_EMPTY_CACHE: dict[int, SimplicialSet] = {}


def _empty(D: int) -> SimplicialSet:
    if D not in _EMPTY_CACHE:
        _EMPTY_CACHE[D] = SimplicialSet.empty(D)
    return _EMPTY_CACHE[D]


class SimplicialCategory:
    """A category enriched in truncated simplicial sets.

    All homs share the truncation ``D``. ``comps[(a, b, c)]`` lists one
    table per level n = 0..D, the ``comp`` tables of the JSON document:
    entry ``g * hom(a, b).card(n) + f`` is the index in hom(a, c) of
    g∘f, for f in hom(a, b) and g in hom(b, c). ``ids[a]`` is a vertex
    of hom(a, a). Missing hom pairs are empty.
    """

    def __init__(self, objects: Sequence, homs: dict, comps: dict, ids: dict, D: int, name: str = ""):
        self.objects = list(objects)
        self.homs = dict(homs)
        self.comps = dict(comps)
        self.ids = dict(ids)
        self.D = D
        self.name = name

    def hom(self, a, b):
        """The hom from a to b; empty when the objects have none.

        A name that is not an object raises `KeyError`.
        """
        H = self.homs.get((a, b))
        if H is None:
            for x in (a, b):
                if x not in self.objects:
                    raise KeyError(f"{x!r} is not an object of {self.name or 'the category'}")
            return _empty(self.D)
        return H

    def compose(self, a, b, c, n: int, g: int, f: int) -> int:
        return self.comps[(a, b, c)][n][g * self.hom(a, b).card(n) + f]

    def identity_cell(self, a, n: int = 0) -> int:
        c = self.ids[a]
        H = self.hom(a, a)
        for m in range(n):
            c = H.degen(m, 0, c)
        return c

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<SimplicialCategory{tag} objects={len(self.objects)} D={self.D}>"


def level_category(SC: SimplicialCategory, q: int) -> FiniteCategory:
    """The ordinary category of level-q hom cells.

    Morphism labels are (source, target, cell) so the same morphism is
    addressable consistently across levels.
    """
    if q > SC.D:
        raise TruncationError(f"level {q} beyond hom truncation {SC.D}")
    homs = {(a, b): [(a, b, x) for x in range(H.card(q))] for (a, b), H in SC.homs.items()}
    comps = {abc: tables[q] for abc, tables in SC.comps.items()}
    ids = {a: (a, a, SC.identity_cell(a, q)) for a in SC.objects}
    return FiniteCategory(SC.objects, homs, comps, ids, name=f"{SC.name}_lvl{q}")


def constant_sset(k: int, D: int, labels=None, name: str = "") -> SimplicialSet:
    """k cells at every level with all operators the identity."""
    cards = [k] * (D + 1)
    faces = [[] if n == 0 else [list(range(k)) for _ in range(n + 1)] for n in range(D + 1)]
    degens = [[list(range(k)) for _ in range(n + 1)] if n < D else [] for n in range(D + 1)]
    lab = None if labels is None else [list(labels) for _ in range(D + 1)]
    return SimplicialSet(D, cards, faces, degens, labels=lab, name=name or f"constant({k})")


def discrete_simplicial_category(C: FiniteCategory, D: int) -> SimplicialCategory:
    """Simplicial category with constant homs built from an ordinary category.

    Every level holds C's composition tables. An object whose identity
    label is not in its hom gets no identity vertex.
    """
    homs = {}
    for (a, b), labels in C.homs.items():
        homs[(a, b)] = constant_sset(
            len(labels), D, labels=[(a, b, l) for l in labels], name=f"hom({a},{b})"
        )
    comps = {abc: [table] * (D + 1) for abc, table in C.comps.items()}
    ids = {a: C.homs[(a, a)].index(C.ids[a]) for a in C.objects if C.ids.get(a) in C.hom_labels(a, a)}
    return SimplicialCategory(C.objects, homs, comps, ids, D, name=f"discrete({C.name})")


class RelativeSimplicialCategory:
    """A simplicial category with a wide simplicial subcategory.

    ``sub[(a, b)]`` lists, per level, the set of hom cells belonging to
    the subcategory. Wideness (each sub hom is a union of connected
    components) is checked by `axioms.validate_relative`, not assumed.
    """

    def __init__(self, cat: SimplicialCategory, sub: dict, name: str = ""):
        self.cat = cat
        self.sub = {pair: [frozenset(s) for s in per_level] for pair, per_level in sub.items()}
        self.name = name or (cat.name + "+sub")

    def sub_cells(self, a, b, n: int) -> frozenset:
        per_level = self.sub.get((a, b))
        if per_level is None:
            return frozenset()
        return per_level[n]

    @classmethod
    def whole(cls, cat: SimplicialCategory) -> "RelativeSimplicialCategory":
        sub = {
            pair: [frozenset(range(H.card(n))) for n in range(cat.D + 1)]
            for pair, H in cat.homs.items()
        }
        return cls(cat, sub, name=cat.name + "+whole")

    @classmethod
    def identities_only(cls, cat: SimplicialCategory) -> "RelativeSimplicialCategory":
        sub = {}
        for a in cat.objects:
            sub[(a, a)] = [frozenset([cat.identity_cell(a, n)]) for n in range(cat.D + 1)]
        return cls(cat, sub, name=cat.name + "+ids")

    @classmethod
    def from_level_labels(cls, cat: SimplicialCategory, chosen: dict) -> "RelativeSimplicialCategory":
        """Subcategory spanned by the given vertex sets, closed under everything.

        ``chosen[(a, b)]`` is a set of vertices of hom(a, b); the sub
        simplicial sets are the full unions of the connected components
        meeting them (plus identity components).
        """
        sub = {}
        for (a, b), H in cat.homs.items():
            seeds = set(chosen.get((a, b), set()))
            if a == b:
                seeds.add(cat.ids[a])
            classes = _pi0_classes(H)
            keep_classes = {classes[v] for v in seeds}
            per_level = []
            for n in range(cat.D + 1):
                cells = frozenset(
                    x for x in range(H.card(n)) if classes[vertices(H, n, x)[0]] in keep_classes
                )
                per_level.append(cells)
            sub[(a, b)] = per_level
        return cls(cat, sub)


def _pi0_classes(X) -> list[int]:
    # union-find over the endpoint pairs of 1-cells; returns root per vertex
    parent = list(range(X.card(0)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in range(X.card(1)):
        a, b = find(X.face(1, 1, e)), find(X.face(1, 0, e))
        if a != b:
            parent[b] = a
    return [find(v) for v in range(X.card(0))]


class SimplicialFunctor:
    """A functor of simplicial categories: object map plus hom maps."""

    def __init__(self, source: SimplicialCategory, target: SimplicialCategory, obj: dict, homs: dict):
        self.source = source
        self.target = target
        self.obj = dict(obj)
        self.homs = dict(homs)

    def apply_hom(self, a, b, n: int, x: int) -> int:
        return self.homs[(a, b)].apply(n, x)

    def vertex_signature(self):
        """Object map plus all hom values on vertices.

        For functors whose target homs are nerves of posets this
        determines the functor.
        """
        sig = [tuple(self.obj[a] for a in self.source.objects)]
        for (a, b) in sorted(self.source.homs.keys(), key=str):
            H = self.source.hom(a, b)
            sig.append(((a, b), tuple(self.apply_hom(a, b, 0, v) for v in range(H.card(0)))))
        return tuple(sig)


def compose_functors(G: SimplicialFunctor, F: SimplicialFunctor) -> SimplicialFunctor:
    """G after F, each hom map G's applied to every entry of F's table."""
    homs = {(a, b): compose_maps(G.homs[(F.obj[a], F.obj[b])], m) for (a, b), m in F.homs.items()}
    obj = {a: G.obj[F.obj[a]] for a in F.source.objects}
    return SimplicialFunctor(F.source, G.target, obj, homs)


def functors_equal(F: SimplicialFunctor, G: SimplicialFunctor) -> bool:
    """Equal object maps and equal hom maps, compared as full value tables."""
    if F.obj != G.obj or F.homs.keys() != G.homs.keys():
        return False
    return all(F.homs[p].key() == G.homs[p].key() for p in F.homs)


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


@lru_cache(maxsize=None)
def comparison_functor(n: int, D: int) -> SimplicialFunctor:
    """The canonical functor from the path gadget to the chain gadget.

    It is `grid_collapse` along the diagonal chain (0, 0), ..., (n, n):
    identity on objects, and a subset S with min i and max j goes to
    the tuple whose coordinate for hop t (listed from t = j down to
    t = i+1) is the largest element of S strictly below t; chains map
    entrywise. Cached, as the naturality squares ask for the same few
    n again and again; the result is shared and must be treated as
    immutable.
    """
    return grid_collapse(n, n, [(t, t) for t in range(n + 1)], D)


def _check_grid_chain(p: int, q: int, tau: Sequence) -> tuple:
    tau = tuple((int(a), int(b)) for a, b in tau)
    if not tau:
        raise ValueError("grid chain must be nonempty")
    for a, b in tau:
        if not (0 <= a <= p and 0 <= b <= q):
            raise ValueError(f"grid vertex {(a, b)} outside [{p}]x[{q}]")
    for t in range(len(tau) - 1):
        if tau[t][0] > tau[t + 1][0] or tau[t][1] > tau[t + 1][1]:
            raise ValueError(f"grid chain not weakly increasing at {t}: {tau}")
    return tau


def grid_collapse(p: int, q: int, tau: Sequence, D: int) -> SimplicialFunctor:
    """Composite functor out of the path gadget of a grid chain.

    ``tau`` is a weakly increasing chain in [p] x [q] of length r+1.
    The result is the functor from `coherent_path_category(r, D)` to
    the power gadget over the q-simplex on objects 0..p: objects go to
    first coordinates; a subset S maps, per hop t, to the largest
    second coordinate of tau(S) whose first coordinate is strictly
    below t; chains map entrywise.
    """
    from .gadgets import coherent_path_category, simplex_power_category_target

    tau = _check_grid_chain(p, q, tau)
    r = len(tau) - 1
    S = coherent_path_category(r, D)
    T = simplex_power_category_target(p, q, D)
    Dq = standard_simplex(q, D)
    obj = {t: tau[t][0] for t in range(r + 1)}
    homs = {}
    for i in range(r + 1):
        for j in range(i, r + 1):
            a, b = tau[i][0], tau[j][0]
            NP = S.hom(i, j)
            PW = T.hom(a, b)
            vals = []
            for m in range(D + 1):
                row = []
                for x in range(NP.card(m)):
                    chain = NP.label(m, x)
                    coords = []
                    for c in range(b - a):
                        hop = b - c
                        tup = tuple(
                            max(tau[s][1] for s in subset if tau[s][0] < hop) for subset in chain
                        )
                        coords.append(Dq.index_of(m, tup))
                    row.append(PW.index(m, coords))
                vals.append(row)
            homs[(i, j)] = SimplicialMap(NP, PW, values=vals)
    return SimplicialFunctor(S, T, obj, homs)

