"""Finite categories, simplicial categories, and the gadget categories
that drive the coherent nerve and the comparison machinery.

Gadgets
-------
* ``coherent_path_category(n, D)``: objects 0..n, hom(i, j) the nerve
  of the poset of subsets of {i..j} with fixed min and max, ordered by
  inclusion, composed by union. Simplicial functors out of it are the
  cells of the coherent nerve.
* ``interval_power_category(n, K)``: objects 0..n, hom(i, j) a
  (j-i)-fold power of K, composed by concatenation. Functors out of it
  are chains of K-shaped cells, which is how classifying-space cells
  are recognized.
* ``comparison_functor(n, D)``: the canonical functor from the first
  gadget to the second (with K the n-simplex), sending a subset S to
  the coordinate tuple whose entry for hop t is the largest element of
  S below t, listed from the top hop down. It is the diagonal case of
  ``grid_collapse``, the chain (0, 0), ..., (n, n).
* ``grid_collapse(p, q, tau, D)``: the composite functor out of a path
  category of a grid chain, collapsing to the first grid coordinate;
  hom action takes, per hop, the largest second coordinate seen
  strictly before that hop.

A simplicial category stores each composition as its per-level index
tables, the ``comp`` tables of its JSON document: at level n, entry
``g * hom(a, b).card(n) + f`` is the index of g∘f in hom(a, c). Power
coordinates are always listed from the top hop down to the hop just
above the source object, so concatenation of coordinate tuples is
exactly composition and its table at each level is the index identity.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .reporting import ValidationReport
from .sset import (
    ProductSset,
    PowerSset,
    SimplicialMap,
    SimplicialSet,
    FinitePoset,
    TruncationError,
    chain_index_nerve,
    enumerate_maps,
    poset_nerve,
    standard_simplex,
    validate_map,
    validate_sset,
    vertex_induced_map,
    vertices,
)


class FiniteCategory:
    """An ordinary finite category.

    Morphisms are triples (source, target, label); ``homs`` maps an
    object pair to its list of labels (missing pairs are empty).
    ``compose_fn(a, b, c, g, f)`` returns the label of the composite of
    f: a -> b followed by g: b -> c.
    """

    def __init__(self, objects: Sequence, homs: dict, compose_fn, ids: dict, name: str = ""):
        self.objects = list(objects)
        self.homs = {pair: list(labels) for pair, labels in homs.items() if labels}
        self.compose_fn = compose_fn
        self.ids = dict(ids)
        self.name = name

    def hom_labels(self, a, b) -> list:
        return self.homs.get((a, b), [])

    def identity(self, a) -> tuple:
        return (a, a, self.ids[a])

    def compose(self, g: tuple, f: tuple) -> tuple:
        if f[1] != g[0]:
            raise ValueError(f"not composable: {f} then {g}")
        return (f[0], g[1], self.compose_fn(f[0], f[1], g[1], g[2], f[2]))

    def morphisms(self):
        for (a, b), labels in self.homs.items():
            for l in labels:
                yield (a, b, l)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<FiniteCategory{tag} objects={len(self.objects)}>"


def validate_category(C: FiniteCategory, subject: str = "") -> ValidationReport:
    rep = ValidationReport(subject or C.name or "category")
    for a in C.objects:
        if C.ids.get(a) not in C.hom_labels(a, a):
            rep.add("identity exists", (a,), "no identity morphism")
    for f in C.morphisms():
        for g in C.morphisms():
            if f[1] != g[0]:
                continue
            gf = C.compose(g, f)
            rep.checked += 1
            if gf[2] not in C.hom_labels(gf[0], gf[1]):
                rep.add("composition closed", (f, g), f"composite {gf} not a morphism")
    for a in C.objects:
        ida = C.identity(a)
        for f in C.morphisms():
            if f[0] == a and C.compose(f, ida) != f:
                rep.add("right unit", (f,), "f after id differs from f")
            if f[1] == a and C.compose(ida, f) != f:
                rep.add("left unit", (f,), "id after f differs from f")
    for f in C.morphisms():
        for g in C.morphisms():
            if f[1] != g[0]:
                continue
            for h in C.morphisms():
                if g[1] != h[0]:
                    continue
                rep.checked += 1
                if C.compose(h, C.compose(g, f)) != C.compose(C.compose(h, g), f):
                    rep.add("associativity", (f, g, h), "triple composite disagrees")
    return rep


def cyclic_group_category(m: int, obj="x") -> FiniteCategory:
    """The cyclic group of order m as a one-object groupoid."""
    if m < 1:
        raise ValueError("group order must be >= 1")
    return FiniteCategory(
        [obj],
        {(obj, obj): list(range(m))},
        lambda a, b, c, g, f: (g + f) % m,
        {obj: 0},
        name=f"z{m}",
    )


def poset_category(P: FinitePoset, name: str = "") -> FiniteCategory:
    homs = {(a, b): [0] for a in P.elements for b in P.elements if P.leq(a, b)}
    return FiniteCategory(P.elements, homs, lambda a, b, c, g, f: 0, {a: 0 for a in P.elements}, name=name or "poset")


def _comp_table(C: FiniteCategory, a, b, c) -> list[int]:
    """Composition hom(b, c) x hom(a, b) -> hom(a, c) of C as the index
    table g * |hom(a, b)| + f -> index of g∘f, from the label order."""
    where = {l: i for i, l in enumerate(C.hom_labels(a, c))}
    return [where[C.compose_fn(a, b, c, g, f)] for g in C.hom_labels(b, c) for f in C.hom_labels(a, b)]


def nerve_cat(C: FiniteCategory, D: int) -> SimplicialSet:
    """Nerve of a finite category, truncated at level D.

    Level n cells are chains (x0, (m1, ..., mn)) of n composable
    morphism triples, in the order and with the operators of
    `chain_index_nerve`; ``compose_fn`` runs once per composable pair.
    """
    obs = C.objects
    homs = [[C.hom_labels(a, b) for b in obs] for a in obs]
    ids = [homs[a][a].index(C.ids[x]) for a, x in enumerate(obs)]
    counts, faces, degens, ends, _ = chain_index_nerve(
        [[len(h) for h in row] for row in homs], lambda a, b, c: _comp_table(C, obs[a], obs[b], obs[c]), ids, D
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


def validate_simplicial_category(SC: SimplicialCategory, subject: str = "") -> ValidationReport:
    """Check hom validity, simpliciality of composition, units, associativity.

    Each composition's tables are checked as a map out of the product
    ``ProductSset(hom(b, c), hom(a, b))``, whose pairing is the index
    ``g * hom(a, b).card(n) + f`` of the tables.
    """
    rep = ValidationReport(subject or SC.name or "simplicial category")
    L = SC.D
    for (a, b), H in SC.homs.items():
        sub = validate_sset(H, subject=f"hom({a},{b})")
        for v in sub.violations:
            rep.add(f"hom({a},{b}): {v.identity}", v.location, v.detail)
        rep.checked += sub.checked
    for a in SC.objects:
        if (a, a) not in SC.homs or not 0 <= SC.ids.get(a, -1) < SC.hom(a, a).card(0):
            rep.add("identity vertex", (a,), "missing or out of range")
            return rep
    for (a, b, c), tables in SC.comps.items():
        view = SimplicialMap(ProductSset(SC.hom(b, c), SC.hom(a, b)), SC.hom(a, c), values=tables)
        sub = validate_map(view, subject=f"comp({a},{b},{c})")
        for v in sub.violations:
            rep.add(f"comp({a},{b},{c}) simplicial: {v.identity}", v.location, v.detail)
        rep.checked += sub.checked
    for (a, b), H in SC.homs.items():
        for n in range(L + 1):
            ida = SC.identity_cell(a, n)
            idb = SC.identity_cell(b, n)
            for f in range(H.card(n)):
                rep.checked += 1
                if SC.compose(a, a, b, n, f, ida) != f:
                    rep.add("right unit", (a, b, n, f), "f after id differs from f")
                if SC.compose(a, b, b, n, idb, f) != f:
                    rep.add("left unit", (a, b, n, f), "id after f differs from f")
    for a in SC.objects:
        for b in SC.objects:
            for c in SC.objects:
                for d in SC.objects:
                    if any(
                        (p, q) not in SC.homs
                        for p, q in [(a, b), (b, c), (c, d)]
                    ):
                        continue
                    for n in range(L + 1):
                        fs = range(SC.hom(a, b).card(n))
                        gs = range(SC.hom(b, c).card(n))
                        hs = range(SC.hom(c, d).card(n))
                        for f in fs:
                            for g in gs:
                                gf = SC.compose(a, b, c, n, g, f)
                                for h in hs:
                                    rep.checked += 1
                                    lhs = SC.compose(a, c, d, n, h, gf)
                                    rhs = SC.compose(
                                        a, b, d, n, SC.compose(b, c, d, n, h, g), f
                                    )
                                    if lhs != rhs:
                                        rep.add(
                                            "associativity",
                                            (a, b, c, d, n, f, g, h),
                                            f"{lhs} != {rhs}",
                                        )
    return rep


def level_category(SC: SimplicialCategory, q: int) -> FiniteCategory:
    """The ordinary category of level-q hom cells.

    Morphism labels are (source, target, cell) so the same morphism is
    addressable consistently across levels.
    """
    if q > SC.D:
        raise TruncationError(f"level {q} beyond hom truncation {SC.D}")
    homs = {}
    for (a, b), H in SC.homs.items():
        if H.card(q):
            homs[(a, b)] = [(a, b, x) for x in range(H.card(q))]

    def compose_fn(a, b, c, g, f):
        return (a, c, SC.compose(a, b, c, q, g[2], f[2]))

    ids = {a: (a, a, SC.identity_cell(a, q)) for a in SC.objects}
    return FiniteCategory(SC.objects, homs, compose_fn, ids, name=f"{SC.name}_lvl{q}")


def constant_sset(k: int, D: int, labels=None, name: str = "") -> SimplicialSet:
    """k cells at every level with all operators the identity."""
    cards = [k] * (D + 1)
    faces = [[] if n == 0 else [list(range(k)) for _ in range(n + 1)] for n in range(D + 1)]
    degens = [[list(range(k)) for _ in range(n + 1)] if n < D else [] for n in range(D + 1)]
    lab = None if labels is None else [list(labels) for _ in range(D + 1)]
    return SimplicialSet(D, cards, faces, degens, labels=lab, name=name or f"constant({k})")


def discrete_simplicial_category(C: FiniteCategory, D: int) -> SimplicialCategory:
    """Simplicial category with constant homs built from an ordinary category."""
    homs = {}
    for (a, b), labels in C.homs.items():
        homs[(a, b)] = constant_sset(
            len(labels), D, labels=[(a, b, l) for l in labels], name=f"hom({a},{b})"
        )
    comps = {
        (a, b, c): [_comp_table(C, a, b, c)] * (D + 1)
        for a in C.objects
        for b in C.objects
        for c in C.objects
        if (a, b) in homs and (b, c) in homs and (a, c) in homs
    }
    ids = {a: C.homs[(a, a)].index(C.ids[a]) for a in C.objects}
    return SimplicialCategory(C.objects, homs, comps, ids, D, name=f"discrete({C.name})")


class RelativeSimplicialCategory:
    """A simplicial category with a wide simplicial subcategory.

    ``sub[(a, b)]`` lists, per level, the set of hom cells belonging to
    the subcategory. Wideness (each sub hom is a union of connected
    components) is checked by `validate_relative`, not assumed.
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


def validate_relative(R: RelativeSimplicialCategory, subject: str = "") -> ValidationReport:
    """Check the wide-subcategory conditions with witness cells.

    Covers: index validity, closure of each sub hom under faces and
    degeneracies, presence of identities, closure under composition,
    and wideness (each sub hom is exactly the set of cells living in a
    union of connected components).
    """
    rep = ValidationReport(subject or R.name)
    SC = R.cat
    for (a, b), per_level in R.sub.items():
        if (a, b) not in SC.homs:
            rep.add("sub pair exists", (a, b), "sub on an empty hom")
            continue
        H = SC.hom(a, b)
        if len(per_level) != SC.D + 1:
            rep.add("sub shape", (a, b), "per-level list has wrong length")
            continue
        for n in range(SC.D + 1):
            for x in per_level[n]:
                if not 0 <= x < H.card(n):
                    rep.add("sub cell range", (a, b, n, x), "cell out of range")
        for n in range(1, SC.D + 1):
            for x in per_level[n]:
                for i in range(n + 1):
                    rep.checked += 1
                    if H.face(n, i, x) not in per_level[n - 1]:
                        rep.add("sub closed under faces", (a, b, n, i, x), "face escapes sub")
        for n in range(SC.D):
            for x in per_level[n]:
                for i in range(n + 1):
                    rep.checked += 1
                    if H.degen(n, i, x) not in per_level[n + 1]:
                        rep.add("sub closed under degeneracies", (a, b, n, i, x), "degeneracy escapes sub")
    for a in SC.objects:
        for n in range(SC.D + 1):
            rep.checked += 1
            if SC.identity_cell(a, n) not in R.sub_cells(a, a, n):
                rep.add("identities in sub", (a, n), "identity cell missing from sub")
    for (a, b, c), m in SC.comps.items():
        for n in range(SC.D + 1):
            for g in R.sub_cells(b, c, n):
                for f in R.sub_cells(a, b, n):
                    rep.checked += 1
                    if SC.compose(a, b, c, n, g, f) not in R.sub_cells(a, c, n):
                        rep.add("sub closed under composition", (a, b, c, n, g, f), "composite escapes sub")
    for (a, b), H in SC.homs.items():
        classes = _pi0_classes(H)
        kept = {classes[v] for v in R.sub_cells(a, b, 0)}
        for n in range(SC.D + 1):
            in_sub = R.sub_cells(a, b, n)
            for x in range(H.card(n)):
                rep.checked += 1
                belongs = classes[vertices(H, n, x)[0]] in kept
                if belongs and x not in in_sub:
                    rep.add("wideness", (a, b, n, x), "cell in a marked component but not in sub")
                if not belongs and x in in_sub:
                    rep.add("wideness", (a, b, n, x), "sub cell outside the marked components")
    return rep


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
    homs = {}
    for (a, b), m in F.homs.items():
        fa, fb = F.obj[a], F.obj[b]

        def fn(n, x, m=m, fa=fa, fb=fb):
            return G.apply_hom(fa, fb, n, m.apply(n, x))

        homs[(a, b)] = SimplicialMap(
            F.source.hom(a, b), G.target.hom(G.obj[fa], G.obj[fb]), fn=fn, L=m.L
        )
    obj = {a: G.obj[F.obj[a]] for a in F.source.objects}
    return SimplicialFunctor(F.source, G.target, obj, homs)


def validate_functor(F: SimplicialFunctor, subject: str = "functor") -> ValidationReport:
    """Check hom maps are simplicial, identities and composition preserved."""
    rep = ValidationReport(subject)
    S, T = F.source, F.target
    L = S.D
    for (a, b), H in S.homs.items():
        if (a, b) not in F.homs:
            rep.add("hom map present", (a, b), "missing hom component")
            return rep
        sub = validate_map(F.homs[(a, b)], subject=f"hom({a},{b})")
        for v in sub.violations:
            rep.add(f"hom({a},{b}) simplicial: {v.identity}", v.location, v.detail)
        rep.checked += sub.checked
    for a in S.objects:
        rep.checked += 1
        if F.apply_hom(a, a, 0, S.identity_cell(a, 0)) != T.identity_cell(F.obj[a], 0):
            rep.add("identity preserved", (a,), "image of identity vertex differs")
    for (a, b, c) in S.comps.keys():
        fa, fb, fc = F.obj[a], F.obj[b], F.obj[c]
        for n in range(L + 1):
            cg = S.hom(b, c).card(n)
            cf = S.hom(a, b).card(n)
            for g in range(cg):
                for f in range(cf):
                    rep.checked += 1
                    lhs = F.apply_hom(a, c, n, S.compose(a, b, c, n, g, f))
                    rhs = T.compose(
                        fa, fb, fc, n, F.apply_hom(b, c, n, g), F.apply_hom(a, b, n, f)
                    )
                    if lhs != rhs:
                        rep.add("composition preserved", (a, b, c, n, g, f), f"{lhs} != {rhs}")
    return rep


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
    f = tuple(f)
    if len(f) != n_src + 1 or any(f[t] > f[t + 1] for t in range(n_src)):
        raise ValueError("not a monotone vertex map")
    if f and (f[0] < 0 or f[-1] > n_tgt):
        raise ValueError("vertex map out of range")
    S = coherent_path_category(n_src, D)
    T = coherent_path_category(n_tgt, D)
    homs = {}
    for i in range(n_src + 1):
        for j in range(i, n_src + 1):
            homs[(i, j)] = vertex_induced_map(
                S.hom(i, j), T.hom(f[i], f[j]), lambda s: tuple(sorted({f[v] for v in s}))
            )
    return SimplicialFunctor(S, T, {i: f[i] for i in range(n_src + 1)}, homs)


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


def simplex_power_category(n: int, D: int) -> SimplicialCategory:
    """`interval_power_category` with K the n-simplex (the chain gadget)."""
    return simplex_power_category_target(n, n, D)


def comparison_functor(n: int, D: int) -> SimplicialFunctor:
    """The canonical functor from the path gadget to the chain gadget.

    It is `grid_collapse` along the diagonal chain (0, 0), ..., (n, n):
    identity on objects, and a subset S with min i and max j goes to
    the tuple whose coordinate for hop t (listed from t = j down to
    t = i+1) is the largest element of S strictly below t; chains map
    entrywise.
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


@lru_cache(maxsize=None)
def simplex_power_category_target(p: int, q: int, D: int) -> SimplicialCategory:
    """Power gadget on objects 0..p over the q-simplex (cached)."""
    return interval_power_category(p, standard_simplex(q, D), name=f"interval[{p}]^simplex({q})")


def simplex_power_transform(f: Sequence[int], a: int, b: int, D: int) -> SimplicialFunctor:
    """Functor between chain gadgets over a monotone map [a] -> [b].

    Coordinates are pulled from covering hops and relabelled by f in
    the simplex direction; this is the cosimplicial structure under
    which classifying-space cells are functor-valued.
    """
    f = tuple(f)
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
