"""Finite categories, simplicial categories and relative ones.

Every composition is an index table. A simplicial category stores its
per-level tables, the ``comp`` tables of its JSON document; a finite
category stores one table per triple in the layout of one level, which
its nerve (`nerve_cat`) reads as given. Functors store their hom
maps as value tables too, except `gadgets.simplex_power_transform`'s
maps out of the lazy power homs (see `SimplicialMap`).

``import nervekit`` loads this module with what every verb runs to
build an example, and with `comparison_functor`, `grid_collapse` and
`compose_functors`, which a traced benchmark run wraps where they are
defined (``bench/trace_child.py`` ``TRACED``). The last two import
their bodies from `nervekit.functors` when first called.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .sset import SimplicialSet, chain_index_nerve


class FiniteCategory:
    """An ordinary finite category.

    ``homs`` maps an object pair to its list of morphism labels (missing
    pairs are empty), a morphism's index being its position in that
    list, and ``ids[a]`` is the label of the identity of a.
    ``comps[(a, b, c)]``, one per pair of nonempty homs a -> b -> c, is
    the table of one level of `SimplicialCategory.comps`: entry
    ``g * len(hom(a, b)) + f`` is the index in hom(a, c) of g∘f.
    """

    def __init__(self, objects: Sequence, homs: dict, comps: dict, ids: dict, name: str = ""):
        self.objects = list(objects)
        self.homs = {pair: list(labels) for pair, labels in homs.items() if labels}
        self.comps = dict(comps)
        self.ids = dict(ids)
        self.name = name

    def hom_labels(self, a, b) -> list:
        return self.homs.get((a, b), [])

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<FiniteCategory{tag} objects={len(self.objects)}>"


def cyclic_group_category(m: int, obj="x") -> FiniteCategory:
    """The cyclic group of order m as a one-object groupoid."""
    if m < 1:
        raise ValueError("group order must be >= 1")
    table = [(g + f) % m for g in range(m) for f in range(m)]
    return FiniteCategory([obj], {(obj, obj): list(range(m))}, {(obj, obj, obj): table}, {obj: 0}, name=f"z{m}")


def nerve_cat(C: FiniteCategory, D: int) -> SimplicialSet:
    """Nerve of a finite category, truncated at level D.

    Level n cells are chains (objects, (l1, ..., ln)) of n composable
    morphism labels, in the order and with the operators of
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
    """Labels (objects, labels) of the chains of `chain_index_nerve` up
    to level D, given its ``ends`` and the hom labels by index pair."""
    steps = [[(y, l) for y, h in zip(objects, row) for l in h] for row in homs]
    labels = [[((x,), ()) for x in objects]]
    for n in range(D):
        shared: dict = {}  # one tuple per chain of objects
        labels.append([(shared.setdefault(o := xs + (y,), o), ms + (l,))
                       for (xs, ms), e in zip(labels[n], ends[n]) for y, l in steps[e]])
    return labels


@lru_cache(maxsize=None)
def _empty(D: int) -> SimplicialSet:
    return SimplicialSet.empty(D)


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


def compose_functors(G: SimplicialFunctor, F: SimplicialFunctor) -> SimplicialFunctor:
    """G after F, each hom map G's applied to every entry of F's table."""
    from .functors import _compose_functors

    return _compose_functors(G, F)


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


def grid_collapse(p: int, q: int, tau: Sequence, D: int) -> SimplicialFunctor:
    """Composite functor out of the path gadget of a grid chain.

    ``tau`` is a weakly increasing chain in [p] x [q] of length r+1.
    The result is the functor from `coherent_path_category(r, D)` to
    the power gadget over the q-simplex on objects 0..p: objects go to
    first coordinates; a subset S maps, per hop t, to the largest
    second coordinate of tau(S) whose first coordinate is strictly
    below t; chains map entrywise.
    """
    from .functors import _grid_collapse

    return _grid_collapse(p, q, tau, D)
