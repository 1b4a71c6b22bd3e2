"""Simplicial functors: composites, equality and the grid collapse.

A functor's hom maps are value tables (`SimplicialMap` with
``values``), composed by gather (`cat.compose_functors`) and compared
as whole tables (`functors_equal`). `cat.grid_collapse` is the
composite functor out of the path gadget of a grid chain, collapsing
to the first grid coordinate; `cat.comparison_functor` is its diagonal
case. The closed forms that the coherent nerve and the comparison map
evaluate instead live in `nervekit.comparison`.

``import nervekit`` does not load this module up front: `nervekit.cat`
keeps the traced entry points `compose_functors` and `grid_collapse`,
which import their bodies from here when first called, and the
package resolves the other names from here on first use.
"""

from __future__ import annotations

from typing import Sequence

from .cat import SimplicialCategory
from .comparison import _check_grid_chain
from .horns import standard_simplex
from .maps import compose_maps
from .sset import SimplicialMap


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


def _compose_functors(G: SimplicialFunctor, F: SimplicialFunctor) -> SimplicialFunctor:
    # the body of `cat.compose_functors`
    homs = {(a, b): compose_maps(G.homs[(F.obj[a], F.obj[b])], m) for (a, b), m in F.homs.items()}
    obj = {a: G.obj[F.obj[a]] for a in F.source.objects}
    return SimplicialFunctor(F.source, G.target, obj, homs)


def functors_equal(F: SimplicialFunctor, G: SimplicialFunctor) -> bool:
    """Equal object maps and equal hom maps, compared as full value tables."""
    if F.obj != G.obj or F.homs.keys() != G.homs.keys():
        return False
    return all(F.homs[p].key() == G.homs[p].key() for p in F.homs)


def _grid_collapse(p: int, q: int, tau: Sequence, D: int) -> SimplicialFunctor:
    # the body of `cat.grid_collapse`
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
