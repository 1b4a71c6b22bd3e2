"""Connected components: `pi0`, and the subcategory they span.

`pi0` partitions the vertices of a simplicial set by its edges;
`from_level_labels` keeps, in each hom, the components meeting the
chosen vertices. ``import nervekit`` does not load this module up
front: the package resolves both names from here on first use.
"""

from __future__ import annotations


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


def pi0(X) -> list[list[int]]:
    """Partition of the vertices by the 1-cell endpoint relation.

    Classes are sorted internally and listed by smallest member.
    """
    roots = _pi0_classes(X)
    groups: dict[int, list[int]] = {}
    for v, r in enumerate(roots):
        groups.setdefault(r, []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def from_level_labels(cat, chosen: dict):
    """The `RelativeSimplicialCategory` spanned by the given vertex sets,
    closed under everything.

    ``chosen[(a, b)]`` is a set of vertices of hom(a, b); the sub
    simplicial sets are the full unions of the connected components
    meeting them (plus identity components).
    """
    from .cat import RelativeSimplicialCategory
    from .spaces import vertices

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
    return RelativeSimplicialCategory(cat, sub)
