"""Nerves by chain index against the tuple and label routes they replaced.

`sset.chain_index_nerve` builds every nerve of a category in the
package. The routes below build the same nerves by constructing each
face and degeneracy as a tuple or label and looking it up in a
per-level dict; they are the oracles, compared table for table.
"""
import random

import pytest

from nervekit import (
    FinitePoset,
    SimplicialSet,
    build_example,
    cyclic_group_category,
    levelwise_nerve,
    nerve_cat,
    poset_nerve,
    standard_simplex,
)
from nervekit.discrete import _parse_poset
from test_nerves import _random_poset, _s3_category, category_by_rule


def chain_nerve_by_tuples(m, leq, D, element_labels=None):
    """The nerve of an order on 0..m-1: level n cells are the weakly
    increasing (n+1)-chains in lexicographic order; a face drops an
    entry and a degeneracy repeats one, looked up by tuple."""
    cells = [[(i,) for i in range(m)]]
    for n in range(1, D + 1):
        cells.append([c + (j,) for c in cells[n - 1] for j in range(m) if leq(c[-1], j)])
    idx = [{c: i for i, c in enumerate(lvl)} for lvl in cells]
    cards = [len(lvl) for lvl in cells]
    faces = [[] for _ in range(D + 1)]
    degens = [[] for _ in range(D + 1)]
    for n in range(1, D + 1):
        faces[n] = [[idx[n - 1][c[:i] + c[i + 1 :]] for c in cells[n]] for i in range(n + 1)]
    for n in range(D):
        degens[n] = [[idx[n + 1][c[: i + 1] + c[i:]] for c in cells[n]] for i in range(n + 1)]
    if element_labels is None:
        labels = [list(lvl) for lvl in cells]
    else:
        labels = [[tuple(element_labels[j] for j in c) for c in lvl] for lvl in cells]
    return SimplicialSet(D, cards, faces, degens, labels=labels)


def compose_morphisms(C, g: tuple, f: tuple) -> tuple:
    """g∘f for morphism triples (source, target, label) of a
    `FiniteCategory`, looked up by label in its composition table."""
    if f[1] != g[0]:
        raise ValueError(f"not composable: {f} then {g}")
    a, b, c = f[0], f[1], g[1]
    F, G = C.hom_labels(a, b), C.hom_labels(b, c)
    return (a, c, C.hom_labels(a, c)[C.comps[(a, b, c)][G.index(g[2]) * len(F) + F.index(f[2])]])


def nerve_cat_by_labels(C, D):
    """The nerve of a finite category by labels: level n cells are chains
    (objects, (l1, ..., ln)) of n composable morphism labels, each face
    and degeneracy is built as a label through `compose_morphisms` and
    the identity labels and looked up in a per-level dict."""
    cells = [[((x,), ()) for x in C.objects]]
    for n in range(1, D + 1):
        lvl = []
        for xs, ls in cells[n - 1]:
            for y in C.objects:
                for l in C.hom_labels(xs[-1], y):
                    lvl.append((xs + (y,), ls + (l,)))
        cells.append(lvl)
    idx = [{c: i for i, c in enumerate(lvl)} for lvl in cells]

    def face(n, i, c):
        xs, ls = c
        if i == 0:
            return (xs[1:], ls[1:])
        if i == n:
            return (xs[:-1], ls[:-1])
        g = compose_morphisms(C, (xs[i], xs[i + 1], ls[i]), (xs[i - 1], xs[i], ls[i - 1]))
        return (xs[:i] + xs[i + 1 :], ls[: i - 1] + (g[2],) + ls[i + 1 :])

    def degen(n, i, c):
        xs, ls = c
        return (xs[: i + 1] + xs[i:], ls[:i] + (C.ids[xs[i]],) + ls[i:])

    cards = [len(lvl) for lvl in cells]
    faces = [[] for _ in range(D + 1)]
    degens = [[] for _ in range(D + 1)]
    for n in range(1, D + 1):
        faces[n] = [[idx[n - 1][face(n, i, c)] for c in cells[n]] for i in range(n + 1)]
    for n in range(D):
        degens[n] = [[idx[n + 1][degen(n, i, c)] for c in cells[n]] for i in range(n + 1)]
    return SimplicialSet(D, cards, faces, degens, labels=[list(lvl) for lvl in cells], name=f"nerve({C.name})")


def _assert_same_nerve(X, want):
    assert X.D == want.D
    assert X.cards == want.cards
    assert X.faces == want.faces
    assert X.degens == want.degens
    assert X.labels == want.labels


def _product_group(m1, m2, seed):
    """Z/m1 x Z/m2 as a one-object category, its elements listed in a
    seeded random order, so the identity is rarely the first label."""
    elements = [(a, b) for a in range(m1) for b in range(m2)]
    random.Random(seed).shuffle(elements)
    return category_by_rule(
        ["x"],
        {("x", "x"): elements},
        lambda a, b, c, g, f: ((g[0] + f[0]) % m1, (g[1] + f[1]) % m2),
        {"x": (0, 0)},
        name=f"z{m1}xz{m2}",
    )


@pytest.mark.parametrize("n", range(5))
def test_simplex_nerves_match_tuple_route(n):
    for D in range(6):
        want = chain_nerve_by_tuples(n + 1, lambda a, b: a <= b, D)
        _assert_same_nerve(standard_simplex.__wrapped__(n, D), want)


@pytest.mark.parametrize("seed", range(5))
def test_poset_nerves_match_tuple_route(seed):
    P = _parse_poset(_random_poset(seed)[len("poset:") :])
    want = chain_nerve_by_tuples(len(P), lambda i, j: P._leq[i][j], 4, element_labels=P.elements)
    _assert_same_nerve(poset_nerve(P, 4), want)


CATEGORY_INPUTS = {
    **{f"z{m}": lambda m=m: cyclic_group_category(m) for m in range(1, 5)},
    "z2xz2": lambda: _product_group(2, 2, seed=0),
    "z2xz3": lambda: _product_group(2, 3, seed=1),
    "s3": _s3_category,
}


@pytest.mark.parametrize("name", CATEGORY_INPUTS)
def test_category_nerves_match_label_route(name):
    C = CATEGORY_INPUTS[name]()
    for D in range(5):
        X = nerve_cat(C, D)
        _assert_same_nerve(X, nerve_cat_by_labels(C, D))
        assert X.name == f"nerve({C.name})"


def test_chain_nerves_call_no_label_lookup_or_compose(monkeypatch):
    # the three builders (order, category, levelwise) work on indices
    # alone: no cell is looked up by label and no morphism is composed
    # one chain face at a time
    from nervekit.cat import SimplicialCategory

    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return call

    SC = build_example("bg:z2", max_dim=3).cat
    for cls, name in [(SimplicialSet, "index_of"), (SimplicialCategory, "compose")]:
        monkeypatch.setattr(cls, name, refuse(f"{cls.__name__}.{name}"))
    standard_simplex.__wrapped__(3, 4)
    poset_nerve(FinitePoset("abc", [("a", "b"), ("a", "c")]), 3)
    nerve_cat(_s3_category(), 3)
    levelwise_nerve(SC, 3, 3)
    assert calls == []
