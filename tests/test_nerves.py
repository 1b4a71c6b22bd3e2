"""Nerve constructions and the comparison machinery between them."""
import functools
import itertools

import pytest

from nervekit import (
    build_example,
    classification_comparison,
    classification_diagram,
    classifying_space,
    coherent_nerve,
    comparison_map,
    consistency_check,
    diagonal,
    levelwise_nerve,
    validate_map,
    validate_sset,
)


def test_coherent_nerve_counts(z2_rel_d3):
    hc = coherent_nerve(z2_rel_d3.cat, 3)
    assert hc.counts() == (1, 1, 2, 8)
    assert validate_sset(hc).ok


def test_classifying_space_counts(z2_rel_d3):
    B = classifying_space(z2_rel_d3.cat, 3)
    assert B.counts() == (1, 2, 16, 512)
    assert validate_sset(B).ok


def test_coherent_nerve_of_discrete_is_ordinary_nerve(poset012):
    hc = coherent_nerve(poset012.cat, 2)
    # multichains in a three element chain
    assert hc.counts() == (3, 6, 10)
    assert validate_sset(hc).ok


@functools.lru_cache(maxsize=None)
def _weak_generator_chains(i: int, j: int, D: int) -> tuple:
    """Per level up to D, every weakly increasing hom chain of pair (i, j)
    starting at the bottom subset, degenerate chains included."""
    from nervekit.posets import path_poset

    P = path_poset(i, j)
    per_level = [((P.elements[0],),)]
    for _ in range(D):
        per_level.append(tuple(c + (t,) for c in per_level[-1] for t in P.elements if set(c[-1]) <= set(t)))
    return tuple(per_level)


def _hc_level_by_recursion(SC, n: int, filled: list | None = None) -> list[tuple]:
    """The cells of one coherent-nerve level by the recursive search,
    two frames per generator chain: the oracle of `coherent._hc_level`.

    Each pair keeps a value on every weakly increasing generator chain
    up to D, the degenerate ones filled by `fill_degenerate`. When
    ``filled`` is a list, it gets, per cell, those values as a dict from
    (i, j, chain) to value, identity pairs included.
    """
    from nervekit.comparison import _generator_slots

    D = SC.D
    slots, _ = _generator_slots(n, D)
    pairs = [(i, j) for s in range(1, n + 1) for i in range(n + 1 - s) for j in [i + s]]
    segments = []
    for (i, j) in pairs:
        per_level = _weak_generator_chains(i, j, D)
        for m in range(D + 1):
            nondeg = [c for c in per_level[m] if len(set(c)) == len(c)]
            segments.append((i, j, m, nondeg))
    results: list[tuple] = []
    for objs in itertools.product(SC.objects, repeat=n + 1):
        if any(SC.hom(objs[i], objs[j]).card(0) == 0 for (i, j) in pairs):
            continue
        values = {}
        for i in range(n + 1):
            d = {}
            for m, level in enumerate(_weak_generator_chains(i, i, D)):
                for c in level:
                    d[c] = SC.identity_cell(objs[i], m)
            values[(i, i)] = d
        for (i, j) in pairs:
            values[(i, j)] = {}

        def value_of(i, j, m, chain):
            bottom = chain[0]
            if bottom == ((i,) if i == j else (i, j)):
                return values[(i, j)][chain]
            t = bottom[1]
            left = tuple(tuple(v for v in S if v <= t) for S in chain)
            right = tuple(tuple(v for v in S if v >= t) for S in chain)
            return SC.compose(
                objs[i], objs[t], objs[j], m,
                value_of(t, j, m, right), value_of(i, t, m, left),
            )

        def fill_degenerate(i, j, m):
            # unconditional recompute: a later branch of the search must
            # not see values filled from an abandoned one
            if m == 0:
                return
            H = SC.hom(objs[i], objs[j])
            d = values[(i, j)]
            for c in _weak_generator_chains(i, j, D)[m]:
                for t in range(m):
                    if c[t] == c[t + 1]:
                        lower = c[:t] + c[t + 1 :]
                        d[c] = H.degen(m - 1, t, d[lower])
                        break

        def rec(k: int):
            if k == len(segments):
                results.append((objs, tuple(values[(i, j)][c] for i, j, _, c in slots)))
                if filled is not None:
                    filled.append({(i, j, c): v for (i, j), d in values.items() for c, v in d.items()})
                return
            i, j, m, chains = segments[k]
            H = SC.hom(objs[i], objs[j])

            def assign(idx: int):
                if idx == len(chains):
                    fill_degenerate(i, j, m)
                    rec(k + 1)
                    return
                c = chains[idx]
                if m == 0:
                    for v in range(H.card(0)):
                        values[(i, j)][c] = v
                        assign(idx + 1)
                    return
                want = [value_of(i, j, m - 1, c[:r] + c[r + 1 :]) for r in range(m + 1)]
                for v in range(H.card(m)):
                    if all(H.face(m, r, v) == want[r] for r in range(m + 1)):
                        values[(i, j)][c] = v
                        assign(idx + 1)

            assign(0)

        rec(0)
    return results


# (example, truncation, top level): every level up to the top is compared
HC_LEVEL_INPUTS = [
    ("bg:z2", 3, 4),
    ("bg:z3", 3, 3),
    ("discrete:poset012", 4, 5),
    ("discrete:antichain3", 2, 3),
    ("two-object-interval", 3, 4),
    ("poset:a<b,a<c,b<d,c<d", 4, 4),
    ("discrete:s3", 3, 4),  # the one input whose composition does not commute
]


def _cell_value_misses(SC, cells, filled) -> list:
    """The (cell, i, j, chain) where `comparison._cell_value` differs from
    the oracle's filled value, over every weakly increasing generator
    chain up to D."""
    import nervekit.comparison as comparison_mod

    return [
        (cell, i, j, c)
        for cell, values in zip(cells, filled)
        for (i, j, c), v in values.items()
        if comparison_mod._cell_value(SC, cell, i, j, len(c) - 1, c) != v
    ]


@pytest.mark.parametrize("name, D, top", HC_LEVEL_INPUTS)
def test_hc_level_matches_the_recursive_search(name, D, top):
    # the cells store only nondegenerate chains; `_cell_value` must give
    # the oracle's value on every chain, degenerate ones included
    from nervekit.coherent import _hc_level

    SC = _category(name, D)
    for n in range(top + 1):
        filled = []
        want = _hc_level_by_recursion(SC, n, filled)
        assert _hc_level(SC, n) == want, (name, n)
        assert _cell_value_misses(SC, want, filled) == [], (name, n)


def test_cell_value_that_skips_the_degeneracy_is_caught(monkeypatch):
    # a degenerate chain planted to take the value of the chain without
    # its repeat, where s_t of that value is due
    import nervekit.comparison as comparison_mod

    value = comparison_mod._cell_value

    def skipped(SC, cell, i, j, m, chain):
        if i != j and (i, j, chain) not in comparison_mod._generator_slots(len(cell[0]) - 1, SC.D)[1]:
            t = next(t for t in range(m) if chain[t] == chain[t + 1])
            return skipped(SC, cell, i, j, m - 1, chain[:t] + chain[t + 1 :])
        return value(SC, cell, i, j, m, chain)

    SC = _category("bg:z3", 3)
    filled = []
    cells = _hc_level_by_recursion(SC, 3, filled)
    monkeypatch.setattr(comparison_mod, "_cell_value", skipped)
    assert _cell_value_misses(SC, cells, filled) != []


def test_generator_slots_are_the_nondegenerate_chains():
    from nervekit.comparison import _generator_slots

    counts = {1: 1, 2: 4, 3: 13, 4: 48, 5: 233}
    for n, count in counts.items():
        for D in (n - 1, n + 1):
            want = [
                (i, j, m, c)
                for i in range(n + 1)
                for j in range(i + 1, n + 1)
                for m, level in enumerate(_weak_generator_chains(i, j, D))
                for c in level
                if len(set(c)) == len(c)
            ]
            slots, position = _generator_slots(n, D)
            assert list(slots) == want and len(slots) == count, (n, D)
            assert all(position[(i, j, c)] == s for s, (i, j, _, c) in enumerate(slots))
    hc = coherent_nerve(_category("discrete:poset012", 4), 5)
    for n, count in counts.items():
        assert {len(hc.label(n, x)[1]) for x in range(hc.card(n))} == {count}, n


@pytest.mark.parametrize("m, top", [(2, 5), (3, 4)])
def test_hc_level_counts_of_cyclic_groups(m, top):
    # the hom of bg:z<m> is the nerve of Z/m, with one vertex, so an
    # n-cell is free on one edge for each pair of span 2 or more: level n
    # has m^(n(n-1)/2) cells
    from nervekit.coherent import _hc_level

    SC = build_example(f"bg:z{m}", max_dim=top - 1).cat
    assert [len(_hc_level(SC, n)) for n in range(top + 1)] == [m ** (n * (n - 1) // 2) for n in range(top + 1)]


@pytest.mark.parametrize("name", ["bg:z2", "discrete:poset012", "poset:a<b,a<c,b<d,c<d"])
def test_hc_level_search_is_not_bounded_by_the_recursion_limit(name):
    # the recursive search needs about 130 frames for a 4-cell at D = 3;
    # the explicit stack needs a few, for `_cell_value` on face 0's hops
    import sys

    from nervekit.coherent import _hc_level

    SC = build_example(name, max_dim=3).cat
    want = _hc_level_by_recursion(SC, 4)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        with pytest.raises(RecursionError):
            _hc_level_by_recursion(SC, 4)
        got = _hc_level(SC, 4)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_binerve_row_is_level_nerve(z2_rel):
    from nervekit import level_category, nerve_cat

    NB = levelwise_nerve(z2_rel.cat, 2, 2)
    for q in range(3):
        row = NB.row(q)
        want = nerve_cat(level_category(z2_rel.cat, q), 2)
        assert row.counts() == want.counts()


@pytest.mark.parametrize("name", ["bg:z2", "poset:a<b,a<c,b<d,c<d"])
def test_chain_cells_are_labelled_objects_and_cells(name):
    # one label shape for every chain cell: (objects, cells) in the
    # nerves of categories and the levelwise nerve, (objects, values)
    # in the coherent nerve, the objects always n + 1 of them
    from nervekit import comparison_cell, level_category, nerve_cat

    SC = build_example(name, max_dim=3).cat
    X = levelwise_nerve(SC, 3, 3)
    rows = [nerve_cat(level_category(SC, q), 3) for q in range(4)]
    for q, N in enumerate(rows):
        row = X.row(q)
        assert (row.cards, row.faces, row.degens, row.labels) == (N.cards, N.faces, N.degens, N.labels)
    # the hom of bg:z2 is nerve_cat of Z/2
    for S in rows + [coherent_nerve(SC, 3)] + ([SC.hom("x", "x")] if name == "bg:z2" else []):
        for n in range(S.D + 1):
            assert S.card(n) > 0 and all(len(label) == 2 and len(label[0]) == n + 1 for label in S.labels[n])
    for p in range(4):
        for q in range(4):
            labels = X.labels[p][q]
            assert all(len(objects) == p + 1 and len(cells) == p for objects, cells in labels)
            # the cells over one objects tuple share it
            assert len({id(objects) for objects, _ in labels}) == len({objects for objects, _ in labels})
    for k in range(4):
        for label in X.labels[k][k]:
            assert comparison_cell(SC, label, k)[0] == label[0]


def test_comparison_map_validates(z2_rel_d3, poset012):
    f = comparison_map(z2_rel_d3.cat, 3)
    assert validate_map(f).ok
    g = comparison_map(poset012.cat, 2)
    assert validate_map(g).ok


def test_comparison_map_bijective_on_discrete(poset01, poset012):
    # a discrete enrichment collapses: both nerves agree with the plain
    # nerve of the underlying category and the comparison is a bijection
    for R in (poset01, poset012):
        SC = R.cat
        hc = coherent_nerve(SC, 2)
        B = classifying_space(SC, 2)
        assert hc.counts() == B.counts()
        f = comparison_map(SC, 2)
        for n in range(3):
            images = [f.apply(n, x) for x in range(B.card(n))]
            assert sorted(images) == list(range(hc.card(n)))


def test_consistency_of_comparison_routes(z2_rel_d3):
    rep = consistency_check(z2_rel_d3.cat, comparison_map(z2_rel_d3.cat, 2))
    assert rep.ok
    assert rep.bounds["diagonal"] == 19


def test_classification_diagram_marking(z2_rel):
    M = classification_diagram(z2_rel, 1, 1)
    # a square into the coherent nerve is two triangles sharing a free
    # diagonal, so two binary choices
    assert M.space.card(1, 1) == 4
    assert all(M.is_marked(1, x) for x in range(4))
    assert M.validate().ok


def test_classification_diagram_identity_marking(poset01):
    M = classification_diagram(poset01, 1, 1)
    assert M.validate().ok
    # only the degenerate edges are marked for an identities marking
    for q in range(2):
        for x in range(M.space.card(1, q)):
            marked = M.is_marked(q, x)
            degen = M.space.row(q).is_degenerate(1, x)
            assert marked == degen


def test_classification_comparison_small(z2_rel, poset01):
    rep = classification_comparison(z2_rel, 1, 1)
    assert rep.ok
    rep = classification_comparison(poset01, 1, 1)
    assert rep.ok


def test_classification_comparison_requires_budget(z2_rel):
    from nervekit import TruncationError

    with pytest.raises(TruncationError):
        classification_comparison(z2_rel, 2, 2)


def test_diagonal_of_binerve_is_classifying_space(z2_rel):
    NB = levelwise_nerve(z2_rel.cat, 2, 2)
    d = diagonal(NB)
    B = classifying_space(z2_rel.cat, 2)
    assert d.counts() == B.counts()
    for n in range(3):
        for x in range(d.card(n)):
            for i in range(n + 1) if n else []:
                assert d.face(n, i, x) == B.face(n, i, x)


# --- the functor route, kept as an oracle for the closed-form cells ---------


def _category(name, D):
    """A named example, S3 with constant homs, the path category of [2],
    or the seeded random poset of `_random_poset`.

    S3 is the only input here whose composition does not commute, so
    it is the one that sees the order of the hop fold. In the path
    category a cell index names unrelated chains at different levels,
    so it is the one that sees the level in a composition memo key.
    """
    from nervekit import coherent_path_category, discrete_simplicial_category

    if name == "paths[2]":
        return coherent_path_category(2, D)
    if name.startswith("random-poset:"):
        return build_example(_random_poset(int(name.split(":")[1])), max_dim=D).cat
    if name != "discrete:s3":
        return build_example(name, max_dim=D).cat
    return discrete_simplicial_category(_s3_category(), D)


def category_by_rule(objects, homs, rule, ids, name):
    """The `FiniteCategory` whose composition tables tabulate a label
    rule: ``rule(a, b, c, g, f)`` is the label of g∘f in hom(a, c)."""
    from nervekit import FiniteCategory

    homs = {pair: list(labels) for pair, labels in homs.items() if labels}
    comps = {
        (a, b, c): [homs[(a, c)].index(rule(a, b, c, g, f)) for g in homs[(b, c)] for f in homs[(a, b)]]
        for a in objects
        for b in objects
        for c in objects
        if (a, b) in homs and (b, c) in homs
    }
    return FiniteCategory(objects, homs, comps, ids, name=name)


def _s3_category():
    """The symmetric group on three letters as a one-object category."""
    perms = list(itertools.permutations(range(3)))
    return category_by_rule(
        ["x"],
        {("x", "x"): perms},
        lambda a, b, c, g, f: tuple(g[f[v]] for v in range(3)),
        {"x": (0, 1, 2)},
        name="s3",
    )


def _random_poset(seed):
    """A ``poset:`` example on four to six letters, from a seeded stdlib
    `random`: a random order of the letters, each pair related along it
    with probability 0.5, so the object order (sorted names) is not a
    linear extension and out-degrees are uneven."""
    import random

    rng = random.Random(seed)
    letters = list("abcdef"[: rng.randint(4, 6)])
    rng.shuffle(letters)
    relations = [
        f"{lo}<{hi}" for i, lo in enumerate(letters) for hi in letters[i + 1 :] if rng.random() < 0.5
    ]
    return "poset:" + ",".join(letters + relations)


def chain_functor(SC, label, p, q):
    """The functor out of the interval power gadget classifying a chain.

    ``label`` is a p-chain of level-q morphisms. A power cell evaluates
    by acting each hop's coordinate on that hop's morphism and folding
    with composition, later hops composed on the left.
    """
    from nervekit import SimplicialFunctor, SimplicialMap, act, standard_simplex
    from nervekit.gadgets import simplex_power_category_target

    objs, gcells = label
    T = simplex_power_category_target(p, q, SC.D)
    Dq = standard_simplex(q, SC.D)
    homs = {}
    for i in range(p + 1):
        for j in range(i, p + 1):
            src = T.hom(i, j)

            def fn(m, x, i=i, j=j, src=src):
                cs = src.coords(m, x)
                acc = None
                for t in range(i + 1, j + 1):
                    u = Dq.label(m, cs[j - t])
                    w = act(SC.hom(objs[t - 1], objs[t]), q, gcells[t - 1], u)
                    if acc is None:
                        acc = w
                    else:
                        acc = SC.compose(objs[i], objs[t - 1], objs[t], m, w, acc)
                if acc is None:
                    return SC.identity_cell(objs[i], m)
                return acc

            homs[(i, j)] = SimplicialMap(src, SC.hom(objs[i], objs[j]), fn=fn, L=SC.D)
    return SimplicialFunctor(T, SC, {i: objs[i] for i in range(p + 1)}, homs)


def hc_from_simplicial_functor(F, n, target):
    """The coherent-nerve cell (objects, values) of a functor out of the path gadget.

    Walks pairs i < j, then level and the nondegenerate generator chains
    of `comparison.generator_chains` in that order, so it also pins the
    slot order of the cells.
    """
    from nervekit.comparison import generator_chains

    D = target.D
    values = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            H = F.source.hom(i, j)
            for m, level in enumerate(generator_chains(i, j, D)):
                for c in level:
                    values.append(F.homs[(i, j)].apply(m, H.index_of(m, c)))
    return tuple(F.obj[i] for i in range(n + 1)), tuple(values)


def _compose_lazily(G, F):
    """G after F with each hom map a closure over both, evaluated only
    at the cells read: the oracle routes read a few cells of composites
    whose tables `cat.compose_functors` would fill in whole."""
    from nervekit import SimplicialFunctor, SimplicialMap

    homs = {}
    for (a, b), m in F.homs.items():
        fa, fb = F.obj[a], F.obj[b]

        def fn(n, x, m=m, fa=fa, fb=fb):
            return G.apply_hom(fa, fb, n, m.apply(n, x))

        homs[(a, b)] = SimplicialMap(F.source.hom(a, b), G.target.hom(G.obj[fa], G.obj[fb]), fn=fn, L=m.L)
    return SimplicialFunctor(F.source, G.target, {a: G.obj[F.obj[a]] for a in F.source.objects}, homs)


def _functor_route(SC, label, p, q, gadget, n):
    return hc_from_simplicial_functor(_compose_lazily(chain_functor(SC, label, p, q), gadget), n, SC)


@pytest.mark.parametrize(
    "name, L",
    [
        ("bg:z2", 3),
        ("bg:z3", 2),
        ("discrete:poset012", 2),
        ("two-object-interval", 2),
        ("discrete:s3", 3),
        ("paths[2]", 3),
    ],
)
def test_comparison_cells_match_functor_route(name, L):
    from nervekit import comparison_cell, comparison_functor

    SC = _category(name, L)
    f = comparison_map(SC, L)
    for k in range(L + 1):
        cf = comparison_functor(k, SC.D)
        for x in range(f.source.card(k)):
            label = f.source.label(k, x)
            want = _functor_route(SC, label, k, k, cf, k)
            assert comparison_cell(SC, label, k) == want
            assert f.target.label(k, f.apply(k, x)) == want


@pytest.mark.parametrize(
    "name", ["bg:z2", "bg:z3", "discrete:poset012", "two-object-interval", "discrete:s3", "paths[2]"]
)
def test_theta_cells_match_functor_route(name):
    from nervekit import grid_collapse, theta_cell_value
    from nervekit.classification import _nondeg_grid_chains
    from nervekit.comparison import _cell_from_plan, _theta_plan

    SC = _category(name, 3)
    X = levelwise_nerve(SC, 3, 3)
    memo = {}  # one memo across bidegrees, as the checks share theirs
    checked = 0
    for p in range(4):
        for q in range(4 - p):
            chains = _nondeg_grid_chains(p, q)
            collapses = [grid_collapse(p, q, tau, SC.D) for tau in chains]
            for x in range(X.card(p, q)):
                label = X.label(p, q, x)
                for tau, collapse in zip(chains, collapses):
                    want = _functor_route(SC, label, p, q, collapse, len(tau) - 1)
                    assert theta_cell_value(SC, label, p, q, tau) == want
                    assert _cell_from_plan(SC, label, q, _theta_plan(p, q, tau, SC.D), memo) == want
                    checked += 1
    assert checked > 0


def _interval_functor(D, p, q, p2, q2, vp, vq):
    """The interval transform [p2] over the q2-simplex -> [p] over the q-simplex."""
    from nervekit import standard_simplex
    from nervekit.gadgets import _interval_transform, interval_power_category

    Kq, Kq2 = standard_simplex(q, D), standard_simplex(q2, D)
    return _interval_transform(
        interval_power_category(p2, Kq2),
        interval_power_category(p, Kq),
        vp,
        Kq2,
        Kq,
        lambda u: tuple(vq[v] for v in u),
    )


def _reindexed_functor_route(SC, label, p, q, q2, J):
    """`chain_functor` after the interval transform ``J``, on the top
    grid cell: the chain (objects, cells) it classifies."""
    F = _compose_lazily(chain_functor(SC, label, p, q), J)
    cells = []
    for t in range(1, len(F.obj)):
        H = F.source.hom(t - 1, t)
        top = H.K.index_of(q2, tuple(range(q2 + 1)))
        cells.append(F.homs[(t - 1, t)].apply(q2, H.index(q2, (top,))))
    return tuple(F.obj[t] for t in range(len(F.obj))), tuple(cells)


@pytest.mark.parametrize("name", ["bg:z2", "discrete:s3", "paths[2]"])
def test_reindexed_chains_match_functor_route(name):
    from nervekit.classification import _grid_op, _ops_at, _reindex_plan
    from nervekit.comparison import _cell_from_plan

    SC = _category(name, 4)
    gadgets = {}
    memo = {}  # one memo across bidegrees, as the theta sweep shares its own
    checked = 0
    # the rectangles with P + Q = 4 cover every bidegree with p + q <= 4
    for P in range(5):
        X = levelwise_nerve(SC, P, 4 - P)
        for p in range(P + 1):
            for q in range(4 - P + 1):
                for x in range(X.card(p, q)):
                    label = X.label(p, q, x)
                    for kind, i, _ in _ops_at(X, p, q):
                        (p2, q2), vp, vq = _grid_op(p, q, kind, i)
                        key = (p, q, kind, i)
                        if key not in gadgets:
                            gadgets[key] = _interval_functor(SC.D, p, q, p2, q2, vp, vq)
                        want = _reindexed_functor_route(SC, label, p, q, q2, gadgets[key])
                        assert _cell_from_plan(SC, label, q, _reindex_plan(vp, vq), memo) == want
                        checked += 1
    assert checked > 0


def _swap_first_differing(rows):
    """Swap the first two differing entries of the first row that has them."""
    for row in rows:
        for x in range(1, len(row)):
            if row[x] != row[0]:
                row[0], row[x] = row[x], row[0]
                return
    raise AssertionError("no row with two different entries")


# with one object, faces into column 0 or row 0 are constant, hence the bidegrees
@pytest.mark.parametrize("family, P, Q", [("hfaces", 2, 1), ("vfaces", 1, 2)])
def test_chain_identity_catches_a_swapped_face(z2_rel_d3, monkeypatch, family, P, Q):
    import nervekit.classification as cls_mod

    build = cls_mod.levelwise_nerve_marked

    def mutated(*args):
        M = build(*args)
        tables = getattr(M.space, family)
        _swap_first_differing([row for col in tables for per_q in col for row in per_q])
        return M

    monkeypatch.setattr(cls_mod, "levelwise_nerve_marked", mutated)
    rep = classification_comparison(z2_rel_d3, P, Q)
    assert rep.verdict == "fail"
    assert any(w["reason"] == "chain identity" for w in rep.witnesses)


def test_theta_cell_value_rejects_bad_grid_chains(z2_rel_d3):
    from nervekit import theta_cell_value

    SC = z2_rel_d3.cat
    label = levelwise_nerve(SC, 1, 1).label(1, 1, 0)
    for tau in [(), ((0, 0), (2, 1)), ((1, 0), (0, 1))]:
        with pytest.raises(ValueError):
            theta_cell_value(SC, label, 1, 1, tau)


def test_consistency_check_builds_no_functors(z2_rel_d3, z2_rel, monkeypatch):
    import sys

    import nervekit.cat as cat_mod
    import nervekit.comparison as comparison_mod
    import nervekit.nerves as nerves_mod

    none = {"comparison_functor": 0, "compose_functors": 0, "grid_collapse": 0, "chain_functor": 0, "_compose_lazily": 0}
    calls = dict(none)
    # comparison_functor is cached; an earlier test may have built the
    # functor the last check below counts the grid collapse of
    cat_mod.comparison_functor.cache_clear()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        for mod in (cat_mod, nerves_mod, comparison_mod, sys.modules[__name__]):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    rep = consistency_check(z2_rel_d3.cat, comparison_map(z2_rel_d3.cat, 3))
    assert rep.ok
    assert rep.bounds == {"diagonal": 531, "vertex_slices": 2629, "row_restrictions": 2629}
    assert calls == none
    assert classification_comparison(z2_rel, 1, 1).ok
    assert calls == none
    # the counters do see calls made through the functor route, whose
    # comparison functor is the grid collapse along the diagonal chain
    # and which composes lazily
    label = levelwise_nerve(z2_rel.cat, 1, 1).label(1, 1, 0)
    _functor_route(z2_rel.cat, label, 1, 1, cat_mod.comparison_functor(1, z2_rel.cat.D), 1)
    assert calls == {**none, "comparison_functor": 1, "grid_collapse": 1, "chain_functor": 1, "_compose_lazily": 1}


def _theta_cell(comparison_mod, SC, label, p, q, tau, memo):
    return comparison_mod._cell_from_plan(SC, label, q, comparison_mod._theta_plan(p, q, tau, SC.D), memo)


def _consistency_check_by_instance(SC, f):
    """Verdict, bounds and witnesses of `consistency_check` by the slow
    route: both sides of every instance are built and compared, (a)
    reading the cell the map f stores. Every helper is looked up through
    the module that holds it, so planted faults reach it. Every instance
    is counted, and the first nine failures are kept as witnesses."""
    import nervekit.comparison as comparison_mod
    import nervekit.nerves as nerves_mod
    from nervekit import act

    L = f.L
    X = nerves_mod.levelwise_nerve(SC, L, L)
    failures = []
    counts = {"diagonal": 0, "vertex_slices": 0, "row_restrictions": 0}
    memo = {}
    for k in range(L + 1):
        tau = tuple((t, t) for t in range(k + 1))
        for x in range(X.card(k, k)):
            label = X.label(k, k, x)
            lhs = _theta_cell(comparison_mod, SC, label, k, k, tau, memo)
            rhs = f.target.label(k, f.apply(k, x))
            counts["diagonal"] += 1
            if lhs != rhs:
                failures.append({"reason": "diagonal route", "level": k, "cell": x})
    for p in range(L + 1):
        for q in range(L + 1):
            for x in range(X.card(p, q)):
                label = X.label(p, q, x)
                objs = label[0]
                for i in range(p + 1):
                    tau = tuple((i, b) for b in range(q + 1))
                    F = _theta_cell(comparison_mod, SC, label, p, q, tau, memo)
                    counts["vertex_slices"] += 1
                    if F != comparison_mod.hc_constant(SC, objs[i], q):
                        failures.append(
                            {"reason": "vertex slice", "bidegree": [p, q], "cell": x, "vertex": i}
                        )
    for m in range(L + 1):
        for n in range(L + 1):
            col = X.column(m)
            for x in range(X.card(m, n)):
                objs, cells = X.label(m, n, x)
                for i in range(n + 1):
                    z = act(col, n, x, (i,) * (m + 1))
                    lhs = comparison_mod._comparison_cell(SC, X.label(m, m, z), m, memo)
                    level0 = (
                        objs,
                        tuple(act(SC.hom(a, b), n, c, (i,)) for a, b, c in zip(objs, objs[1:], cells)),
                    )
                    rhs = comparison_mod.hc_from_level0_chain(SC, level0, m)
                    counts["row_restrictions"] += 1
                    if lhs != rhs:
                        failures.append(
                            {"reason": "row restriction", "bidegree": [m, n], "cell": x, "vertex": i}
                        )
    return ("fail" if failures else "pass"), counts, failures[:9]


def _assert_matches_instance_route(SC, f):
    rep = consistency_check(SC, f)
    verdict, bounds, witnesses = _consistency_check_by_instance(SC, f)
    assert (rep.verdict, rep.bounds, rep.witnesses) == (verdict, bounds, witnesses)
    return rep


@pytest.mark.parametrize(
    "name, L", [("bg:z2", 3), ("bg:z3", 2), ("discrete:poset012", 3), ("two-object-interval", 2)]
)
def test_consistency_check_matches_instance_route(name, L):
    SC = build_example(name, max_dim=L).cat
    rep = _assert_matches_instance_route(SC, comparison_map(SC, L))
    assert rep.ok


def _max_monoid(D):
    # one object whose hom is the nerve of 0 < 1, composed by levelwise
    # max with unit 0; unlike every generator, its hom has two vertices,
    # so the level-0 restriction of a hop depends on the vertex
    from nervekit import standard_simplex
    from nervekit.cat import SimplicialCategory

    H = standard_simplex(1, D)
    cells = [range(H.card(n)) for n in range(D + 1)]
    comp = [
        [H.index_of(n, tuple(map(max, H.label(n, g), H.label(n, f)))) for g in cells[n] for f in cells[n]]
        for n in range(D + 1)
    ]
    return SimplicialCategory(
        ["x"], {("x", "x"): H}, {("x", "x", "x"): comp}, {"x": H.index_of(0, (0,))}, D, name="max-monoid"
    )


def test_consistency_check_matches_instance_route_on_a_two_vertex_hom():
    from nervekit.axioms import validate_simplicial_category

    SC = _max_monoid(3)
    assert validate_simplicial_category(SC).ok
    rep = _assert_matches_instance_route(SC, comparison_map(SC, 3))
    assert rep.ok
    assert rep.bounds == {"diagonal": 145, "vertex_slices": 1090, "row_restrictions": 974}


def test_consistency_check_catches_a_wrong_map_cell(z2_rel_d3):
    # check (a) reads the cells the map stores: one level-2 value moved
    # to the other coherent-nerve 2-cell fails exactly that diagonal cell
    SC = z2_rel_d3.cat
    f = comparison_map(SC, 3)
    f.values[2][5] = 1 - f.values[2][5]
    rep = _assert_matches_instance_route(SC, f)
    assert rep.verdict == "fail"
    assert rep.witnesses == [{"reason": "diagonal route", "level": 2, "cell": 5}]


def test_consistency_check_reports_diagonal_witnesses_by_cell():
    # hom(0, 1) has two vertices and object 1 maps to 1 and to 2, so the
    # chains over one object tuple are not consecutive at level 2: the
    # batched fold yields them group by group, yet the witnesses of two
    # planted cells it visits out of order still come by cell
    from nervekit import standard_simplex
    from nervekit.gadgets import interval_power_category

    SC = interval_power_category(2, standard_simplex(1, 2))
    f = comparison_map(SC, 2)
    groups = {}
    for x, (objs, _) in enumerate(f.source.labels[2]):
        groups.setdefault(objs, []).append(x)
    order = [x for xs in groups.values() for x in xs]
    t = next(t for t in range(len(order) - 1) if order[t] > order[t + 1])
    planted = sorted(order[t : t + 2])
    for x in planted:
        f.values[2][x] = (f.values[2][x] + 1) % f.target.card(2)
    rep = _assert_matches_instance_route(SC, f)
    assert [w["cell"] for w in rep.witnesses] == planted


def test_consistency_check_catches_a_swapped_column_entry(poset012, monkeypatch):
    # a swapped vertical face (d_0 on objects 0 and 1 at row 1) moves the
    # restricted cell z of check (c), but not the level-0 restriction,
    # which reads the homs directly; on bg:z<m> every constant operator
    # passes through the single cell of row 0, so no swap there moves z
    # for some instances and not others
    import nervekit.coherent as coherent_mod
    import nervekit.nerves as nerves_mod

    build = nerves_mod.levelwise_nerve

    def mutated(*args):
        X = build(*args)
        _swap_first_differing([row for col in X.vfaces for per_q in col for row in per_q])
        return X

    # the check's body binds the entry point when its module loads
    for mod in (nerves_mod, coherent_mod):
        monkeypatch.setattr(mod, "levelwise_nerve", mutated)
    rep = _assert_matches_instance_route(poset012.cat, comparison_map(poset012.cat, 2))
    assert rep.verdict == "fail"
    assert {w["reason"] for w in rep.witnesses} == {"row restriction"}


def test_consistency_check_catches_a_wrong_constant_cell(monkeypatch):
    # the constant 1-cell at object 1 sits at object 0: only vertex slices
    # over object 1 fail, so a verdict must not be shared across objects
    import nervekit.comparison as comparison_mod

    constant = comparison_mod.hc_constant

    def mutated(target, obj, n):
        return constant(target, 0 if (obj, n) == (1, 1) else obj, n)

    monkeypatch.setattr(comparison_mod, "hc_constant", mutated)
    SC = build_example("two-object-interval", max_dim=2).cat
    rep = _assert_matches_instance_route(SC, comparison_map(SC, 2))
    assert rep.verdict == "fail"
    assert {w["reason"] for w in rep.witnesses} == {"vertex slice"}


def test_consistency_check_catches_a_wrong_slice_at_one_column(z2_rel_d3, monkeypatch):
    # the collapse along the vertex chain at column 1, row 2, changes one
    # generator value; column 0 reads the same objects and no hop, so a
    # verdict must not be shared across columns
    # the fault is planted on the fold of that chain's collapse plan, which
    # both the check and the instance route evaluate
    import nervekit.comparison as comparison_mod

    fold = comparison_mod._cell_from_plan
    planted = comparison_mod._collapse_plan(((1, 0), (1, 1), (1, 2)), z2_rel_d3.cat.D)

    def mutated(SC, label, q, plan, memo):
        objects, values = fold(SC, label, q, plan, memo)
        if plan != planted:
            return objects, values
        slots, _ = comparison_mod._generator_slots(2, SC.D)
        s = max(s for s, (i, j, _, _) in enumerate(slots) if (i, j) == (0, 2))
        values = list(values)
        values[s] = (values[s] + 1) % SC.hom(objects[0], objects[2]).card(slots[s][2])
        return objects, tuple(values)

    monkeypatch.setattr(comparison_mod, "_cell_from_plan", mutated)
    rep = _assert_matches_instance_route(z2_rel_d3.cat, comparison_map(z2_rel_d3.cat, 3))
    assert rep.verdict == "fail"
    assert {(w["reason"], w["vertex"]) for w in rep.witnesses} == {("vertex slice", 1)}


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize(
    "case",
    [
        test_consistency_check_matches_instance_route_on_a_two_vertex_hom,
        test_consistency_check_catches_a_wrong_map_cell,
        test_consistency_check_reports_diagonal_witnesses_by_cell,
        test_consistency_check_catches_a_swapped_column_entry,
        test_consistency_check_catches_a_wrong_constant_cell,
        test_consistency_check_catches_a_wrong_slice_at_one_column,
    ],
    ids=lambda case: case.__name__.removeprefix("test_consistency_check_"),
)
def test_consistency_check_matches_instance_route_across_blocks(case, block, request, monkeypatch):
    # the witness-order and planted-fault tests above, rerun with blocks
    # of 1 and 7 cells, all batched: every bidegree's checks (b) and (c)
    # and every level of (a) are split across blocks, so the verdicts
    # carried between blocks and the witness walk of each block meet the
    # instance route at block boundaries
    import inspect

    import nervekit.comparison as comparison_mod

    monkeypatch.setattr(comparison_mod, "_BLOCK", block)
    monkeypatch.setattr(comparison_mod, "_MIN_BATCH", 1)
    case(**{name: request.getfixturevalue(name) for name in inspect.signature(case).parameters})


def test_consistency_check_evaluates_each_distinct_input_once(z2_rel_d3, comparison_cell_calls, monkeypatch):
    import nervekit.comparison as comparison_mod

    calls = {"hc_from_level0_chain": 0, "hc_constant": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(comparison_mod, name, counted(name, getattr(comparison_mod, name)))
    rep = consistency_check(z2_rel_d3.cat, comparison_map(z2_rel_d3.cat, 3))
    assert rep.ok
    assert rep.bounds == {"diagonal": 531, "vertex_slices": 2629, "row_restrictions": 2629}
    # the map builds its 531 cells once and (a) reads them back; (b)
    # meets 40 distinct (p, q, i) and (c) 4 distinct (m, z, level0)
    assert calls == {"hc_from_level0_chain": 4, "hc_constant": 40}
    assert len(comparison_cell_calls) == 535


def test_classification_comparison_keeps_bounds_at_witness_cap(z2_rel, monkeypatch):
    import nervekit.classification as cls_mod

    # every naturality instance now fails, so the sweep stops at the cap
    monkeypatch.setattr(cls_mod, "_transformed_row", lambda *args: None)
    rep = classification_comparison(z2_rel, 1, 1)
    assert rep.verdict == "fail"
    assert len(rep.witnesses) == 9
    assert rep.bounds == {
        "P": 1,
        "Q": 1,
        "direct_bidegree": 3,
        "chain_identities": 0,
        "naturality_instances": 9,
        "direct_squares": 0,
        "slice_checks": 0,
        "marked_edges_checked": 0,
    }


# --- the collapse table ------------------------------------------------------


def test_collapse_plan_matches_the_direct_max_rule():
    # the chains of the (3, 3) grid include those of every smaller grid;
    # D = 2 keeps every subset of every pair and chains of three subsets
    from nervekit.classification import _nondeg_grid_chains
    from nervekit.comparison import _collapse_plan, _generator_slots

    D = 2
    chains = _nondeg_grid_chains(3, 3)
    for tau in chains:
        cols, entries = _collapse_plan(tau, D)
        slots = _generator_slots(len(tau) - 1, D)[0]
        want = [
            (
                m,
                tau[i][0],
                tuple(
                    tuple(max(tau[s][1] for s in S if tau[s][0] < t) for S in c)
                    for t in range(tau[i][0] + 1, tau[j][0] + 1)
                ),
            )
            for i, j, m, c in slots
        ]
        assert cols == tuple(a for a, _ in tau)
        assert list(entries) == want
    assert len(chains) == 1007


@pytest.fixture
def cold_collapse_caches(monkeypatch):
    """Empty the collapse caches around a test that plants a wrong rule."""
    import nervekit.classification as cls_mod
    import nervekit.comparison as comparison_mod

    caches = [
        comparison_mod._collapse_row,
        comparison_mod._collapse_table,
        comparison_mod._collapse_plan,
        cls_mod._transformed_row,
    ]
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_theta_catches_a_wrong_collapse_row(monkeypatch, cold_collapse_caches):
    # the chain lies only in grids with p + q >= 5, beyond the direct
    # squares, so only the naturality check on the collapse rows sees it;
    # the rule is planted wherever it is read: in the collapse tables of
    # `comparison` and in the naturality check of `classification`
    import nervekit.classification as cls_mod
    import nervekit.comparison as comparison_mod

    R = build_example("bg:z2", max_dim=5)
    assert classification_comparison(R, 2, 3).ok
    row = comparison_mod._collapse_row
    planted = ((0, 0), (1, 1), (2, 2), (2, 3))

    def mutated(chain):
        out = row(chain)
        if chain != planted:
            return out
        *rest, top = out
        return (*rest, top[:-1] + (top[-1] + 1,))

    for mod in (comparison_mod, cls_mod):
        monkeypatch.setattr(mod, "_collapse_row", mutated)
    for fn in (comparison_mod._collapse_table, comparison_mod._collapse_plan, cls_mod._transformed_row):
        fn.cache_clear()
    rep = classification_comparison(R, 2, 3)
    assert rep.verdict == "fail"
    assert {w["reason"] for w in rep.witnesses} == {"collapse naturality"}


def test_theta_stops_at_the_cap_on_a_non_constant_slice(monkeypatch):
    # the single-vertex row (pair (0, 0)) gains a hop entry; no plan
    # reads that row, so only the slice table check fails, once for
    # each of the 24 vertex slices at (2, 3) until the cap; the table is
    # planted in `comparison`, whose plans read it, and in `classification`,
    # whose slice check does
    import nervekit.classification as cls_mod
    import nervekit.comparison as comparison_mod

    R = build_example("bg:z2", max_dim=5)
    table = comparison_mod._collapse_table

    def mutated(tau):
        cols, rows = table(tau)
        if len(set(cols)) > 1:
            return cols, rows
        return cols, (((0,),),) + rows[1:]

    for mod in (comparison_mod, cls_mod):
        monkeypatch.setattr(mod, "_collapse_table", mutated)
    rep = classification_comparison(R, 2, 3)
    assert rep.verdict == "fail"
    assert len(rep.witnesses) == 9
    assert {w["reason"] for w in rep.witnesses} == {"vertex slice not constant"}
    assert rep.bounds == {
        "P": 2,
        "Q": 3,
        "direct_bidegree": 3,
        "chain_identities": 768,
        "naturality_instances": 3675,
        "direct_squares": 0,
        # tables and values at (0, 0..3), (1, 0) and (1, 1), then the
        # first table at (1, 2) is the ninth witness
        "slice_checks": 19,
        "marked_edges_checked": 0,
    }


# --- the integer-table routes against their label and memo routes ------------

# the six generators, S3, the path category, a lazy-hom gadget (its D
# is 2) and five seeded random posets
TABLE_INPUTS = [
    "bg:z2",
    "bg:z3",
    "discrete:poset01",
    "discrete:poset012",
    "discrete:antichain3",
    "poset:a<b,a<c,b<d,c<d",
    "two-object-interval",
    "discrete:s3",
    "paths[2]",
    "chains[1]",
] + [f"random-poset:{seed}" for seed in range(5)]


def _table_input(name):
    from nervekit import simplex_power_category

    return simplex_power_category(1, 2) if name == "chains[1]" else _category(name, 3)


def _translate_chain(label, q_op):
    """Apply a hom-cell operator to every morphism of a nerve chain label."""
    objs, cells = label
    return objs, tuple(q_op(a, b, c) for a, b, c in zip(objs, objs[1:], cells))


def _levelwise_nerve_by_labels(SC, P, Q):
    """`levelwise_nerve` by labels: row q is the label-route nerve of the
    level-q category, and each vertical operator translates every chain
    label and looks the result up with `index_of`."""
    from nervekit import BisimplicialSet, level_category
    from test_chain_nerve import nerve_cat_by_labels

    nerves = [nerve_cat_by_labels(level_category(SC, q), P) for q in range(Q + 1)]

    def vertical(p, q, r, op):
        return [
            nerves[r].index_of(p, _translate_chain(nerves[q].label(p, x), op))
            for x in range(nerves[q].card(p))
        ]

    def per_bidegree(table):
        return [[table(p, q) for q in range(Q + 1)] for p in range(P + 1)]

    return BisimplicialSet(
        P,
        Q,
        per_bidegree(lambda p, q: nerves[q].card(p)),
        per_bidegree(lambda p, q: nerves[q].faces[p]),
        per_bidegree(lambda p, q: nerves[q].degens[p]),
        per_bidegree(
            lambda p, q: [
                vertical(p, q, q - 1, lambda a, b, c, j=j: SC.hom(a, b).face(q, j, c)) for j in range(q + 1)
            ]
            if q
            else []
        ),
        per_bidegree(
            lambda p, q: [
                vertical(p, q, q + 1, lambda a, b, c, j=j: SC.hom(a, b).degen(q, j, c)) for j in range(q + 1)
            ]
            if q < Q
            else []
        ),
        labels=per_bidegree(lambda p, q: nerves[q].labels[p]),
    )


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_levelwise_nerve_matches_label_route(name):
    SC = _table_input(name)
    P, Q = 3, min(3, SC.D)
    X = levelwise_nerve(SC, P, Q)
    want = _levelwise_nerve_by_labels(SC, P, Q)
    assert X.cards == want.cards
    assert X.labels == want.labels
    for family in ("hfaces", "hdegens", "vfaces", "vdegens"):
        assert getattr(X, family) == getattr(want, family), family


def _cell_from_plan_by_memo(SC, label, q, plan, memo):
    """`_cell_from_plan` by memoized `act` and `SimplicialCategory.compose`:
    hop actions are keyed by (q, source, target, cell, coordinate) and
    fold steps by (level, objects, operands)."""
    from nervekit import act

    cols, entries = plan
    objs, cells = label
    values = []
    for m, a, us in entries:
        acc = None
        for t, u in enumerate(us, start=a + 1):
            src, tgt, x = objs[t - 1], objs[t], cells[t - 1]
            hop_key = (q, src, tgt, x, u)
            if hop_key not in memo:
                memo[hop_key] = act(SC.hom(src, tgt), q, x, u)
            w = memo[hop_key]
            if acc is not None:
                step_key = (m, objs[a], src, tgt, w, acc)
                if step_key not in memo:
                    memo[step_key] = SC.compose(objs[a], src, tgt, m, w, acc)
                w = memo[step_key]
            acc = w
        values.append(SC.identity_cell(objs[a], m) if acc is None else acc)
    return tuple(objs[a] for a in cols), tuple(values)


def _fold_levels(SC, X):
    """(labels, row, plan) for every comparison plan with k <= 3 and
    every collapse plan with p + q <= 3, with the labels of the plan's
    bidegree."""
    from nervekit.classification import _nondeg_grid_chains
    from nervekit.comparison import _collapse_plan, _comparison_plan

    for k in range(X.Q + 1):
        yield X.labels[k][k], k, _comparison_plan(k, SC.D)
    for p in range(X.P + 1):
        for q in range(min(X.Q, 3 - p) + 1):
            for tau in _nondeg_grid_chains(p, q):
                yield X.labels[p][q], q, _collapse_plan(tau, SC.D)


def _fold_cases(SC, X):
    """(label, row, plan) for every cell of every level of `_fold_levels`."""
    for labels, q, plan in _fold_levels(SC, X):
        for label in labels:
            yield label, q, plan


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_fold_matches_memo_route(name):
    from nervekit.comparison import _cell_from_plan

    SC = _table_input(name)
    X = levelwise_nerve(SC, 3, min(3, SC.D))
    memo, oracle_memo = {}, {}  # one of each across bidegrees
    checked = 0
    for label, q, plan in _fold_cases(SC, X):
        assert _cell_from_plan(SC, label, q, plan, memo) == _cell_from_plan_by_memo(SC, label, q, plan, oracle_memo)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_batched_fold_matches_single_cells(name, block, monkeypatch):
    # by default, groups of fewer than _MIN_BATCH cells (every group of
    # a poset) go through the single-cell fold and larger ones are
    # batched; blocks of 1 and 7 cells, all batched, cross block
    # boundaries on every level
    import nervekit.comparison as comparison_mod

    if block is not None:
        monkeypatch.setattr(comparison_mod, "_BLOCK", block)
        monkeypatch.setattr(comparison_mod, "_MIN_BATCH", 1)
    SC = _table_input(name)
    X = levelwise_nerve(SC, 3, min(3, SC.D))
    memo, single_memo = {}, {}  # one of each across bidegrees
    checked = 0
    for labels, q, plan in _fold_levels(SC, X):
        cells = list(comparison_mod._cells_from_plan(SC, labels, q, plan, memo))
        assert sorted(x for x, _ in cells) == list(range(len(labels)))
        for x, cell in cells:
            assert cell == comparison_mod._cell_from_plan(SC, labels[x], q, plan, single_memo)
        checked += len(cells)
    assert checked > 0


def test_batched_fold_catches_a_permuted_action_table(z2_rel_d3, monkeypatch):
    # the planted table is resolved once into the shared memo, so both
    # routes read it and both move the same cells off the memo route
    import nervekit.comparison as comparison_mod

    SC = z2_rel_d3.cat
    X = levelwise_nerve(SC, 3, 3)
    build = comparison_mod.act_table
    planted = []

    def mutated(H, n, f):
        table = build(H, n, f)
        if not planted and len(set(table)) > 1:
            _swap_first_differing([table])
            planted.append((n, f))
        return table

    monkeypatch.setattr(comparison_mod, "act_table", mutated)
    monkeypatch.setattr(comparison_mod, "_BLOCK", 7)
    monkeypatch.setattr(comparison_mod, "_MIN_BATCH", 1)
    memo, oracle_memo = {}, {}
    single, batched = set(), set()
    for case, (labels, q, plan) in enumerate(_fold_levels(SC, X)):
        for x, cell in comparison_mod._cells_from_plan(SC, labels, q, plan, memo):
            want = _cell_from_plan_by_memo(SC, labels[x], q, plan, oracle_memo)
            if cell != want:
                batched.add((case, x))
            if comparison_mod._cell_from_plan(SC, labels[x], q, plan, memo) != want:
                single.add((case, x))
    assert planted and batched and batched == single


def test_fold_catches_a_permuted_action_table(z2_rel_d3, monkeypatch):
    import nervekit.comparison as comparison_mod

    SC = z2_rel_d3.cat
    X = levelwise_nerve(SC, 3, 3)
    build = comparison_mod.act_table
    planted = []

    def mutated(H, n, f):
        table = build(H, n, f)
        if not planted and len(set(table)) > 1:
            _swap_first_differing([table])
            planted.append((n, f))
        return table

    monkeypatch.setattr(comparison_mod, "act_table", mutated)
    memo, oracle_memo = {}, {}
    differ = sum(
        comparison_mod._cell_from_plan(SC, label, q, plan, memo) != _cell_from_plan_by_memo(SC, label, q, plan, oracle_memo)
        for label, q, plan in _fold_cases(SC, X)
    )
    assert planted and differ > 0


def test_fold_calls_no_compose_or_act(z2_rel_d3, monkeypatch):
    # the fold reads tables only; compose and act keep their other callers
    import collections
    import sys

    import nervekit.coherent as coherent_mod
    import nervekit.spaces as spaces_mod
    import nervekit.sset as sset_mod
    from nervekit.cat import SimplicialCategory

    import nervekit.comparison as comparison_mod

    callers = {"compose": collections.Counter(), "act": collections.Counter(), "act_table": collections.Counter()}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            callers[name][sys._getframe(1).f_code.co_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SimplicialCategory, "compose", counted("compose", SimplicialCategory.compose))
    # act is defined beside vertices; the check's body is in coherent
    monkeypatch.setattr(spaces_mod, "act", counted("act", spaces_mod.act))
    for mod in (coherent_mod, comparison_mod):
        monkeypatch.setattr(mod, "act_table", counted("act_table", sset_mod.act_table))
    SC = z2_rel_d3.cat
    rep = consistency_check(SC, comparison_map(SC, 3))
    assert rep.ok
    fold = {"_cell_from_plan", "_cells_from_plan", "_resolved_plan"}
    assert not fold & (set(callers["compose"]) | set(callers["act"])), callers
    # the counters do see the other callers: the fold resolves its
    # actions and check (c) its vertex tables by `act_table`, and
    # `vertices` still applies `act` one cell at a time
    assert callers["compose"]["hc_from_level0_chain"] > 0
    assert callers["act_table"]["_resolved_plan"] > 0
    assert callers["act_table"]["_consistency_check"] > 0
    assert not callers["act"]
    spaces_mod.vertices(SC.hom(SC.objects[0], SC.objects[0]), 2, 0)
    assert sum(callers["act"].values()) == 3


def test_consistency_check_stops_recording_at_the_witness_cap(z2_rel_d3, monkeypatch):
    # a wrong constant cell at every level with a slot fails the 2619
    # vertex slices of positive row; the report keeps nine witnesses and
    # still counts every instance
    import nervekit.comparison as comparison_mod

    constant = comparison_mod.hc_constant

    def mutated(target, obj, n):
        objects, values = constant(target, obj, n)
        if values:
            values = (values[0] + 1,) + values[1:]
        return objects, values

    monkeypatch.setattr(comparison_mod, "hc_constant", mutated)
    SC = z2_rel_d3.cat
    rep = _assert_matches_instance_route(SC, comparison_map(SC, 3))
    assert rep.verdict == "fail"
    assert len(rep.witnesses) == 9
    assert {w["reason"] for w in rep.witnesses} == {"vertex slice"}
    assert rep.bounds == {"diagonal": 531, "vertex_slices": 2629, "row_restrictions": 2629}


# --- the classification diagram by label translation -------------------------


def _classification_diagram_by_translation(R, P, Q):
    """`classification_diagram` by label translation: every grid stops at
    level p + q, and an operator table evaluates each map on every cell
    of the operator's source grid by translating the cell's label along
    the vertex maps, looking it up with `index_of` and, above level
    p + q, peeling a doubled position and extending by degeneracy.
    Returns the cards, the four operator families, the labels and the
    marked cells."""
    from nervekit import standard_simplex
    from nervekit.classification import _grid_op, _marked_hc_edges, _product_pair
    from nervekit.sset import enumerate_maps

    hc = coherent_nerve(R.cat, P + Q)
    marked_edges = _marked_hc_edges(R, hc)
    grids = {(p, q): _product_pair(p, q, p + q) for p in range(P + 1) for q in range(Q + 1)}

    def slice_ok(p, q, f):
        G, Bq = grids[(p, q)], standard_simplex(q, p + q)
        return all(
            f.apply(1, G.index_of(1, ((i, i), Bq.label(1, e)))) in marked_edges
            for i in range(p + 1)
            for e in range(Bq.card(1) if p + q else 0)
            if not Bq.is_degenerate(1, e)
        )

    def fully_marked(p, q, f):
        G = grids[(p, q)]
        return all(f.apply(1, e) in marked_edges for e in range(G.card(1)) if not G.is_degenerate(1, e))

    maps = {
        (p, q): [f for f in enumerate_maps(grids[(p, q)], hc) if slice_ok(p, q, f)]
        for p in range(P + 1)
        for q in range(Q + 1)
    }
    cells = {pq: {f.key(): x for x, f in enumerate(fs)} for pq, fs in maps.items()}

    def value_at(p, q, f, label, lvl):
        G = grids[(p, q)]
        if lvl <= p + q:
            return f.apply(lvl, G.index_of(lvl, label))
        la, lb = label
        t = next(t for t in range(lvl) if la[t] == la[t + 1] and lb[t] == lb[t + 1])
        sub = (la[:t] + la[t + 1 :], lb[:t] + lb[t + 1 :])
        return hc.degen(lvl - 1, t, value_at(p, q, f, sub, lvl - 1))

    def translated_key(p, q, f, vp, vq, p2, q2):
        G2 = grids[(p2, q2)]
        return tuple(
            tuple(
                value_at(p, q, f, (tuple(vp[v] for v in la), tuple(vq[v] for v in lb)), lvl)
                for la, lb in (G2.label(lvl, c) for c in range(G2.card(lvl)))
            )
            for lvl in range(p2 + q2 + 1)
        )

    def op_table(p, q, kind, i):
        (p2, q2), vp, vq = _grid_op(p, q, kind, i)
        return [cells[(p2, q2)][translated_key(p, q, f, vp, vq, p2, q2)] for f in maps[(p, q)]]

    families = {
        "hfaces": lambda p, q: [op_table(p, q, "hface", i) for i in range(p + 1)] if p >= 1 else [],
        "hdegens": lambda p, q: [op_table(p, q, "hdegen", i) for i in range(p + 1)] if p < P else [],
        "vfaces": lambda p, q: [op_table(p, q, "vface", j) for j in range(q + 1)] if q >= 1 else [],
        "vdegens": lambda p, q: [op_table(p, q, "vdegen", j) for j in range(q + 1)] if q < Q else [],
    }
    return {
        "cards": [[len(maps[(p, q)]) for q in range(Q + 1)] for p in range(P + 1)],
        **{
            family: [[table(p, q) for q in range(Q + 1)] for p in range(P + 1)]
            for family, table in families.items()
        },
        "labels": [[[f.key() for f in maps[(p, q)]] for q in range(Q + 1)] for p in range(P + 1)],
        "marked": {(q, x) for q in range(Q + 1) for x, f in enumerate(maps[(1, q)]) if fully_marked(1, q, f)},
    }


def _classification_tables(R, M):
    """The data `_classification_diagram_by_translation` returns, read off
    a built diagram. A label is its map's packed vector; it is expanded
    to the map's value table through the maps `enumerate_maps` finds on
    that bidegree's grid, and cut to level p + q, where the translation
    route's grids stop."""
    from nervekit.classification import _product_pair
    from nervekit.sset import enumerate_maps

    X = M.space
    hc = coherent_nerve(R.cat, X.P + X.Q)
    out = {family: getattr(X, family) for family in ("cards", "hfaces", "hdegens", "vfaces", "vdegens")}
    out["labels"] = [[None] * (X.Q + 1) for _ in range(X.P + 1)]
    for p in range(X.P + 1):
        for q in range(X.Q + 1):
            full = {f.packed: f.key()[: p + q + 1] for f in enumerate_maps(_product_pair(p, q, X.P + X.Q), hc)}
            out["labels"][p][q] = [full[packed] for packed in X.labels[p][q]]
    out["marked"] = set(M.marked)
    return out


CLS_CASES = [
    ("bg:z2", 1, 1),
    ("bg:z2", 1, 2),
    ("bg:z2", 2, 1),
    ("bg:z2", 3, 0),
    ("bg:z3", 1, 2),
    ("two-object-interval", 2, 2),
    ("discrete:poset012", 2, 2),
    ("poset:a<b,a<c,b<d,c<d", 1, 2),
    ("discrete:antichain3", 2, 1),
] + [(f"random-poset:{seed}", 1, 2) for seed in range(5)]


def _cls_input(name, D):
    if name.startswith("random-poset:"):
        name = _random_poset(int(name.split(":")[1]))
    return build_example(name, max_dim=D)


@pytest.mark.parametrize("name, P, Q", CLS_CASES)
def test_classification_diagram_matches_translation_route(name, P, Q):
    from nervekit import validate_bisset

    R = _cls_input(name, P + Q)
    M = classification_diagram(R, P, Q)
    assert _classification_tables(R, M) == _classification_diagram_by_translation(R, P, Q)
    assert validate_bisset(M.space).ok


def test_classification_diagram_labels_are_packed_vectors(monkeypatch):
    # cls reads its maps through `apply` only, so it builds no value
    # table, and labels each cell by one value per nondegenerate cell of
    # its grid
    from nervekit import SimplicialMap
    from nervekit.classification import _product_pair

    def key(self):
        raise AssertionError("classification_diagram built a map's key")

    for name in ("bg:z2", "two-object-interval"):
        R = build_example(name, max_dim=3)
        monkeypatch.setattr(SimplicialMap, "key", key)
        X = classification_diagram(R, 1, 2).space
        monkeypatch.undo()
        for p in range(2):
            for q in range(3):
                G = _product_pair(p, q, 3)
                assert {len(label) for label in X.labels[p][q]} == {sum(G.nondeg_counts())}, (name, p, q)


def test_classification_diagram_catches_a_wrong_gather_entry(z2_rel_d3, monkeypatch):
    # the coherent nerve of bg:z2 has one vertex and one edge, so the
    # fault sits at level 2: in the first vertical-face gather at
    # bidegree (1, 2), the first nondegenerate triangle of the (1, 1)
    # grid goes to the wrong nondegenerate triangle of the (1, 2) grid
    import nervekit.classification as cls_mod

    gather = cls_mod._grid_gather
    planted = []

    def mutated(G, G2, vp, vq):
        g = gather(G, G2, vp, vq)
        if not planted and G.name == "grid(1,2)" and G2.name == "grid(1,1)":
            g[2][0] = next(y for y in G.nondegenerate_cells(2) if y != g[2][0])
            planted.append(g[2][0])
        return g

    monkeypatch.setattr(cls_mod, "_grid_gather", mutated)
    want = _classification_diagram_by_translation(z2_rel_d3, 1, 2)
    # a gathered table that is no simplicial map is no cell of the
    # target bidegree, so its lookup fails; a tolerant lookup would
    # give wrong tables instead
    try:
        got = _classification_tables(z2_rel_d3, classification_diagram(z2_rel_d3, 1, 2))
    except KeyError:
        got = None
    assert planted
    assert got != want


def test_classification_diagram_index_lookups_depend_only_on_the_grids(monkeypatch):
    # one `index_of` per vertex-slice edge and per cell of an operator's
    # source grid, whatever the coherent nerve it maps into
    from nervekit import SimplicialSet

    index_of = SimplicialSet.index_of
    counts = {}
    for name in ("bg:z2", "bg:z3", "two-object-interval"):
        R = build_example(name, max_dim=3)
        calls = []

        def counted(self, n, label):
            calls.append(n)
            return index_of(self, n, label)

        monkeypatch.setattr(SimplicialSet, "index_of", counted)
        classification_diagram(R, 1, 2)
        monkeypatch.setattr(SimplicialSet, "index_of", index_of)
        counts[name] = len(calls)
    assert len(set(counts.values())) == 1, counts
