"""Core simplicial set structure: operators, products, maps, enumeration."""
import itertools
from math import comb

import pytest

from nervekit import (
    FinitePoset,
    ProductSset,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    act,
    act_table,
    build_example,
    coherent_nerve,
    compose_maps,
    cyclic_group_category,
    enumerate_maps,
    horn,
    levelwise_nerve,
    materialize,
    nerve_cat,
    poset_category,
    poset_nerve,
    product,
    standard_simplex,
    subcomplex,
    validate_map,
    validate_sset,
    vertices,
)
from nervekit.classification import _product_pair
from nervekit.gadgets import PowerSset
from sset_helpers import boundary_simplex, identity_map, sset_data_equal, yoneda_map


def walk_nerve(D=2):
    return nerve_cat(poset_category(FinitePoset([0, 1], [(0, 1)])), D)


def monotone_maps(m, n):
    # maps [m] -> [n] as value tuples
    return itertools.combinations_with_replacement(range(n + 1), m + 1)


def test_standard_simplex_counts():
    for n in range(4):
        X = standard_simplex(n, 3)
        assert X.counts() == tuple(comb(n + m + 1, m + 1) for m in range(4))
        assert len(X.nondegenerate_cells(m := min(n, 3))) == comb(n + 1, m + 1)
        assert validate_sset(X).ok


def test_simplex_labels_are_vertex_tuples():
    X = standard_simplex(2, 2)
    assert X.label(0, 0) == (0,)
    top = X.index_of(2, (0, 1, 2))
    assert not X.is_degenerate(2, top)
    assert X.index_of(1, (0, 2)) == X.face(2, 1, top)


def test_degeneracy_detection():
    X = walk_nerve()
    nondeg1 = X.nondeg_counts()
    # the walking arrow has cells 0 -> 0, 0 -> 1, 1 -> 1 at level 1
    assert X.counts() == (2, 3, 4)
    assert nondeg1 == (2, 1, 0)
    for x in range(X.card(2)):
        assert X.is_degenerate(2, x)


def test_act_contravariance():
    # act(x, f then g) agrees with act in two steps, for all small shapes
    X = walk_nerve(3)
    for n in range(4):
        for m in range(n + 1):
            for k in range(m + 1):
                for f in monotone_maps(m, n):
                    for g in monotone_maps(k, m):
                        comp = tuple(f[v] for v in g)
                        for x in range(X.card(n)):
                            mid = act(X, n, x, f)
                            assert 0 <= mid < X.card(m)
                            assert act(X, m, mid, g) == act(X, n, x, comp)


def test_act_identity_and_vertices():
    X = standard_simplex(2, 3)
    top = X.index_of(2, (0, 1, 2))
    assert act(X, 2, top, (0, 1, 2)) == top
    assert vertices(X, 2, top) == (X.index_of(0, (0,)), X.index_of(0, (1,)), X.index_of(0, (2,)))


@pytest.fixture(scope="module")
def act_table_targets():
    # materialized, lazy, a group nerve, a levelwise-nerve column and a
    # lazy power, all truncated at 4
    bgz2 = build_example("bg:z2", max_dim=4).cat
    return [
        standard_simplex(3, 4),
        ProductSset(standard_simplex(1, 4), walk_nerve(4)),
        nerve_cat(cyclic_group_category(3), 4),
        levelwise_nerve(bgz2, 2, 4).column(2),
        PowerSset(standard_simplex(1, 4), 2),
    ]


def _act_by_recursion(X, n, x, f):
    """`act` by its own factoring: validate, take the faces of the values
    missing from the image (largest first), then peel the degeneracies
    recursively off the first doubled position."""
    f = tuple(f)
    m = len(f) - 1
    if m < 0:
        raise ValueError("operator must be nonempty")
    if any(f[t] > f[t + 1] for t in range(m)) or f[0] < 0 or f[-1] > n:
        raise ValueError(f"not a monotone map into [{n}]: {f}")
    if m > X.D:
        raise TruncationError(f"operator lands in level {m} beyond truncation {X.D}")
    image = set(f)
    g = list(f)
    y, k = x, n
    for j in range(n, -1, -1):
        if j in image:
            continue
        y = X.face(k, j, y)
        k -= 1
        for t in range(m + 1):
            if g[t] > j:
                g[t] -= 1
    return _surjective_by_recursion(X, k, y, g)


def _surjective_by_recursion(X, k, y, g):
    m = len(g) - 1
    if m == k:
        return y
    t = next(t for t in range(m) if g[t] == g[t + 1])
    z = _surjective_by_recursion(X, k, y, g[: t + 1] + g[t + 2 :])
    return X.degen(m - 1, t, z)


def test_act_table_is_act_on_every_cell(act_table_targets):
    for X in act_table_targets:
        for n in range(5):
            for m in range(5):
                for f in monotone_maps(m, n):
                    want = [_act_by_recursion(X, n, x, f) for x in range(X.card(n))]
                    assert [act(X, n, x, f) for x in range(X.card(n))] == want, (X, n, f)
                    assert act_table(X, n, f) == want, (X, n, f)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_act_table_raises_what_act_raises(act_table_targets):
    for X in act_table_targets:
        # empty, decreasing, negative, past the top of [2], and landing at level 5 > D
        for f in [(), (1, 0), (-1, 0), (0, 3), (0,) * 6]:
            want = _raised(_act_by_recursion, X, 2, 0, f)
            assert _raised(act, X, 2, 0, f) == want, (X, f)
            assert _raised(act_table, X, 2, f) == want, (X, f)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of the
    `TruncationError` it raises."""
    try:
        return fn(*args)
    except TruncationError as e:
        return TruncationError, str(e)


def test_operator_maps_are_the_operators():
    # stored, product and power sets, at every level and one past the
    # truncation, where both routes raise the same TruncationError (an
    # outcome is a tuple only when raised)
    for X in (
        standard_simplex(2, 3),
        ProductSset(standard_simplex(1, 3), walk_nerve(3)),
        PowerSset(standard_simplex(1, 3), 2),
    ):
        for n in range(X.D + 2):
            cells = range(X.card(n)) if n <= X.D else [0]
            for i in range(n + 1):
                if n:
                    faces = [_outcome(lambda x: X.face_map(n, i)(x), x) for x in cells]
                    assert faces == [_outcome(X.face, n, i, x) for x in cells], (X, n, i)
                    assert isinstance(faces[0], tuple) == (n > X.D)
                degens = [_outcome(lambda x: X.degen_map(n, i)(x), x) for x in cells]
                assert degens == [_outcome(X.degen, n, i, x) for x in cells], (X, n, i)
                assert isinstance(degens[0], tuple) == (n >= X.D)


def _validate_map_by_cells(f):
    """`validate_map` cell by cell: each value's range, then every face
    square and every degeneracy square, one cell at a time."""
    from nervekit.reporting import ValidationReport

    rep = ValidationReport("map")
    A, X, L = f.source, f.target, f.L
    for n in range(L + 1):
        for x in range(A.card(n)):
            v = f.apply(n, x)
            if not 0 <= v < X.card(n):
                rep.add("value range", (n, x), f"value {v} outside target level {n}")
    if rep.violations:
        return rep
    for n in range(1, L + 1):
        for i in range(n + 1):
            for x in range(A.card(n)):
                lhs, rhs = f.apply(n - 1, A.face(n, i, x)), X.face(n, i, f.apply(n, x))
                rep.checked += 1
                if lhs != rhs:
                    rep.add("f d_i = d_i f", (n, i, x), f"{lhs} != {rhs}")
    for n in range(min(L - 1, A.D - 1, X.D - 1) + 1):
        for i in range(n + 1):
            for x in range(A.card(n)):
                lhs, rhs = f.apply(n + 1, A.degen(n, i, x)), X.degen(n, i, f.apply(n, x))
                rep.checked += 1
                if lhs != rhs:
                    rep.add("f s_i = s_i f", (n, i, x), f"{lhs} != {rhs}")
    return rep


def test_validate_map_matches_the_cell_walk():
    X = walk_nerve(3)
    moved = yoneda_map(X, 2, X.card(2) - 1)
    moved.values[1][1] = (moved.values[1][1] + 1) % X.card(1)
    out_of_range = yoneda_map(X, 1, 0)
    out_of_range.values[2][3] = X.card(2)
    P = ProductSset(standard_simplex(1, 3), X)
    projection = SimplicialMap(P, X, fn=lambda n, x: P.split(n, x)[1])
    # one wrong value of a lazy map, at a cell only degeneracies reach
    off = P.pair(2, 0, X.degen(1, 0, 1))
    bent = SimplicialMap(P, X, fn=lambda n, x: 0 if (n, x) == (2, off) else P.split(n, x)[1])
    reports = []
    for f in (moved, out_of_range, projection, bent, yoneda_map(X, 3, 0)):
        rep = validate_map(f)
        want = _validate_map_by_cells(f)
        assert (rep.violations, rep.checked) == (want.violations, want.checked)
        reports.append(rep)
    assert [rep.ok for rep in reports] == [False, False, True, False, True]
    assert {v.identity for v in reports[0].violations} == {"f d_i = d_i f", "f s_i = s_i f"}


def test_act_is_the_label_formula():
    # on simplices and poset nerves a cell's label is its vertex chain, so
    # an operator f reindexes it: no factoring at all
    square = FinitePoset("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    targets = [standard_simplex(n, 4) for n in range(4)] + [
        poset_nerve(FinitePoset([0, 1], [(0, 1)]), 4),
        poset_nerve(FinitePoset([0, 1, 2], [(0, 1), (1, 2), (0, 2)]), 4),
        poset_nerve(square, 4),
    ]
    for X in targets:
        for n in range(min(X.D, 3) + 1):
            for m in range(5):
                for f in monotone_maps(m, n):
                    for x in range(X.card(n)):
                        lab = X.label(n, x)
                        assert X.label(m, act(X, n, x, f)) == tuple(lab[v] for v in f), (X, n, x, f)


def test_boundary_and_horn_counts():
    B = boundary_simplex(2)
    assert B.nondeg_counts() == (3, 3)
    H = horn(2, 1)
    # the middle horn of the triangle keeps two of the three edges
    assert H.nondeg_counts() == (3, 2)
    assert validate_sset(H).ok
    with pytest.raises(ValueError):
        horn(2, 5)


def test_horn_is_built_once_and_left_intact():
    from nervekit.cli import run

    assert horn(3, 1) is horn(3, 1)
    _, code, _ = run(["horncheck", "--example", "bg:z2", "--max-dim", "3"])
    assert code == 0
    fresh = horn.__wrapped__(3, 1)
    assert horn(3, 1).data_key() == fresh.data_key()
    assert (horn(3, 1).labels, horn(3, 1).name) == (fresh.labels, fresh.name)


def _horn_by_labels(n, k, D):
    """The (n, k)-horn as `horn` seeded it before it went by table: every
    cell whose label misses some value other than k."""
    Delta = standard_simplex(n, D)
    seeds = [
        (m, x)
        for m in range(D + 1)
        for x in range(Delta.card(m))
        if any(j != k and j not in Delta.label(m, x) for j in range(n + 1))
    ]
    return subcomplex(Delta, seeds)[0]


def test_horn_matches_the_label_seeded_horn():
    # `horn` gathers the rows of the simplex on the cells its rule keeps;
    # the label-seeded closure keeps the same cells at every truncation
    for n in range(6):
        for k in range(n + 1):
            for D in range(max(n + 2, 6)):
                H, want = horn(n, k, D), _horn_by_labels(n, k, D)
                assert (H.data_key(), H.labels) == (want.data_key(), want.labels), (n, k, D)


def test_subcomplex_inclusion_validates():
    X = standard_simplex(2, 2)
    e01 = X.index_of(1, (0, 1))
    A, inc = subcomplex(X, [(1, e01)])
    assert A.counts()[0] == 2
    assert validate_sset(A).ok
    assert validate_map(inc).ok


def test_yoneda_enumeration():
    # maps out of the k simplex match k cells, for several targets
    for X in (walk_nerve(), nerve_cat(poset_category(FinitePoset([0, 1, 2], [(0, 1), (1, 2)])), 2)):
        for k in range(3):
            maps = enumerate_maps(standard_simplex(k, X.D), X)
            assert len(maps) == X.card(k)
            assert len(maps) == len({f.key() for f in maps})


def test_yoneda_map_validates():
    X = walk_nerve()
    for x in range(X.card(1)):
        f = yoneda_map(X, 1, x)
        assert validate_map(f).ok
        assert f.apply(1, standard_simplex(1, X.D).index_of(1, (0, 1))) == x


def _enumerate_maps_by_scan(A, X):
    """All maps A -> X by the slow route: level-major backtracking that
    tries every cell of X against the faces already assigned."""
    D = A.D
    nd = [A.nondegenerate_cells(n) for n in range(D + 1)]
    wit = [{} for _ in range(D + 1)]
    for n in range(1, D + 1):
        for x in range(A.card(n)):
            if A.is_degenerate(n, x):
                for i in range(n):
                    y = A.face(n, i + 1, x)
                    if A.degen(n - 1, i, y) == x:
                        wit[n][x] = (i, y)
                        break
    values = [[-1] * A.card(n) for n in range(D + 1)]
    out = []

    def faces_ok(n, x, v):
        for i in range(n + 1):
            if X.face(n, i, v) != values[n - 1][A.face(n, i, x)]:
                return False
        return True

    def rec(n, pos):
        if n > D:
            out.append([row[:] for row in values])
            return
        cells = nd[n]
        if pos == len(cells):
            for x, (i, y) in wit[n].items():
                values[n][x] = X.degen(n - 1, i, values[n - 1][y])
            rec(n + 1, 0)
            return
        x = cells[pos]
        for v in range(X.card(n)):
            if n == 0 or faces_ok(n, x, v):
                values[n][x] = v
                rec(n, pos + 1)

    rec(0, 0)
    return [SimplicialMap(A, X, values=tab) for tab in out]


def _scan_cases():
    group_nerves = [nerve_cat(cyclic_group_category(m), 3) for m in (2, 3)]
    for X in group_nerves + [walk_nerve(3)]:
        for n in range(1, 5):
            for k in range(n + 1):
                yield f"horn({n},{k})->{X.name}", horn(n, k), X
    chain = poset_nerve(FinitePoset([0, 1, 2], [(0, 1), (1, 2)]), 3)
    vee = poset_nerve(FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")]), 3)
    for n in (2, 3):
        for X in (chain, vee):
            yield f"boundary({n})->{X.name}", boundary_simplex(n), X
    hc = coherent_nerve(build_example("bg:z2", max_dim=2).cat, 2)
    for p in range(3):
        for q in range(3 - p):
            yield f"grid({p},{q})->hc", _product_pair(p, q, p + q), hc
    # nondegenerate 2-cells (g, g^-1) have a degenerate face, so forced
    # steps run between branch steps
    z3 = nerve_cat(cyclic_group_category(3), 2)
    yield "z3->z3", z3, z3
    yield "empty->z3", SimplicialSet.empty(2), z3
    yield "z3->empty", z3, SimplicialSet.empty(2)
    yield "empty->empty", SimplicialSet.empty(2), SimplicialSet.empty(2)


def test_enumerate_maps_matches_scan():
    for name, A, X in _scan_cases():
        got = [f.key() for f in enumerate_maps(A, X)]
        assert got == [f.key() for f in _enumerate_maps_by_scan(A, X)], name


def test_enumerate_maps_counts_endomorphisms_and_empty_cases():
    z3 = nerve_cat(cyclic_group_category(3), 2)
    assert len(enumerate_maps(z3, z3)) == 3
    assert len(enumerate_maps(SimplicialSet.empty(2), z3)) == 1
    assert enumerate_maps(z3, SimplicialSet.empty(2)) == []


def test_enumerate_maps_has_no_recursion_limit():
    # 1500 points and their identity edges, into a point
    m = 1500
    ids = list(range(m))
    A = SimplicialSet(1, [m, m], [[], [ids, ids]], [[ids], []])
    maps = enumerate_maps(A, standard_simplex(0, 1))
    assert len(maps) == 1
    assert maps[0].key() == ((0,) * m, (0,) * m)


def test_enumerate_maps_requires_deep_target():
    A = standard_simplex(1, 3)
    X = walk_nerve(2)
    with pytest.raises(TruncationError):
        enumerate_maps(A, X)


def test_face_index_is_built_once_per_level(monkeypatch):
    import nervekit.sset as sset_mod

    X = nerve_cat(cyclic_group_category(3), 3)
    calls = []
    real = SimplicialSet.face

    def face(self, n, i, x):
        if self is X:
            calls.append(n)
        return real(self, n, i, x)

    monkeypatch.setattr(sset_mod.SimplicialSet, "face", face)
    before = [f.key() for f in enumerate_maps(horn(3, 1), X)]
    # horn(3, 1) branches on its top cells (0,1,2), (0,1,3) and (1,2,3):
    # the second finds d_2 assigned, the third d_1 and d_2; the indexes
    # and the forced faces read the stored rows of X, taking no face
    assert sorted(X._face_idx) == [(2, (1, 2)), (2, (2,))]
    assert calls == []
    kept = dict(X._face_idx)
    # later searches into X read the kept indexes
    assert [f.key() for f in enumerate_maps(horn(3, 1), X)] == before
    # horn(2, 0) branches on (0,1), then on (0,2) keyed by its d_1
    assert len(enumerate_maps(horn(2, 0), X)) == 9
    assert sorted(X._face_idx) == [(1, (1,)), (2, (1, 2)), (2, (2,))]
    assert all(X._face_idx[key] is index for key, index in kept.items())
    # an index lists the cells by their faces at its positions, one
    # position keying by the face itself
    for (n, P), index in X._face_idx.items():
        want = {}
        for v in range(X.card(n)):
            faces = [real(X, n, i, v) for i in P]
            want.setdefault(faces[0] if len(P) == 1 else tuple(faces), []).append(v)
        assert index == want, (n, P)
    assert X.face_index(2) is X.face_index(2)
    assert X.face_index(2) == X.face_index(2, (0, 1, 2))
    with pytest.raises(TruncationError):
        X.face_index(4)


def test_face_index_of_a_lazy_set_matches_the_stored_one():
    P = PowerSset(standard_simplex(1, 3), 2)
    M = materialize(P)
    for n in (1, 2, 3):
        for positions in [()] + [c for r in (1, 2) for c in itertools.combinations(range(n + 1), r)]:
            assert P.face_index(n, positions) == M.face_index(n, positions), (n, positions)


def _enumerate_maps_bottom_up(A, X):
    """All maps A -> X by the search `enumerate_maps` ran before it
    branched on maximal cells only: a plan that lists every cell of A
    after its faces, built depth-first from the nondegenerate cells, top
    level first, each nondegenerate cell a branch step keyed by all its
    faces, each degenerate cell a branch step reads forced from its
    witness, and the degenerate cells no branch step reads filled after
    the sort. Its face index is built here, not read from X."""
    D = A.D
    base = [0] * (D + 2)
    for n in range(D + 1):
        base[n + 1] = base[n] + A.card(n)
    witness = {}
    for n in range(D):
        for i in range(n + 1):
            for y in range(A.card(n)):
                witness.setdefault(base[n + 1] + A.degen(n, i, y), (n, i, y))
    tables = {}

    def degen_table(steps):
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
    branches, forced = [], []

    def place(n, x):
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
    chains, fill = {}, []
    for s, (m, i, y) in witness.items():
        if not placed[s]:
            w = base[m] + y
            root, steps = chains.get(w, (w, ()))
            chains[s] = (root, steps + ((m, i),))
            fill.append((s, root, degen_table(chains[s][1])))
    index = {}
    for n in {n for _, n, _ in branches if n}:
        lvl = index[n] = {}
        for v in range(X.card(n)):
            lvl.setdefault(tuple(X.face(n, i, v) for i in range(n + 1)), []).append(v)
    vals = [0] * base[D + 1]
    out = []
    B = len(branches)
    if B == 0:
        out.append(vals[:])
    else:
        cands, pos = [range(X.card(0))] * B, [0] * B
        b = 0
        while b >= 0:
            j = pos[b]
            if j == len(cands[b]):
                b -= 1
                continue
            pos[b] = j + 1
            vals[branches[b][0]] = cands[b][j]
            for s, t, w in forced[b]:
                vals[s] = t[vals[w]]
            if b + 1 == B:
                out.append(vals[:])
                continue
            b += 1
            _, n, faces = branches[b]
            if n:
                cands[b] = index[n].get(tuple(vals[s] for s in faces), ())
            pos[b] = 0
    out.sort()
    for vec in out:
        for s, w, t in fill:
            vec[s] = t[vec[w]]
    return [[vec[base[n] : base[n + 1]] for n in range(D + 1)] for vec in out]


def _forced_step_cases():
    """Four kinds of input: horns into group, poset, random poset and S₃
    nerves; group nerves into each other, where two face words of one
    cell hit one cell (nerve(z2) -> nerve(z3)); grids built above their
    top nondegenerate level into coherent nerves, whose nondegenerate
    cells have degenerate faces and most cells are degenerate cells no
    branch reaches; and the empty cases."""
    from nervekit.discrete import _parse_poset
    from test_nerves import _random_poset, _s3_category

    targets = [nerve_cat(cyclic_group_category(m), 4) for m in (2, 3)]
    targets += [poset_nerve(FinitePoset([0, 1, 2], [(0, 1), (1, 2)]), 4)]
    targets += [poset_nerve(FinitePoset(["a", "b", "c"], [("a", "b"), ("a", "c")]), 4)]
    targets += [poset_nerve(_parse_poset(_random_poset(seed)[len("poset:") :]), 4, name=f"random{seed}") for seed in (0, 1)]
    for X in targets:
        for n in range(1, 5):
            for k in sorted({0, n // 2, n}):
                yield f"horn({n},{k})->{X.name}", horn(n, k), X
    s3 = nerve_cat(_s3_category(), 3)
    for n in range(1, 4):
        for k in range(n + 1):
            yield f"horn({n},{k})->s3", horn(n, k), s3
    # group nerves have nondegenerate cells with degenerate faces, so
    # their forced steps run between branch steps
    for A in targets[:2]:
        for X in targets[:2]:
            yield f"{A.name}->{X.name}", A, X
    yield "z2->s3", nerve_cat(cyclic_group_category(2), 3), s3
    inputs = ["bg:z2", "two-object-interval", "discrete:poset012"] + [_random_poset(seed) for seed in range(5)]
    for name in inputs:
        hc = coherent_nerve(build_example(name, max_dim=3).cat, 3)
        for p, q in ((0, 1), (1, 1), (1, 2), (2, 1)):
            if p + q < 3 or name == "bg:z2":
                yield f"grid({p},{q})->hc({name})", _product_pair(p, q, 3), hc
    z3 = nerve_cat(cyclic_group_category(3), 2)
    empty = SimplicialSet.empty(2)
    yield "empty->z3", empty, z3
    yield "z3->empty", z3, empty
    yield "empty->empty", empty, empty


def test_enumerate_maps_matches_forced_step_search():
    cases = 0
    for name, A, X in _forced_step_cases():
        maps = enumerate_maps(A, X)
        assert all(isinstance(f, SimplicialMap) and f.source is A and f.target is X and f.L == A.D for f in maps), name
        got = [list(map(list, f.key())) for f in maps]
        assert got == _enumerate_maps_bottom_up(A, X), name
        cases += 1
    assert cases == 101


def test_enumerate_maps_catches_a_wrong_fill_table(monkeypatch):
    # every level-3 cell of the grid is degenerate and reached by no
    # branch cell, so it is filled through tables of the level-2
    # degeneracies of X, each entry read once per search through
    # X.degen; one wrong entry there shows against the oracle, at level
    # 3 only
    import nervekit.sset as sset_mod

    hc = coherent_nerve(build_example("bg:z2", max_dim=3).cat, 3)
    A = _product_pair(1, 1, 3)
    want = _enumerate_maps_bottom_up(A, hc)
    real = SimplicialSet.degen
    reads = []

    def degen(self, n, i, x):
        if self is hc:
            reads.append((n, i, x))
            if (n, i, x) == (2, 0, 0):
                return real(self, n, i, 1)
        return real(self, n, i, x)

    monkeypatch.setattr(sset_mod.SimplicialSet, "degen", degen)
    got = [list(map(list, f.key())) for f in enumerate_maps(A, hc)]
    assert (2, 0, 0) in reads and len(reads) == len(set(reads))
    assert got != want
    assert [vals[:3] for vals in got] == [vals[:3] for vals in want]


def _enumerate_maps_full(A, X):
    """All maps A -> X as full value vectors, one slot per cell in
    level-major order, by the search `enumerate_maps` ran before it
    packed them: each degenerate cell no branch step sets is filled from
    its witness once the step owning that passes, and the full vectors
    are sorted. Returns the level starts and the vectors."""
    from operator import itemgetter

    D = A.D
    base = [0] * (D + 2)
    for n in range(D + 1):
        base[n + 1] = base[n] + A.card(n)
    witness = {}
    for n in range(D):
        for i in range(n + 1):
            for y in range(A.card(n)):
                witness.setdefault(base[n + 1] + A.degen(n, i, y), (n, i, y))
    tables = {}

    def degen_table(m, i):
        if (m, i) not in tables:
            tables[m, i] = [X.degen(m, i, v) for v in range(X.card(m))]
        return tables[m, i]

    def faces_of(m, u):
        return [base[m - 1] + A.face(m, i, u - base[m]) for i in range(m + 1)]

    owner = [-1] * base[D + 1]
    moves, finders = [], []
    for n in range(D, -1, -1):
        for s in range(base[n], base[n + 1]):
            if s in witness or owner[s] >= 0:
                continue
            faces = faces_of(n, s) if n else []
            P = [i for i, w in enumerate(faces) if owner[w] >= 0]
            get = itemgetter(*(faces[i] for i in P)) if P else None
            finders.append((get, X.face_index(n, P) if P else range(X.card(n))))
            owner[s] = b = len(moves)
            sets, checks = [], []
            level = {tuple(range(n + 1)): s}
            for m in range(n, 0, -1):
                T = [list(map(X.face_map(m, j), range(X.card(m)))) for j in range(m + 1)]
                seen, below = set(), {}
                for I, u in level.items():
                    for j, w in enumerate(faces_of(m, u)):
                        J = I[:j] + I[j + 1 :]
                        if J in seen or not all(i in J for i in P):
                            continue
                        seen.add(J)
                        if owner[w] >= 0:
                            checks.append((w, T[j], u))
                            continue
                        owner[w] = b
                        sets.append((w, T[j], u))
                        below[J] = w
                        if w in witness:
                            k, i, y = witness[w]
                            checks.append((w, degen_table(k, i), base[k] + y))
                level = below
            moves.append((s, sets, checks, []))
    for s, (m, i, y) in witness.items():
        if owner[s] < 0:
            owner[s] = owner[base[m] + y]
            moves[owner[s]][3].append((s, degen_table(m, i), base[m] + y))
    vals = [0] * base[D + 1]
    out = []
    B = len(moves)
    if B == 0:
        out.append(vals[:])
    else:
        cands, pos, b = [finders[0][1]] * B, [0] * B, 0
        while b >= 0:
            j = pos[b]
            if j == len(cands[b]):
                b -= 1
                continue
            pos[b] = j + 1
            s, sets, checks, fills = moves[b]
            vals[s] = cands[b][j]
            for w, T, u in sets:
                vals[w] = T[vals[u]]
            if any(vals[w] != T[vals[u]] for w, T, u in checks):
                continue
            for w, T, u in fills:
                vals[w] = T[vals[u]]
            if b + 1 == B:
                out.append(vals[:])
                continue
            b += 1
            get, lookup = finders[b]
            cands[b] = lookup if get is None else lookup.get(get(vals), ())
            pos[b] = 0
    out.sort()
    return base, out


def _packed_map_cases():
    """The pairs of the scan oracle, the horns into nerve(z3) and S₃ that
    the forced-step oracle runs, and its grids into coherent nerves,
    built above their top nondegenerate level as `cls` builds them, so
    most cells are read through witness chains of two steps or more."""
    yield from _scan_cases()
    for name, A, X in _forced_step_cases():
        if name.startswith("grid(") or name.startswith("horn(") and name.endswith(("->nerve(z3)", "->s3")):
            yield name, A, X


def test_packed_maps_read_as_the_full_vector_search():
    # a map stores only the cells the search assigns and reads the others
    # through the search's read list; `apply`, and `key` through it, read
    # the full vector on every cell, degenerate ones too, in the same map
    # order
    cases = 0
    for name, A, X in _packed_map_cases():
        base, want = _enumerate_maps_full(A, X)
        got = enumerate_maps(A, X)
        assert len(got) == len(want), name
        for f, vec in zip(got, want):
            levels = [vec[base[n] : base[n + 1]] for n in range(A.D + 1)]
            assert [[f.apply(n, x) for x in range(A.card(n))] for n in range(A.D + 1)] == levels, name
            assert f.key() == tuple(map(tuple, levels)), name
        cases += 1
    assert cases == 94


def _key_by_apply(f):
    return tuple(tuple(f.apply(n, x) for x in range(f.source.card(n))) for n in range(f.L + 1))


def test_map_key_reads_stored_values():
    z3 = nerve_cat(cyclic_group_category(3), 3)
    stored = [yoneda_map(z3, 2, x) for x in range(z3.card(2))] + [identity_map(z3)]
    # a stored map read below its top level
    stored += [SimplicialMap(z3, z3, values=[list(range(z3.card(n))) for n in range(4)], L=2)]
    lazy = [SimplicialMap(z3, z3, fn=lambda n, x: z3.face(n + 1, 0, z3.degen(n, 0, x)), L=2)]
    # found maps keep packed vectors, read through `apply`
    packed = enumerate_maps(horn(3, 1), z3)
    for f in stored + lazy + packed:
        assert f.key() == _key_by_apply(f)
    assert all(f.values is not None for f in stored) and all(f.values is None for f in lazy + packed)
    assert stored[-1].key() == lazy[0].key()


def _closure_by_stack(X, seeds):
    """The cells per level that `subcomplex` keeps, by the per-cell stack
    it closed its seeds with before the two level passes."""
    keep = [set() for _ in range(X.D + 1)]
    stack = [(int(n), int(x)) for n, x in seeds]
    while stack:
        n, x = stack.pop()
        if x in keep[n]:
            continue
        keep[n].add(x)
        if n >= 1:
            for i in range(n + 1):
                stack.append((n - 1, X.face(n, i, x)))
        if n < X.D:
            for i in range(n + 1):
                stack.append((n + 1, X.degen(n, i, x)))
    return [sorted(level) for level in keep]


def test_subcomplex_matches_stack_closure():
    import random

    rng = random.Random(0)
    cases = 0
    for n in range(5):
        for D in range(n + 1):
            Delta = standard_simplex(n, D)
            cells = [(m, x) for m in range(D + 1) for x in range(Delta.card(m))]
            seed_sets = [[]]
            seed_sets += [[c for c in cells if any(j != k and j not in Delta.label(*c) for j in range(n + 1))]
                          for k in range(n + 1)]
            seed_sets.append([c for c in cells if set(Delta.label(*c)) != set(range(n + 1))])
            seed_sets += [rng.sample(cells, rng.randint(1, min(4, len(cells)))) for _ in range(4)]
            for seeds in seed_sets:
                S, incl = subcomplex(Delta, seeds)
                assert incl.values == _closure_by_stack(Delta, seeds), (n, D, seeds)
                assert validate_sset(S).ok and validate_map(incl).ok
                cases += 1
    assert cases == 145


def test_map_composition_and_equality():
    X = walk_nerve()
    i = identity_map(X)
    assert compose_maps(i, i) == i
    f = yoneda_map(X, 0, 0)
    assert compose_maps(i, f) == f


def test_product_pairing():
    A = standard_simplex(1, 2)
    B = walk_nerve()
    P = ProductSset(A, B)
    for n in range(3):
        assert P.card(n) == A.card(n) * B.card(n)
        for x in range(P.card(n)):
            a, b = P.split(n, x)
            assert P.pair(n, a, b) == x
        if n:
            for x in range(P.card(n)):
                a, b = P.split(n, x)
                fa, fb = P.split(n - 1, P.face(n, 0, x))
                assert fa == A.face(n, 0, a) and fb == B.face(n, 0, b)
    M = product(A, B)
    assert validate_sset(M).ok
    assert M.counts() == tuple(P.card(n) for n in range(3))


def test_power_coordinates():
    K = standard_simplex(1, 2)
    W = PowerSset(K, 3)
    for n in range(3):
        assert W.card(n) == K.card(n) ** 3
        for x in range(W.card(n)):
            assert W.index(n, W.coords(n, x)) == x
    assert validate_sset(materialize(W)).ok


def test_poset_nerve_counts():
    P = FinitePoset([0, 1, 2], [(0, 1), (1, 2)])
    N = poset_nerve(P, 2)
    assert N.counts() == (3, 6, 10)
    assert validate_sset(N).ok
    anti = poset_nerve(FinitePoset([0, 1, 2]), 2)
    assert anti.counts() == (3, 3, 3)


def test_materialize_preserves_data():
    X = standard_simplex(1, 2)
    view = ProductSset(X, X)
    M = materialize(view)
    assert sset_data_equal(M, view)
    assert validate_sset(M).ok


def test_empty_sset():
    from nervekit import SimplicialSet

    E = SimplicialSet.empty(2)
    assert E.counts() == (0, 0, 0)
    assert validate_sset(E).ok
