"""Categories, enriched categories, gadget categories and functors."""
import itertools
import re
from math import comb

import pytest

from nervekit import (
    FiniteCategory,
    FinitePoset,
    RelativeSimplicialCategory,
    SimplicialFunctor,
    SimplicialMap,
    build_example,
    coherent_path_category,
    comparison_functor,
    compose_functors,
    cyclic_group_category,
    discrete_simplicial_category,
    enumerate_simplicial_functors,
    functors_equal,
    level_category,
    nerve_cat,
    path_functor,
    path_poset,
    poset_category,
    poset_nerve,
    simplex_power_category,
    simplex_power_transform,
    standard_simplex,
    validate_functor,
    validate_relative,
    validate_simplicial_category,
)
from nervekit.gadgets import interval_power_category
from test_chain_nerve import compose_morphisms


def validate_category(C: FiniteCategory):
    """Identities, composition ranges, units and associativity of C: the
    checks of `validate_simplicial_category` on the level-0 discrete
    category of C, which holds C's tables as they are."""
    return validate_simplicial_category(discrete_simplicial_category(C, 0), C.name or "category")


def test_cyclic_group_category():
    for m in (2, 3, 4):
        C = cyclic_group_category(m)
        assert validate_category(C).ok
        assert len(C.hom_labels("x", "x")) == m
    Z3 = cyclic_group_category(3)
    # composition adds exponents mod 3
    g2 = ("x", "x", Z3.hom_labels("x", "x")[2])
    composite = compose_morphisms(Z3, g2, g2)
    assert composite == ("x", "x", Z3.hom_labels("x", "x")[1])


def _planted(ids, table):
    # a three-element monoid on one object, with its identity and table given
    comps = {} if table is None else {("x", "x", "x"): table}
    return FiniteCategory(["x"], {("x", "x"): ["e", "u", "v"]}, comps, ids, name="planted")


# entry g * 3 + f is g∘f for g, f in e, u, v (indices 0, 1, 2). Every
# full table has e as its unit; the first is Z/3. The last two rows of the
# non-associative one set u u = v, u v = e, v u = u, v v = v, so
# (u u) v = v but u (u v) = u.
@pytest.mark.parametrize(
    "ids, table, identity",
    [
        ({"x": "w"}, [0, 1, 2, 1, 2, 0, 2, 0, 1], "identity vertex"),
        ({"x": "e"}, [0, 1, 2, 1, 2, 3, 2, 0, 1], "comp(x,x,x) simplicial: value range"),
        ({"x": "e"}, [0, 1, 2, 1, 2, 0, 2, 1, 2], "associativity"),
        ({"x": "e"}, [0, 1, 2, 1, 2, 0, 2, 0], "composition table"),
        ({"x": "e"}, None, "composition table"),
    ],
    ids=["missing-identity", "out-of-range", "non-associative", "short-table", "missing-table"],
)
def test_validate_category_reports_malformed_tables(ids, table, identity):
    assert validate_category(_planted({"x": "e"}, [0, 1, 2, 1, 2, 0, 2, 0, 1])).ok  # Z/3
    rep = validate_category(_planted(ids, table))
    assert not rep.ok and rep.subject == "planted"
    assert {v.identity for v in rep.violations} == {identity}


def test_nerve_counts_for_groups():
    for m in (2, 3):
        N = nerve_cat(cyclic_group_category(m), 2)
        assert N.counts() == (1, m, m * m)


def test_nerve_of_poset_matches_poset_nerve():
    P = FinitePoset([0, 1], [(0, 1)])
    N1 = nerve_cat(poset_category(P), 2)
    N2 = poset_nerve(P, 2)
    assert N1.counts() == N2.counts()
    # identify cells through their vertex strings
    assert N1.nondeg_counts() == N2.nondeg_counts()


def test_functors_equal_compares_whole_hom_tables():
    # both functors send every vertex to the identity; one sends the
    # nondegenerate edge of hom(0, 1) to the identity edge, the other to
    # the generator, so their vertex signatures agree
    F, G = enumerate_simplicial_functors(simplex_power_category(1, 1), build_example("bg:z2", max_dim=1).cat)
    assert F.vertex_signature() == G.vertex_signature()
    assert not functors_equal(F, G)
    assert functors_equal(F, F) and functors_equal(G, G)


def test_level_category_of_group_example(z2_rel):
    SC = z2_rel.cat
    C0 = level_category(SC, 0)
    assert validate_category(C0).ok
    assert len(C0.hom_labels("x", "x")) == 1
    C1 = level_category(SC, 1)
    assert validate_category(C1).ok
    assert len(C1.hom_labels("x", "x")) == 2


def test_discrete_simplicial_category(poset012):
    SC = poset012.cat
    assert validate_simplicial_category(SC).ok
    for (a, b), H in SC.homs.items():
        assert H.counts() == (1, 1, 1)


def test_path_poset_shape():
    P = path_poset(0, 3)
    assert len(P) == 4
    assert P.elements[0] == (0, 3)
    assert P.elements[-1] == (0, 1, 2, 3)
    # order is refinement: adding stops moves up
    assert P.leq((0, 3), (0, 1, 3))
    assert not P.leq((0, 1, 3), (0, 2, 3))


def test_path_category_hom_counts():
    S = coherent_path_category(3, 2)
    for i in range(4):
        for j in range(i, 4):
            H = S.hom(i, j)
            span = max(j - i - 1, 0)
            assert H.counts() == tuple((m + 2) ** span for m in range(3))
    assert validate_simplicial_category(S).ok


def test_simplex_power_hom_counts():
    T = simplex_power_category(2, 2)
    for i in range(3):
        for j in range(i, 3):
            H = T.hom(i, j)
            assert tuple(H.card(m) for m in range(3)) == tuple(
                comb(2 + m + 1, m + 1) ** (j - i) for m in range(3)
            )


def test_simplex_power_compositions_are_index_identities():
    # concatenating coordinate tuples is the pairing g * |hom(i, j)| + f,
    # so every level's table is the identity on hom(i, k), and validation
    # sweeps as many cells as it did over a lazily computed composition
    T = simplex_power_category(2, 2)
    for (i, j, k), tables in T.comps.items():
        assert tables == [range(T.hom(i, k).card(m)) for m in range(3)]
    rep = validate_simplicial_category(T)
    assert rep.ok and rep.checked == 3525
    # the oracles' largest gadget: hom(0, 4) has 126^4 cells at level 4
    assert simplex_power_category(4, 4).comps[(0, 2, 4)][4] == range(126**4)


def test_nerves_and_serialization_read_compositions_as_tables(monkeypatch):
    # building the levelwise nerve, the comparison map and the JSON
    # document indexes the stored tables and reads no composition through
    # a map out of a product
    from nervekit import ProductSset, SimplicialMap, comparison_map, levelwise_nerve
    from nervekit.serialize import cat_to_json

    apply, calls = SimplicialMap.apply, []

    def recorded(self, n, x):
        if isinstance(self.source, ProductSset):
            calls.append((n, x))
        return apply(self, n, x)

    monkeypatch.setattr(SimplicialMap, "apply", recorded)
    z2 = build_example("bg:z2", max_dim=3).cat
    levelwise_nerve(z2, 3, 3)
    comparison_map(z2, 3)
    cat_to_json(build_example("bg:z3", max_dim=4).cat)
    assert calls == []


def test_comparison_functor_vertex_formula():
    F = comparison_functor(2, 2)
    NP = F.source.hom(0, 2)
    PW = F.target.hom(0, 2)
    direct = NP.index_of(0, ((0, 2),))
    refined = NP.index_of(0, ((0, 1, 2),))
    assert PW.label(0, F.apply_hom(0, 2, 0, direct)) == ((0,), (0,))
    assert PW.label(0, F.apply_hom(0, 2, 0, refined)) == ((1,), (0,))


def _comparison_functor_by_subsets(n, D):
    """The comparison functor by its own rule, into a chain gadget built
    here: a subset S with min i and max j goes to the tuple whose
    coordinate for hop t = j, ..., i+1 is the largest element of S
    strictly below t."""
    S = coherent_path_category(n, D)
    Delta = standard_simplex(n, D)
    T = interval_power_category(n, Delta)
    homs = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            NP = S.hom(i, j)
            PW = T.hom(i, j)
            vals = []
            for m in range(D + 1):
                row = []
                for x in range(NP.card(m)):
                    chain = NP.label(m, x)
                    coords = []
                    for c in range(j - i):
                        hop = j - c
                        tup = tuple(max(v for v in subset if v < hop) for subset in chain)
                        coords.append(Delta.index_of(m, tup))
                    row.append(PW.index(m, coords))
                vals.append(row)
            homs[(i, j)] = SimplicialMap(NP, PW, values=vals)
    return SimplicialFunctor(S, T, {i: i for i in range(n + 1)}, homs)


def test_comparison_functor_is_the_diagonal_grid_collapse():
    for n in range(5):
        for D in range(4):
            F, G = comparison_functor(n, D), _comparison_functor_by_subsets(n, D)
            assert F.obj == G.obj == {i: i for i in range(n + 1)}
            assert functors_equal(F, G), (n, D)
    assert comparison_functor(2, 2).target is simplex_power_category(2, 2)


def test_comparison_functor_validates():
    for n in range(4):
        D = max(1, n - 1)
        F = comparison_functor(n, D)
        assert validate_functor(F, subject=f"comparison at {n}").ok


def test_comparison_naturality_squares():
    # induced functors on both gadgets commute with the comparison
    D = 2
    for a in range(3):
        for b in range(3):
            for f in itertools.combinations_with_replacement(range(b + 1), a + 1):
                up = path_functor(f, a, b, D)
                right = simplex_power_transform(f, a, b, D)
                lhs = compose_functors(comparison_functor(b, D), up)
                rhs = compose_functors(right, comparison_functor(a, D))
                assert functors_equal(lhs, rhs), (a, b, f)


def test_composed_functors_match_the_lazy_route():
    # compose_functors gathers G's tables along F's; the oracle evaluates
    # a closure over both factors cell by cell
    from test_nerves import _compose_lazily

    D = 2
    for a in range(3):
        for b in range(3):
            for f in itertools.combinations_with_replacement(range(b + 1), a + 1):
                up = path_functor(f, a, b, D)
                right = simplex_power_transform(f, a, b, D)
                for G, F in [(comparison_functor(b, D), up), (right, comparison_functor(a, D))]:
                    eager = compose_functors(G, F)
                    assert all(m.values is not None for m in eager.homs.values())
                    assert functors_equal(eager, _compose_lazily(G, F)), (a, b, f)


@pytest.mark.parametrize(
    "f, b, message",
    [((1, 0), 1, "not a monotone"), ((0, 3), 2, "out of range"), ((0,), 1, "not a monotone"), ((-1, 0), 1, "out of range")],
)
def test_induced_functors_reject_bad_vertex_maps(f, b, message):
    for build in (path_functor, simplex_power_transform):
        with pytest.raises(ValueError, match=message):
            build(f, 1, b, 2)


def test_enumerate_functors_candidate_count():
    S = coherent_path_category(1, 1)
    T = simplex_power_category(1, 1)
    cands = enumerate_simplicial_functors(S, T)
    # object maps must respect the empty reverse hom, so only
    # (0,0), (1,1) and (0,1) survive; the last has two vertex choices
    assert len(cands) == 4
    assert len({F.vertex_signature() for F in cands}) == 4


def test_relative_constructions(z2_rel, poset01):
    assert validate_relative(z2_rel).ok
    assert validate_relative(poset01).ok
    # the group hom is connected, so an identities-only marking is not
    # a union of components
    broken = RelativeSimplicialCategory.identities_only(z2_rel.cat)
    rep = validate_relative(broken)
    assert not rep.ok
    assert any(v.identity == "wideness" for v in rep.violations)


def test_relative_from_level_labels(z2_rel):
    from nervekit import from_level_labels

    SC = z2_rel.cat
    R = from_level_labels(SC, {("x", "x"): {0}})
    # seeding any vertex of a connected hom recovers the whole marking
    assert validate_relative(R).ok
    for n in range(SC.D + 1):
        assert R.sub_cells("x", "x", n) == frozenset(range(SC.hom("x", "x").card(n)))


def test_build_example_names():
    from nervekit import example_names

    names = example_names()
    assert "bg:z<m>" in names
    with pytest.raises(ValueError):
        build_example("bg:q8")
    with pytest.raises(ValueError):
        build_example("bg:z2", max_dim=0)
    R = build_example("poset:a<b,b<c", max_dim=2)
    assert validate_relative(R).ok
    assert len(R.cat.objects) == 3


def test_two_object_interval_example():
    R = build_example("two-object-interval", max_dim=2)
    assert validate_relative(R).ok
    assert validate_simplicial_category(R.cat).ok
    assert R.cat.hom(0, 1).counts() == (1, 1, 1)
    assert R.cat.hom(1, 0).counts() == (0, 0, 0)


@pytest.mark.parametrize(
    "name, a, b, stray",
    [("bg:z3", "x", "x", 0), ("discrete:poset012", 0, 1, "0")],
)
def test_hom_rejects_names_that_are_not_objects(name, a, b, stray):
    SC = build_example(name, max_dim=4).cat
    assert SC.hom(a, b).card(0) == 1
    for pair in ((stray, b), (a, stray), (stray, stray)):
        with pytest.raises(KeyError, match=re.escape(f"{stray!r} is not an object")):
            SC.hom(*pair)


def test_hom_between_objects_without_one_is_empty():
    SC = build_example("discrete:poset012", max_dim=4).cat
    assert (1, 0) not in SC.homs
    assert SC.hom(1, 0).counts() == (0,) * 5
