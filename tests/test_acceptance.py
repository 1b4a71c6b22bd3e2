"""Acceptance gate: ten exact checks, one printed line each.

Each test prints "criterion N: PASS ..." on success; a failure raises
with the offending data, so `pytest -v` shows one verdict line per
criterion either way.
"""
import itertools

import pytest

from nervekit import (
    build_example,
    classification_comparison,
    classifying_space,
    coherent_nerve,
    comparison_functor,
    comparison_map,
    compose_functors,
    consistency_check,
    cyclic_group_category,
    fiber_check,
    functors_equal,
    horn_check,
    induced_chain_iso,
    load,
    nerve_cat,
    level_category,
    path_functor,
    segal_column_check,
    simplex_power_transform,
    uniqueness_search,
    validate_functor,
    validate_map,
    validate_relative,
    validate_sset,
)

DISCRETE_NAMES = (
    "discrete:poset01",
    "discrete:poset012",
    "discrete:antichain3",
    "poset:a<b,b<c",
    "two-object-interval",
)
ALL_NAMES = ("bg:z2", "bg:z3", "bg:z4") + DISCRETE_NAMES


@pytest.fixture(scope="module")
def z2_d6():
    return build_example("bg:z2", max_dim=6)


@pytest.fixture(scope="module")
def poset01_d6():
    return build_example("discrete:poset01", max_dim=6)


def emit(n, text):
    print(f"criterion {n}: PASS {text}")


def test_criterion_01_uniqueness_at_truncation_two():
    fams1 = uniqueness_search(1)
    assert len(fams1) == 2
    canon1 = [
        fam for fam in fams1 if functors_equal(fam[1], comparison_functor(1, 1))
    ]
    assert len(canon1) == 1, "one candidate at degree 1 is the canonical one"
    fams2 = uniqueness_search(2)
    assert len(fams2) == 1
    for n, F in enumerate(fams2[0]):
        G = comparison_functor(n, 2)
        assert F.obj == G.obj
        for pair, m in F.homs.items():
            assert m.key() == G.homs[pair].key(), (n, pair)
    emit(1, "unique family at truncation 2, rival eliminated exactly at degree 2")


def test_criterion_02_comparison_formula_and_naturality():
    F = comparison_functor(2, 2)
    NP = F.source.hom(0, 2)
    PW = F.target.hom(0, 2)
    direct = NP.index_of(0, ((0, 2),))
    refined = NP.index_of(0, ((0, 1, 2),))
    assert PW.label(0, F.apply_hom(0, 2, 0, direct)) == ((0,), (0,))
    assert PW.label(0, F.apply_hom(0, 2, 0, refined)) == ((1,), (0,))
    for n in range(5):
        rep = validate_functor(comparison_functor(n, max(1, n - 1)))
        assert rep.ok, (n, rep.violations[:1])
    D = 3
    squares = 0
    for a in range(5):
        for b in range(5):
            for f in itertools.combinations_with_replacement(range(b + 1), a + 1):
                lhs = compose_functors(comparison_functor(b, D), path_functor(f, a, b, D))
                rhs = compose_functors(
                    simplex_power_transform(f, a, b, D), comparison_functor(a, D)
                )
                assert functors_equal(lhs, rhs), (a, b, f)
                squares += 1
    assert squares == sum(
        len(list(itertools.combinations_with_replacement(range(b + 1), a + 1)))
        for a in range(5)
        for b in range(5)
    )
    emit(2, f"vertex formula reproduced, {squares} naturality squares commute")


def test_criterion_03_column_bijections():
    z2 = build_example("bg:z2", max_dim=3)
    rep = segal_column_check(z2, 3, 3)
    assert rep.ok, rep.witnesses[:1]
    disc = build_example("discrete:poset012", max_dim=3)
    rep2 = segal_column_check(disc, 3, 3)
    assert rep2.ok, rep2.witnesses[:1]
    assert rep.bounds["segal_pairs"] > 0 and rep2.bounds["segal_pairs"] > 0
    emit(3, "column and Segal pullback bijections hold for group and discrete binerves")


def test_criterion_04_fiber_identification():
    for name in ALL_NAMES:
        rep = fiber_check(build_example(name, max_dim=2))
        assert rep.ok, (name, rep.witnesses[:1])
    emit(4, f"fiber bijections hold on all {len(ALL_NAMES)} generator examples")


def test_criterion_05_discrete_collapse():
    for name in DISCRETE_NAMES:
        SC = build_example(name, max_dim=2).cat
        hc = coherent_nerve(SC, 2)
        B = classifying_space(SC, 2)
        N0 = nerve_cat(level_category(SC, 0), 2)
        assert hc.counts() == B.counts() == N0.counts(), name
        f = comparison_map(SC, 2)
        assert validate_map(f).ok
        for n in range(3):
            assert sorted(f.apply(n, x) for x in range(B.card(n))) == list(
                range(hc.card(n))
            ), (name, n)
    emit(5, "both nerves collapse to the ordinary nerve with the comparison a bijection")


def test_criterion_06_chain_isomorphism_low_degrees():
    R = build_example("bg:z2", max_dim=4)
    f = comparison_map(R.cat, 3)
    rep = induced_chain_iso(f, coeff="f2", max_deg=2)
    assert rep.ok, rep.witnesses[:1]
    assert rep.bounds["max_deg"] == 2
    # the single hom is the nerve of the order two group, so both nerves
    # model a double delooping: dimensions 1, 0, 1 in degrees 0, 1, 2
    for deg, dim in ((0, 1), (1, 0), (2, 1)):
        got = rep.bounds[f"H{deg}"]
        assert got["dim_source"] == dim and got["dim_target"] == dim, (deg, got)
    emit(6, "mod 2 chain map is an isomorphism in degrees 0..2 with dims 1, 0, 1")


def test_criterion_07_theta_well_formed(z2_d6, poset01_d6):
    rep = classification_comparison(z2_d6, 3, 3)
    assert rep.ok, rep.witnesses[:1]
    assert rep.bounds["marked_edges_checked"] > 0
    rep2 = classification_comparison(poset01_d6, 3, 3)
    assert rep2.ok, rep2.witnesses[:1]
    cons = consistency_check(z2_d6.cat, comparison_map(z2_d6.cat, 3))
    assert cons.ok, cons.witnesses[:1]
    assert cons.bounds["diagonal"] == 531
    emit(7, "theta is a valid marked map at (3,3) and both diagonal routes agree")


def test_criterion_08_counting_cross_oracle():
    SC = build_example("bg:z2", max_dim=3).cat
    hc = coherent_nerve(SC, 3)
    assert hc.counts() == tuple(2 ** (n * (n - 1) // 2) for n in range(4))
    B = classifying_space(SC, 3)
    assert B.counts() == tuple(2 ** (k * k) for k in range(4))
    emit(8, "level counts match the closed forms 2^(n(n-1)/2) and 2^(k^2)")


def test_criterion_09_fibrancy_and_named_witness():
    for m in (2, 3, 4):
        R = build_example(f"bg:z{m}", max_dim=3)
        for (a, b), H in R.cat.homs.items():
            for n in (1, 2, 3):
                for k in range(n + 1):
                    rep = horn_check(H, n, k)
                    assert rep.ok, (m, a, b, n, k, rep.witnesses[:1])
    from nervekit import FinitePoset, poset_category

    N = nerve_cat(poset_category(FinitePoset([0, 1], [(0, 1)])), 2)
    rep = horn_check(N, 2, 0)
    assert not rep.ok
    assert rep.bounds["horn_maps"] == 5 and rep.bounds["unfillable"] == 1
    assignment = dict(rep.witnesses[0]["assignment"])
    assert assignment[(0, 1)] != assignment[(0, 2)]
    emit(9, "group homs fill all horns to degree 3; the walking arrow shows the named gap")


def test_criterion_10_validation_soundness(fixtures_dir):
    broken = {
        "broken_identity_sset.json": "d_i d_j",
        "broken_unit_cat.json": "unit",
        "broken_commutation_bisset.json": "violation",
        "broken_square_bisset.json": "s^v_j d^h_i",
        "broken_marking.json": "mark",
        "non_wide.json": "wide",
    }
    for name, needle in broken.items():
        with pytest.raises(ValueError) as info:
            load(fixtures_dir / name)
        assert needle in str(info.value), name
    for name in ("clean_sset.json", "clean_relative.json", "clean_bisset.json"):
        load(fixtures_dir / name)
    R = build_example("bg:z2", max_dim=2)
    assert validate_relative(R).ok
    for H in R.cat.homs.values():
        assert validate_sset(H).ok
    emit(10, "all planted defects rejected with witnesses, clean fixtures pass")
