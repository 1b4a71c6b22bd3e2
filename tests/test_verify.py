"""Verification engine: components, horn fillers, column and fiber
bijections, uniqueness enumeration.

Most checks return a CheckReport with a verdict, witnesses on failure,
and the truncation bounds the verdict is exact within.
"""
import pytest

from nervekit import (
    FinitePoset,
    TruncationError,
    build_example,
    comparison_functor,
    cyclic_group_category,
    enumerate_maps,
    fiber_check,
    functors_equal,
    horn,
    horn_check,
    nerve_cat,
    pi0,
    poset_category,
    poset_nerve,
    segal_column_check,
    standard_simplex,
    uniqueness_report,
    uniqueness_search,
)
from nervekit.sset import act, act_table
from nervekit.horns import _lab
from sset_helpers import boundary_simplex


def walk_nerve(D=2):
    return nerve_cat(poset_category(FinitePoset([0, 1], [(0, 1)])), D)


def test_pi0_components():
    assert pi0(poset_nerve(FinitePoset([0, 1, 2]), 2)) == [[0], [1], [2]]
    assert pi0(nerve_cat(cyclic_group_category(2), 2)) == [[0]]
    assert len(pi0(boundary_simplex(2))) == 1


def test_inner_horns_of_nerves_fill():
    N = walk_nerve()
    rep = horn_check(N, 2, 1)
    assert rep.ok
    assert rep.bounds["unfillable"] == 0


def test_outer_horn_witness_on_walking_arrow():
    N = walk_nerve()
    rep = horn_check(N, 2, 0)
    assert not rep.ok
    assert rep.bounds["horn_maps"] == 5
    assert rep.bounds["unfillable"] == 1
    # the named witness: edge {0,1} is the arrow, edge {0,2} the identity
    witness = rep.witnesses[0]["assignment"]
    values = dict(witness)
    assert values[(0, 1)] != values[(0, 2)]


def test_group_nerve_horns_fill(z2_rel):
    N = nerve_cat(cyclic_group_category(2), 3)
    for n in (1, 2, 3):
        for k in range(n + 1):
            assert horn_check(N, n, k).ok


def _horn_check_by_scan(X, n, k, max_witnesses=8):
    """Verdict, unfillable count and witnesses by the slow route: scan
    every n-cell of X for a filler of each horn map."""
    H = horn(n, k)
    nd = [(m, c) for m in range(H.D + 1) for c in H.nondegenerate_cells(m)]
    witnesses = []
    unfillable = 0
    for h in enumerate_maps(H, X):
        fillers = [
            z
            for z in range(X.card(n))
            if all(act(X, n, z, H.label(m, c)) == h.apply(m, c) for m, c in nd)
        ]
        if not fillers:
            unfillable += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(
                    {"assignment": [(H.label(m, c), _lab(X, m, h.apply(m, c))) for m, c in nd]}
                )
    return ("pass" if unfillable == 0 else "fail"), unfillable, witnesses


def _horn_cases():
    chain = poset_nerve(FinitePoset([0, 1, 2], [(0, 1), (1, 2)]), 3)
    z3 = nerve_cat(cyclic_group_category(3), 4)
    cases = [(walk_nerve(), 2, 0)]
    cases += [(boundary_simplex(2, 2), n, k) for n in (1, 2) for k in range(n + 1)]
    cases += [(chain, n, k) for n in (1, 2, 3) for k in range(n + 1)]
    cases += [(z3, n, k) for n in range(1, 5) for k in range(n + 1)]
    return cases


def _horn_scan_mismatches():
    """The horn cases where `horn_check` and the filler scan disagree,
    and the verdicts seen."""
    mismatches, verdicts = [], set()
    for X, n, k in _horn_cases():
        rep = horn_check(X, n, k, max_witnesses=3)
        got = (rep.verdict, rep.bounds["unfillable"], rep.witnesses)
        if got != _horn_check_by_scan(X, n, k, max_witnesses=3):
            mismatches.append((X.name, n, k))
        verdicts.add(rep.verdict)
    return mismatches, verdicts


def test_horn_check_matches_filler_scan():
    mismatches, verdicts = _horn_scan_mismatches()
    assert mismatches == []
    assert verdicts == {"pass", "fail"}


def test_horn_check_catches_a_restriction_on_the_wrong_face(monkeypatch):
    # the restriction to the top horn cell d_0 is built on d_1 instead
    import nervekit.horns as horns_mod

    real = horns_mod.act_table

    def act_table(X, n, f):
        if tuple(f) == tuple(range(1, n + 1)):
            f = (0,) + tuple(range(2, n + 1))
        return real(X, n, f)

    monkeypatch.setattr(horns_mod, "act_table", act_table)
    mismatches, _ = _horn_scan_mismatches()
    assert mismatches


def _horn_check_on_every_cell(X, n, k, max_witnesses=8):
    """`horn_check` as it compared a horn map with the restrictions on
    every nondegenerate horn cell, one composite `act_table` each."""
    H = horn(n, k)
    nd = [(m, c) for m in range(H.D + 1) for c in H.nondegenerate_cells(m)]
    restrictions = set(zip(*(act_table(X, n, H.label(m, c)) for m, c in nd)))
    witnesses = []
    unfillable = 0
    maps = enumerate_maps(H, X)
    for h in maps:
        if tuple(h.apply(m, c) for m, c in nd) not in restrictions:
            unfillable += 1
            if len(witnesses) < max_witnesses:
                witnesses.append({"assignment": [(H.label(m, c), _lab(X, m, h.apply(m, c))) for m, c in nd]})
    return {
        "check": f"horn({n},{k}) extension in {X.name or 'sset'}",
        "verdict": "pass" if unfillable == 0 else "fail",
        "witnesses": witnesses,
        "bounds": {"n": n, "k": k, "horn_maps": len(maps), "unfillable": unfillable},
    }


def test_horn_check_matches_the_route_on_every_cell():
    for X, n, k in _horn_cases():
        rep = horn_check(X, n, k, max_witnesses=3)
        want = _horn_check_on_every_cell(X, n, k, max_witnesses=3)
        assert {key: getattr(rep, key) for key in want} == want, (X.name, n, k)


def test_horn_check_bounds():
    N = walk_nerve()
    with pytest.raises(TruncationError):
        horn_check(N, 3, 0)
    with pytest.raises(TruncationError):
        horn_check(N, 0, 0)


def test_segal_columns_on_group_example(z2_rel):
    rep = segal_column_check(z2_rel, 2, 2)
    assert rep.ok
    assert rep.bounds["segal_pairs"] > 0


def test_segal_columns_on_discrete_example(poset012):
    rep = segal_column_check(poset012, 3, 2)
    assert rep.ok


def test_segal_rejects_bad_arguments(z2_rel):
    with pytest.raises(ValueError):
        segal_column_check(z2_rel, 0, 1)
    with pytest.raises(TruncationError):
        segal_column_check(z2_rel, 2, 9)


def test_fiber_check_on_examples(z2_rel, poset01):
    assert fiber_check(z2_rel).ok
    assert fiber_check(poset01).ok


def test_uniqueness_candidates_at_degree_one():
    fams = uniqueness_search(1)
    assert len(fams) == 2
    rep = uniqueness_report(1)
    assert not rep.ok
    assert rep.bounds["families"] == 2


def test_uniqueness_at_degree_two():
    fams = uniqueness_search(2)
    assert len(fams) == 1
    for n, F in enumerate(fams[0]):
        assert functors_equal(F, comparison_functor(n, 2))
    rep = uniqueness_report(2)
    assert rep.ok
    assert rep.bounds["canonical_found"]


def test_uniqueness_rejects_bad_arguments():
    with pytest.raises(ValueError):
        uniqueness_search(0)
