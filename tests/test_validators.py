"""Validator and check reports on planted faults, pinned byte for byte.

Each case plants one fault in a clean object and pins the digest of the
``to_json()`` of the report that finds it, with its ``checked`` count
(or bounds) and its first violation, so a rewrite of a validator's
loops must keep every violation, their order and every count.
"""
import copy

import pytest

from nervekit import (
    MarkedBisimplicialSet,
    RelativeSimplicialCategory,
    build_example,
    comparison_functor,
    cyclic_group_category,
    digest,
    fiber_check,
    levelwise_nerve,
    levelwise_nerve_marked,
    nerve_cat,
    segal_column_check,
    validate_bisset,
    validate_functor,
    validate_relative,
    validate_sset,
)


def _z2():
    return build_example("bg:z2", max_dim=2)


def _set(table, path, value):
    for k in path[:-1]:
        table = table[k]
    table[path[-1]] = value


# (family, index path, new value): faces of the top bidegrees that keep
# every row and column simplicial, so only a commutation square fails,
# and degeneracies, which no single entry can change that way
BISSET_FAULTS = {
    "hfaces": ((2, 1, 0, 3), 0),
    "hdegens": ((1, 1, 0, 1), 0),
    "vfaces": ((1, 2, 0, 3), 0),
    "vdegens": ((1, 1, 0, 1), 0),
}


def _planted_bisset(family):
    NB = copy.deepcopy(levelwise_nerve(_z2().cat, 2, 2))
    path, value = BISSET_FAULTS[family]
    _set(getattr(NB, family), path, value)
    return validate_bisset(NB)


def _planted_sset(fault):
    X = nerve_cat(cyclic_group_category(2), 2)
    if fault == "face shape":
        X.faces[2].pop()
    elif fault == "degen shape":
        X.degens[1][0].append(0)
    elif fault == "face range":
        X.faces[2][1][3] = 7
    else:
        X.degens[1][1][1] = -1
    return validate_sset(X)


def _planted_relative(fault):
    SC = _z2().cat
    s01 = SC.hom("x", "x").degen(1, 0, 1)
    if fault == "face closure":
        per_level = [{0}, {0}, {0, 1, 2, 3}]
    else:
        per_level = [{0}, {0, 1}, {0, 1, 2, 3} - {s01}]
    return validate_relative(RelativeSimplicialCategory(SC, {("x", "x"): per_level}))


def _planted_marking():
    M = levelwise_nerve_marked(_z2(), 2, 2)
    return MarkedBisimplicialSet(M.space, M.marked - {(1, 0)}).validate()


# (check, family, index path): one vertical entry of the levelwise nerve
# the check builds, moved to the next cell of its target
SEGAL_FAULTS = {
    ("segal", "vfaces"): (1, 2, 0, 1),
    ("segal", "vdegens"): (1, 1, 1, 0),
    ("fiber", "vfaces"): (1, 2, 1, 2),
    ("fiber", "vdegens"): (1, 1, 0, 1),
}


def _planted_segal(monkeypatch, check, family):
    import nervekit.segal as segal_mod

    original = segal_mod.levelwise_nerve
    path = SEGAL_FAULTS[(check, family)]

    def planted(SC, P, Q, name=""):
        NB = original(SC, P, Q, name)
        p, q, j, x = path
        table = getattr(NB, family)[p][q][j]
        dq = -1 if family == "vfaces" else 1
        table[x] = (table[x] + 1) % NB.card(p, q + dq)
        return NB

    monkeypatch.setattr(segal_mod, "levelwise_nerve", planted)
    return segal_column_check(_z2(), 2, 2) if check == "segal" else fiber_check(_z2())


def _summary(rep) -> tuple:
    """(checked count or bounds, first violation or witness, digest of to_json())."""
    doc = rep.to_json()
    if "violations" in doc:
        return doc["checked"], doc["violations"][0]["identity"], digest(doc)
    return doc["bounds"], list(doc["witnesses"][0])[0], digest(doc)


# computed before the validators read the operator families of `sset`
PINS = {
    ("bisset", "hfaces"): (515, "s^v_j d^h_i = d^h_i s^v_j", "7f966f08a663ec06bb27bad0d1f0b09e3a55f12585f66a2d255e5c747eaf2db6"),
    ("bisset", "hdegens"): (228, "row 1: d_j s_j = id = d_{j+1} s_j", "3b7afe79a06e0fa8c33ba411378819b971cd00f1960b810505c1e663c93da636"),
    ("bisset", "vfaces"): (515, "d^v_j s^h_i = s^h_i d^v_j", "77bcfb129771cfb0f699110f59b9a4e1d995791a6074b0d1a05c3fc264842dc2"),
    ("bisset", "vdegens"): (228, "column 1: d_j s_j = id = d_{j+1} s_j", "71039ddced79e497f1436f1c5319ba2e4e7a2238c9ff27f538ae6aaabc1cead5"),
    ("sset", "face shape"): (0, "table shape", "55eff01f463c42a5ade708f2003e71c10855998fa72875eaacbde9cc9cc80640"),
    ("sset", "degen shape"): (0, "table shape", "3eef622fdca3364f9ac953d15fdbc564dc7b5ea44eeb0fcfff338f389f2f404c"),
    ("sset", "face range"): (0, "face range", "bdfe8dd4c1dfd16d2989d7bda750b47188fc448909ddecc7381bb8ea2b5115ee"),
    ("sset", "degen range"): (0, "degeneracy range", "0b300815f21ad66e1e92cc2282c457a47e51ceb8fff37a6ffa99cd04fd08a04d"),
    ("relative", "face closure"): (45, "sub closed under faces", "a68b477931359efb02c31ae9f1d4b2b277debc80ecd06273f962ce10475fd039"),
    ("relative", "degeneracy closure"): (42, "sub closed under degeneracies", "a7bc8461615d5a810e617379f0e458ac410f3014f6383e81204fac224a4dcb6c"),
    ("marking", "dropped mark"): (20, "marking closed under faces", "82433b5f1e51ae6dbfba73f77a43bfe78525efd520c3b4e2349bd4c647e7167e"),
    ("segal", "vfaces"): (
        {"n_max": 2, "Q": 2, "cells_checked": 28, "op_instances": 86, "segal_pairs": 21},
        "vertical face vs factors",
        "38da7a645d656cf35dcd5a228b0fca501b80e372f2c45b8ed3ca88f16b8c09d0",
    ),
    ("segal", "vdegens"): (
        {"n_max": 2, "Q": 2, "cells_checked": 28, "op_instances": 86, "segal_pairs": 21},
        "vertical degeneracy vs factors",
        "e739c6dc208873a30c39683882e8be40674d5323133e564044b911bd0177ed35",
    ),
    ("fiber", "vfaces"): (
        {"levels": 2, "pairs": 1, "cells_checked": 7},
        "fiber vs vertical face",
        "7cc1ab08b314fc2a42c2d00c0bf24728e0ce42c5c24aaad6b77868cda2881816",
    ),
    ("fiber", "vdegens"): (
        {"levels": 2, "pairs": 1, "cells_checked": 7},
        "fiber vs vertical degeneracy",
        "c3cf6ae11e7a7a3aee7eb2f53f4ab2a63910e0f3476e5174ddf912024cbc3dd4",
    ),
}


@pytest.mark.parametrize("kind, fault", list(PINS))
def test_planted_fault_report_is_pinned(kind, fault, monkeypatch):
    if kind == "bisset":
        rep = _planted_bisset(fault)
    elif kind == "sset":
        rep = _planted_sset(fault)
    elif kind == "relative":
        rep = _planted_relative(fault)
    elif kind == "marking":
        rep = _planted_marking()
    else:
        rep = _planted_segal(monkeypatch, kind, fault)
    assert not rep.ok
    assert _summary(rep) == PINS[(kind, fault)]


@pytest.mark.parametrize(
    "per_level, violation",
    [
        ([{0}, {0, 1, 99}, {0, 1, 2, 3}], ("sub cell range", ["x", "x", 1, 99], "cell out of range")),
        ([{0}, {0, 1}], ("sub shape", ["x", "x"], "per-level list has wrong length")),
    ],
)
def test_relative_with_a_malformed_sub_stops_before_the_closure_checks(per_level, violation):
    # the closure, identity and wideness checks would index the stray cell
    # or the missing level
    rep = validate_relative(RelativeSimplicialCategory(_z2().cat, {("x", "x"): per_level}))
    assert [tuple(v.to_json().values()) for v in rep.violations] == [violation]
    assert rep.checked == 0


def test_functor_with_a_value_out_of_range_stops_after_the_hom_maps():
    # the identity and composition checks would compose the stray value
    F = copy.deepcopy(comparison_functor(2, 2))
    F.homs[(0, 2)].values[1][0] = 10**6
    rep = validate_functor(F)
    assert [v.identity for v in rep.violations] == ["hom(0,2) simplicial: value range"]
    assert rep.violations[0].location == (1, 0)
