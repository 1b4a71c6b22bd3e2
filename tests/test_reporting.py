"""Record classes: constructors, field-wise equality, and which ones are frozen."""
import pytest

from nervekit import (
    CheckReport,
    HomologyReport,
    MarkedBisimplicialSet,
    MarkedSimplicialSet,
    ValidationReport,
    Violation,
    build_example,
    levelwise_nerve_marked,
    standard_simplex,
)


def _marked_binerve():
    return levelwise_nerve_marked(build_example("bg:z2", max_dim=2), 1, 1)


def test_default_containers_are_fresh_per_instance():
    a, b = CheckReport("c", "pass"), CheckReport("c", "pass")
    a.witnesses.append(1)
    a.bounds["n"] = 2
    assert (b.witnesses, b.bounds) == ([], {})
    r, s = ValidationReport("s"), ValidationReport("s")
    r.add("law", (0,))
    assert s.violations == [] and s.ok and not r.ok
    h, k = HomologyReport("X", "z", 1), HomologyReport("X", "z", 1)
    h.groups.append({"degree": 0})
    assert k.groups == []


def test_constructors_keep_positional_order_and_defaults():
    v = Violation("law", (1, 2))
    assert (v.identity, v.location, v.detail) == ("law", (1, 2), "")
    r = ValidationReport("s", [v], 3)
    assert (r.subject, r.violations, r.checked) == ("s", [v], 3)
    c = CheckReport("c", "fail", ["w"], {"n": 1})
    assert (c.check, c.verdict, c.witnesses, c.bounds) == ("c", "fail", ["w"], {"n": 1})
    h = HomologyReport(subject="X", coeff="f2", max_deg=2, groups=[{}])
    assert (h.subject, h.coeff, h.max_deg, h.groups) == ("X", "f2", 2, [{}])
    M = _marked_binerve()
    twin = MarkedBisimplicialSet(M.space, M.marked)
    assert (twin.space, twin.marked) == (M.space, M.marked)


def test_equality_goes_by_fields():
    assert Violation("law", (1,), "d") == Violation("law", (1,), "d")
    assert Violation("law", (1,), "d") != Violation("law", (2,), "d")
    assert ValidationReport("s", checked=2) == ValidationReport("s", [], 2)
    assert ValidationReport("s", checked=2) != ValidationReport("s", checked=3)
    assert CheckReport("c", "pass", bounds={"n": 1}) == CheckReport("c", "pass", [], {"n": 1})
    assert CheckReport("c", "pass") != CheckReport("c", "fail")
    assert HomologyReport("X", "z", 1) == HomologyReport("X", "z", 1, [])
    X = standard_simplex(1, 2)
    assert MarkedSimplicialSet(X, frozenset({0})) == MarkedSimplicialSet(X, frozenset({0}))
    assert MarkedSimplicialSet(X, frozenset({0})) != MarkedSimplicialSet(X, frozenset())
    assert Violation("law", (1,), "d") == Violation("law", (1,), detail="d")
    assert Violation("law", (1,), "d") != Violation("law", (1,), "e")
    M = _marked_binerve()
    assert MarkedBisimplicialSet(M.space, M.marked) == MarkedBisimplicialSet(space=M.space, marked=M.marked)
    assert repr(Violation("law", (1,))) == "Violation(identity='law', location=(1,), detail='')"


def test_equality_with_other_types_is_not_implemented():
    v = Violation("law", ())
    assert v.__eq__(("law", (), "")) is NotImplemented
    assert CheckReport("c", "pass").__eq__(ValidationReport("c")) is NotImplemented
    assert v != ("law", (), "")
    M = _marked_binerve()
    assert M.__eq__(M.space) is NotImplemented
    assert M != M.space


def test_frozen_records_refuse_assignment_and_hash_by_fields():
    M = _marked_binerve()
    for rec, field in ((Violation("law", (1,)), "detail"), (M, "space"), (M, "marked")):
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
    assert hash(Violation("law", (1,), "d")) == hash(Violation("law", (1,), "d"))
    assert len({Violation("law", (1,)), Violation("law", (1,)), Violation("law", (2,))}) == 2
    twin = MarkedBisimplicialSet(M.space, M.marked)
    assert twin == M and {M: 1}[twin] == 1
    assert MarkedBisimplicialSet(M.space, frozenset()) != M


def test_mutable_records_accept_assignment_and_are_unhashable():
    rep = CheckReport("c", "pass")
    rep.verdict = "fail"
    rep.bounds = {"n": 1}
    assert not rep.ok and rep.bounds == {"n": 1}
    X = standard_simplex(1, 2)
    for rec in (rep, ValidationReport("s"), HomologyReport("X", "z", 1), MarkedSimplicialSet(X, frozenset())):
        with pytest.raises(TypeError):
            hash(rec)
