"""Bisimplicial structure: grids, transpose, diagonal, markings."""
import pytest

from nervekit import (
    MarkedBisimplicialSet,
    diagonal,
    diagonal_marked,
    levelwise_nerve,
    levelwise_nerve_marked,
    validate_bisset,
    validate_sset,
)


def test_binerve_counts(z2_rel_d3):
    NB = levelwise_nerve(z2_rel_d3.cat, 3, 3)
    for p in range(4):
        for q in range(4):
            assert NB.card(p, q) == 2 ** (p * q)
    assert validate_bisset(NB).ok


def test_levelwise_nerve_is_counted_before_it_is_built(monkeypatch, capsys, z2_rel_d4):
    import nervekit.bisimplicial as bisimplicial_mod
    from nervekit import TruncationError, build_example
    from nervekit.cli import main

    # bg:z2 at (4, 4), the largest levelwise nerve any test builds, is
    # admitted
    NB = levelwise_nerve(z2_rel_d4.cat, 4, 4)
    assert sum(map(sum, NB.cards)) == 74963 <= bisimplicial_mod.MAX_LEVELWISE_CELLS
    # above the bound no row is built
    built = []
    monkeypatch.setattr(bisimplicial_mod, "chain_index_nerve", lambda *args: built.append(args))
    with pytest.raises(TruncationError, match="has 44144193 cells"):
        levelwise_nerve(build_example("bg:z3", max_dim=4).cat, 4, 4)
    assert main(["bspace", "--example", "bg:z2", "--max-dim", "5"]) == 2
    assert "has 35794197 cells, above the bound" in capsys.readouterr().err
    assert built == []


def test_binerve_rows_and_columns_are_simplicial(z2_rel):
    NB = levelwise_nerve(z2_rel.cat, 2, 2)
    for q in range(3):
        assert validate_sset(NB.row(q)).ok
    for p in range(3):
        assert validate_sset(NB.column(p)).ok


def test_transpose_involution(z2_rel):
    NB = levelwise_nerve(z2_rel.cat, 2, 2)
    T = NB.transpose()
    assert validate_bisset(T).ok
    for p in range(3):
        for q in range(3):
            assert T.card(q, p) == NB.card(p, q)
    TT = T.transpose()
    for p in range(3):
        for q in range(3):
            assert TT.card(p, q) == NB.card(p, q)
            for i in range(p):
                for x in range(NB.card(p, q)):
                    assert TT.hface(p, q, i, x) == NB.hface(p, q, i, x)


def test_diagonal_counts_and_validity(z2_rel_d3):
    NB = levelwise_nerve(z2_rel_d3.cat, 3, 3)
    d = diagonal(NB)
    assert d.counts() == (1, 2, 16, 512)
    assert validate_sset(d).ok


def test_diagonal_face_is_composite(z2_rel):
    NB = levelwise_nerve(z2_rel.cat, 2, 2)
    d = diagonal(NB)
    for x in range(d.card(2)):
        for i in range(3):
            via_h = NB.vface(1, 2, i, NB.hface(2, 2, i, x))
            via_v = NB.hface(2, 1, i, NB.vface(2, 2, i, x))
            assert via_h == via_v == d.face(2, i, x)


def test_marked_binerve_of_whole_marking(z2_rel):
    M = levelwise_nerve_marked(z2_rel, 2, 2)
    assert M.validate().ok
    # a whole marking carries every column 1 cell
    for q in range(3):
        for x in range(M.space.card(1, q)):
            assert M.is_marked(q, x)


def test_marked_binerve_of_identity_marking(poset01):
    M = levelwise_nerve_marked(poset01, 2, 2)
    assert M.validate().ok
    # only degenerate column 1 cells are marked for an identity marking
    for q in range(3):
        marked = [x for x in range(M.space.card(1, q)) if M.is_marked(q, x)]
        degen = [x for x in range(M.space.card(1, q))
                 if M.space.row(q).is_degenerate(1, x)]
        assert marked == degen


def test_marking_violations_are_caught(z2_rel):
    M = levelwise_nerve_marked(z2_rel, 2, 2)
    # dropping one marked cell breaks closure or the identity condition
    victim = sorted(M.marked)[0]
    broken = MarkedBisimplicialSet(M.space, M.marked - {victim})
    rep = broken.validate()
    assert not rep.ok


def test_diagonal_marked_edges(z2_rel):
    M = levelwise_nerve_marked(z2_rel, 2, 2)
    dm = diagonal_marked(M)
    assert dm.validate().ok
    assert dm.marked == frozenset(range(M.space.card(1, 1)))
