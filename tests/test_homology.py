"""Exact homology: normal forms, boundary laws, known spaces, chain maps."""
import pytest

from nervekit import (
    TruncationError,
    boundary_simplex,
    build_example,
    classifying_space,
    diagonal,
    homology,
    induced_chain_iso,
    levelwise_nerve,
    nerve_cat,
    cyclic_group_category,
    identity_map,
    poset_nerve,
    smith_normal_form,
    standard_simplex,
    yoneda_map,
)
from nervekit.sset import FinitePoset


def test_smith_normal_form_known_matrices():
    diag, _, _, rank = smith_normal_form([[2, 0], [0, 3]])
    assert diag[:rank] == [1, 6]
    diag, _, _, rank = smith_normal_form([[0, 0], [0, 0]])
    assert rank == 0
    diag, _, _, rank = smith_normal_form([[2, 4], [6, 8]])
    assert rank == 2
    assert diag[0] == 2 and diag[1] % diag[0] == 0


def test_smith_divisibility_chain():
    A = [[6, 10, 15], [10, 15, 6], [15, 6, 10]]
    diag, _, _, rank = smith_normal_form(A)
    for k in range(rank - 1):
        assert diag[k + 1] % diag[k] == 0


def boundary_squared_is_zero(X, top):
    # alternating face sums of nondegenerate cells, reduced twice
    from collections import Counter

    for n in range(2, top + 1):
        for x in X.nondegenerate_cells(n):
            acc = Counter()
            for i in range(n + 1):
                y = X.face(n, i, x)
                if X.is_degenerate(n - 1, y):
                    continue
                for j in range(n):
                    z = X.face(n - 1, j, y)
                    if not X.is_degenerate(n - 2, z):
                        acc[z] += (-1) ** (i + j)
            assert all(v == 0 for v in acc.values()), (n, x)


def test_boundary_squared_vanishes(z2_rel_d3):
    SC = z2_rel_d3.cat
    boundary_squared_is_zero(classifying_space(SC, 3), 3)
    boundary_squared_is_zero(nerve_cat(cyclic_group_category(3), 3), 3)
    boundary_squared_is_zero(standard_simplex(2, 3), 3)


def test_homology_of_simplices():
    for n in range(3):
        rep = homology(standard_simplex(n, 3), coeff="z")
        assert rep.groups[0] == {"degree": 0, "betti": 1, "torsion": []}
        for g in rep.groups[1:]:
            assert g["betti"] == 0 and g["torsion"] == []


def test_homology_of_spheres():
    circle = homology(boundary_simplex(2, 2), coeff="z")
    assert [g["betti"] for g in circle.groups] == [1, 1]
    sphere = homology(boundary_simplex(3, 3), coeff="z")
    assert [g["betti"] for g in sphere.groups] == [1, 0, 1]
    assert all(g["torsion"] == [] for g in sphere.groups)


def test_homology_torsion_of_group_nerve():
    N = nerve_cat(cyclic_group_category(2), 3)
    rep = homology(N, coeff="z", max_deg=2)
    assert rep.groups[0] == {"degree": 0, "betti": 1, "torsion": []}
    assert rep.groups[1] == {"degree": 1, "betti": 0, "torsion": [2]}
    assert rep.groups[2] == {"degree": 2, "betti": 0, "torsion": []}
    mod2 = homology(N, coeff="f2", max_deg=2)
    assert [g["dim"] for g in mod2.groups] == [1, 1, 1]


def test_homology_counts_components():
    anti = poset_nerve(FinitePoset([0, 1, 2]), 2)
    rep = homology(anti, coeff="z", max_deg=1)
    assert rep.groups[0]["betti"] == 3


def test_homology_degree_bounds():
    X = standard_simplex(1, 2)
    with pytest.raises(TruncationError):
        homology(X, max_deg=2)
    with pytest.raises(ValueError):
        homology(X, coeff="q")
    with pytest.raises(ValueError):
        homology(X, max_deg=-1)


def test_homology_invariant_under_transpose_then_diagonal(z2_rel, poset01):
    for R in (z2_rel, poset01):
        NB = levelwise_nerve(R.cat, 2, 2)
        one = homology(diagonal(NB), coeff="z", max_deg=1)
        two = homology(diagonal(NB.transpose()), coeff="z", max_deg=1)
        assert one.groups == two.groups


def test_chain_iso_identity(z2_rel):
    B = classifying_space(z2_rel.cat, 2)
    rep = induced_chain_iso(identity_map(B), coeff="f2", max_deg=1)
    assert rep.ok
    assert rep.bounds["H0"]["dim_source"] == rep.bounds["H0"]["dim_target"]


def test_chain_iso_detects_failure():
    # the vertex inclusion into the group nerve misses degree 1
    N = nerve_cat(cyclic_group_category(2), 2)
    inc = yoneda_map(N, 0, 0)
    rep = induced_chain_iso(inc, coeff="f2", max_deg=1)
    assert not rep.ok
    assert rep.bounds["H0"]["dim_source"] == 1
    assert rep.bounds["H1"]["dim_source"] == 0
    assert rep.bounds["H1"]["dim_target"] == 1


@pytest.mark.parametrize("coeff", ["f2", "z"])
def test_chain_iso_rejects_a_map_that_is_not_a_chain_map(coeff):
    # sending the edge (0, 1) of the 1-simplex to the degenerate (0, 0)
    # while fixing both vertices breaks d f = f d on that edge
    from nervekit import SimplicialMap

    D1 = standard_simplex(1, 1)
    bad = SimplicialMap(D1, D1, values=[[0, 1], [0, 0, 2]])
    rep = induced_chain_iso(bad, coeff=coeff, max_deg=0)
    assert rep.verdict == "fail"
    assert rep.witnesses == [{"reason": "not a chain map", "degree": 1, "cell": 1}]
    assert induced_chain_iso(SimplicialMap(D1, D1, values=[[0, 1], [0, 1, 2]]), coeff=coeff, max_deg=0).ok


def test_chain_iso_z_coefficients(z2_rel):
    B = classifying_space(z2_rel.cat, 2)
    rep = induced_chain_iso(identity_map(B), coeff="z", max_deg=1)
    assert rep.ok


def test_kernel_of_matrix_without_rows_is_everything():
    from nervekit.homology import _dense, _kernel_basis

    A = _dense([{}, {}, {}], 0)
    assert A == []
    assert _kernel_basis(A, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _kernel_basis(A, 0) == []


def test_chain_iso_z_detects_cycles_that_die():
    # collapsing the circle to a point kills H1 = Z; the target has no
    # 1-cycles at all, so the kernel to check is all of the source cycles
    from nervekit import SimplicialMap

    circle = boundary_simplex(2, 2)
    f = SimplicialMap(circle, standard_simplex(0, 2), fn=lambda n, x: 0, L=2)
    rep = induced_chain_iso(f, coeff="z", max_deg=1)
    assert not rep.ok
    assert rep.bounds["H0"]["injective"] is True
    assert rep.bounds["H1"]["injective"] is False
    assert rep.bounds["H1"]["source"] == {"betti": 1, "torsion": []}
