"""Exact homology: normal forms, boundary laws, known spaces, chain maps."""
import pytest

from nervekit import (
    SimplicialMap,
    TruncationError,
    build_example,
    classifying_space,
    comparison_map,
    diagonal,
    digest,
    enumerate_maps,
    homology,
    horn,
    induced_chain_iso,
    levelwise_nerve,
    nerve_cat,
    cyclic_group_category,
    poset_nerve,
    smith_normal_form,
    standard_simplex,
)
from nervekit.posets import FinitePoset
from sset_helpers import boundary_simplex, identity_map, yoneda_map


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


def test_smith_normal_form_refuses_transforms_over_the_budget():
    from math import isqrt

    from nervekit.homology import SNF_MAX_TRANSFORM_ENTRIES

    # a 1 x n zero matrix needs 1 + n² transform entries
    n = isqrt(SNF_MAX_TRANSFORM_ENTRIES - 1)
    diag, U, V, rank = smith_normal_form([[0] * n])
    assert (diag, U, rank, len(V)) == ([0], [[1]], 0, n)
    with pytest.raises(TruncationError, match="budget"):
        smith_normal_form([[0] * (n + 1)])


def test_integer_homology_refuses_a_boundary_before_densifying_it(monkeypatch, capsys):
    # the boundary from degree 4 to 3 of bg:z2 at level 4 is 469 x 63577:
    # the run stops on its shape, and every matrix built before that is
    # in budget
    import nervekit.integer as integer_mod
    from nervekit.cli import main
    from nervekit.homology import SNF_MAX_TRANSFORM_ENTRIES

    dense = integer_mod._dense
    shapes = []

    def recorded(cols, rows):
        shapes.append((rows, len(cols)))
        assert rows * rows + len(cols) ** 2 <= SNF_MAX_TRANSFORM_ENTRIES, shapes[-1]
        return dense(cols, rows)

    monkeypatch.setattr(integer_mod, "_dense", recorded)
    assert main(["homology", "--example", "bg:z2", "--max-dim", "4"]) == 2
    err = capsys.readouterr().err
    assert "Smith normal form of a 469 x 63577 matrix" in err and "budget" in err
    # the boundaries of degrees 1 to 3 were densified, each twice
    assert len(shapes) == 6 and (469, 63577) not in shapes


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


def test_chain_map_check_weighs_every_entry_by_its_coefficient():
    # an edge e from v0 to v1, d e = v1 - v0; degree-0 columns are the identity
    from nervekit.chains import _chain_map_defect

    dA = {1: [{1: 1, 0: -1}]}
    f0 = [{0: 1}, {1: 1}]
    # f = -id on the edge over id on the vertices: d f e = v0 - v1 but f d e = v1 - v0
    assert _chain_map_defect(dA, dA, {0: f0, 1: [{0: -1}]}, 1) == (1, 0)
    assert _chain_map_defect(dA, dA, {0: f0, 1: [{0: 1}]}, 1) is None
    # two parallel edges e0, e1 from v0 to v1; e goes to a two-entry column
    dX = {1: [{1: 1, 0: -1}, {1: 1, 0: -1}]}
    # e0 + e1 has boundary 2 (v1 - v0), twice f d e: the square breaks
    assert _chain_map_defect(dA, dX, {0: f0, 1: [{0: 1, 1: 1}]}, 1) == (1, 0)
    # 2 e0 - e1 has boundary v1 - v0: the square holds
    assert _chain_map_defect(dA, dX, {0: f0, 1: [{0: 2, 1: -1}]}, 1) is None


def test_chain_iso_z_coefficients(z2_rel):
    B = classifying_space(z2_rel.cat, 2)
    rep = induced_chain_iso(identity_map(B), coeff="z", max_deg=1)
    assert rep.ok


def test_kernel_of_matrix_without_rows_is_everything():
    from nervekit.integer import _dense, _kernel_basis

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


def test_chain_iso_pins_a_map_with_equal_dimensions_that_is_not_onto():
    # the constant self-map of the group nerve: H1 and H2 have the same
    # size on both sides, and the map kills both
    N = nerve_cat(cyclic_group_category(2), 3)
    f = SimplicialMap(N, N, fn=lambda n, x: 0)
    rep = induced_chain_iso(f, coeff="f2", max_deg=2)
    missed = {"dim_source": 1, "dim_target": 1, "surjective": False}
    assert rep.bounds == {"max_deg": 2, "H0": {**missed, "surjective": True}, "H1": missed, "H2": missed}
    assert rep.witnesses == [{"degree": 1, **missed}, {"degree": 2, **missed}]
    assert digest(rep.to_json()) == "7ae66cda1ef86a36265b7675faa93ecc0bc97e0dd04cbe7a5b0e30971f096de1"
    rep = induced_chain_iso(f, coeff="z", max_deg=2)
    assert rep.bounds["H1"] == {
        "source": {"betti": 0, "torsion": [2]}, "target": {"betti": 0, "torsion": [2]}, "surjective": False
    }
    assert rep.bounds["H2"]["surjective"] and rep.bounds["H2"]["injective"]
    assert [w["degree"] for w in rep.witnesses] == [1]
    assert digest(rep.to_json()) == "b8adda124d04c215ea68229ffa80336ed1a590e505f1603caf0e47e6e4bc6f66"


# --- the mod-2 chain check against the kernel-and-push route ----------------


def _f2_span_add(pivots: dict, v: int) -> None:
    while v:
        h = v.bit_length()
        if h not in pivots:
            pivots[h] = v
            return
        v ^= pivots[h]


def _f2_kernel(masks: list) -> list:
    """Kernel of the matrix with the given columns, as coefficient bitmasks."""
    rows, basis = [], []
    for j, v in enumerate(masks):
        combo = 1 << j
        for pm, pc in rows:
            if v and (v ^ pm) < v:
                v, combo = v ^ pm, combo ^ pc
        if v:
            rows.append((v, combo))
            rows.sort(key=lambda t: -t[0])
        else:
            basis.append(combo)
    return basis


def _kernel_and_push_f2(f, max_deg: int) -> dict:
    """The mod-2 bounds of `induced_chain_iso`, degree by degree, by kernel
    bases: f_* is onto when the images of the source cycles and the
    target boundaries span the target cycles."""
    from nervekit.chains import _boundary_columns, _chain_matrix_columns, _f2_masks, _nondeg_bases

    (bA, pA), (bX, pX) = _nondeg_bases(f.source, max_deg + 1), _nondeg_bases(f.target, max_deg + 1)

    def boundary(Y, b, p, n):
        return _f2_masks(_boundary_columns(Y, n, b[n], p[n - 1]))

    out = {}
    for n in range(max_deg + 1):
        kerA = _f2_kernel(boundary(f.source, bA, pA, n)) if n else [1 << j for j in range(len(bA[0]))]
        kerX = _f2_kernel(boundary(f.target, bX, pX, n)) if n else [1 << j for j in range(len(bX[0]))]
        spanA, span = {}, {}
        for v in boundary(f.source, bA, pA, n + 1):
            _f2_span_add(spanA, v)
        for v in boundary(f.target, bX, pX, n + 1):
            _f2_span_add(span, v)
        dim_target = len(kerX) - len(span)
        fmask = _f2_masks(_chain_matrix_columns(f, n, bA[n], pX[n]))
        for combo in kerA:
            image = 0
            for j, m in enumerate(fmask):
                if combo >> j & 1:
                    image ^= m
            _f2_span_add(span, image)
        out[f"H{n}"] = {
            "dim_source": len(kerA) - len(spanA),
            "dim_target": dim_target,
            "surjective": len(span) == len(kerX),
        }
    return out


def _oracle_sample() -> list:
    """The comparison maps of the six generators, and up to 15 seeded maps
    between each ordered pair of small spaces."""
    import random

    maps = []
    for name, L in [
        ("bg:z2", 3),
        ("discrete:poset01", 3),
        ("discrete:poset012", 3),
        ("discrete:antichain3", 3),
        ("poset:a<b,a<c,b<d,c<d", 3),
        ("two-object-interval", 3),
    ]:
        maps.append(comparison_map(build_example(name, max_dim=L).cat, L))
    spaces = [
        horn(2, 0, 2),
        horn(2, 1, 2),
        standard_simplex(1, 2),
        standard_simplex(2, 2),
        nerve_cat(cyclic_group_category(2), 2),
    ]
    rng = random.Random(1)
    for A in spaces:
        for X in spaces:
            found = enumerate_maps(A, X)
            maps += rng.sample(found, min(15, len(found)))
    return maps


def test_f2_chain_iso_matches_the_kernel_and_push_route():
    equal_but_not_onto = 0
    for f in _oracle_sample():
        rep = induced_chain_iso(f, coeff="f2")
        max_deg = rep.bounds.pop("max_deg")
        assert rep.bounds == _kernel_and_push_f2(f, max_deg), f
        for info in rep.bounds.values():
            equal_but_not_onto += info["dim_source"] == info["dim_target"] and not info["surjective"]
    # the sample reaches the case where a dimension count alone would pass
    assert equal_but_not_onto
