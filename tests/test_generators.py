"""Generator library invariant: every example validates end to end."""
import pytest

from nervekit import (
    build_example,
    validate_relative,
    validate_simplicial_category,
    validate_sset,
)

NAMES = (
    "bg:z2",
    "bg:z3",
    "bg:z4",
    "discrete:poset01",
    "discrete:poset012",
    "discrete:antichain3",
    "poset:a<b,b<c",
    "poset:0<1,0<2",
    "two-object-interval",
)


@pytest.mark.parametrize("name", NAMES)
def test_every_generator_validates(name):
    R = build_example(name, max_dim=2)
    assert validate_relative(R).ok
    assert validate_simplicial_category(R.cat).ok
    for H in R.cat.homs.values():
        assert validate_sset(H).ok


def test_group_hom_counts():
    for m in (2, 3):
        R = build_example(f"bg:z{m}", max_dim=2)
        assert R.cat.hom("x", "x").counts() == (1, m, m * m)


def test_poset_parser_shapes():
    R = build_example("poset:p<q", max_dim=1)
    assert set(R.cat.objects) == {"p", "q"}
    lone = build_example("poset:a", max_dim=1)
    assert lone.cat.objects == ["a"]
    with pytest.raises(ValueError):
        build_example("poset:", max_dim=1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_group_composition_table_is_labelwise_sum(m):
    _check_group_composition_table(m, 4)


def test_group_composition_table_is_labelwise_sum_at_dim_5():
    _check_group_composition_table(3, 5)


def _check_group_composition_table(m, D):
    SC = build_example(f"bg:z{m}", max_dim=D).cat
    N = SC.hom("x", "x")
    # one table per level, over the pair index g * |hom| + f
    assert [len(t) for t in SC.comps[("x", "x", "x")]] == [N.card(n) ** 2 for n in range(SC.D + 1)]
    for n in range(SC.D + 1):
        for g in range(N.card(n)):
            _, msg = N.label(n, g)
            for f in range(N.card(n)):
                _, msf = N.label(n, f)
                _, ms = N.label(n, SC.compose("x", "x", "x", n, g, f))
                assert [c for _, _, c in ms] == [(a[2] + b[2]) % m for a, b in zip(msg, msf)]
