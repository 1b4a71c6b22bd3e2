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
    # one relation per item: a chain is written a<b,b<c
    with pytest.raises(ValueError, match="more than one '<'"):
        build_example("poset:a<b<c", max_dim=1)


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
            _, lg = N.label(n, g)
            for f in range(N.card(n)):
                _, lf = N.label(n, f)
                _, ls = N.label(n, SC.compose("x", "x", "x", n, g, f))
                assert list(ls) == [(a + b) % m for a, b in zip(lg, lf)]


def _composition_tables_by_entry(m, D):
    """The bg:z<m> composition tables by the per-entry formula they were
    built with before they went by rows: the pair (g, f) at level n
    composes the leading digits one level down and adds the last
    digits mod m."""
    vals = [[0]]
    for n in range(1, D + 1):
        prev, c = vals[-1], m ** (n - 1)
        vals.append([prev[(g // m) * c + f // m] * m + (g % m + f % m) % m for g in range(m * c) for f in range(m * c)])
    return vals


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_group_composition_rows_match_the_entry_formula(m):
    from nervekit.generators import _cyclic_group_example

    for D in range(1, 5):
        assert _cyclic_group_example(m, D).comps[("x", "x", "x")] == _composition_tables_by_entry(m, D), D


def test_group_example_refuses_by_table_size_and_keeps_its_digest(monkeypatch):
    import nervekit.generators as gen
    from nervekit import digest
    from nervekit.serialize import to_json

    assert digest(to_json(build_example("bg:z3", 4))) == "f8e22d451651604c53a241cb592effa815a84f7349683b1f3df696fce389f9bc"
    # the refusal reads only the table sizes: a request is refused when
    # its composition tables and nerve tables exceed the cap
    monkeypatch.setattr(gen, "_cyclic_group_example", lambda m, D: gen.SimplicialCategory(["x"], {}, {}, {}, D))
    for m in range(1, 9):
        for D in range(1, 12):
            size = sum(m ** (2 * n) + 2 * (n + 1) * m**n for n in range(D + 1))
            try:
                build_example(f"bg:z{m}", D)
            except ValueError:
                assert size > gen.MAX_TABLE_ENTRIES, (m, D)
            else:
                assert size <= gen.MAX_TABLE_ENTRIES, (m, D)
    for bad in ("bg:z0", "bg:z", "bg:z-1", "bg:zx"):
        with pytest.raises(ValueError, match="positive integer"):
            build_example(bad, 2)
