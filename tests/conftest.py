import pathlib

import pytest

from nervekit import build_example

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def z2_rel():
    return build_example("bg:z2", max_dim=2)


@pytest.fixture(scope="session")
def z2_rel_d3():
    return build_example("bg:z2", max_dim=3)


@pytest.fixture(scope="session")
def z2_rel_d4():
    return build_example("bg:z2", max_dim=4)


@pytest.fixture(scope="session")
def poset01():
    return build_example("discrete:poset01", max_dim=2)


@pytest.fixture(scope="session")
def poset012():
    return build_example("discrete:poset012", max_dim=2)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def comparison_cell_calls(monkeypatch) -> list:
    """Record the level of every comparison cell built, one at a time by
    `_comparison_cell` or block by block by `_cells_from_plan` on a
    comparison plan; the list fills as the cells are built."""
    import nervekit.comparison as comparison_mod

    cell, cells = comparison_mod._comparison_cell, comparison_mod._cells_from_plan
    calls = []

    def counted(SC, label, k, memo):
        calls.append(k)
        return cell(SC, label, k, memo)

    def counted_cells(SC, labels, q, plan, memo):
        for x, value in cells(SC, labels, q, plan, memo):
            if plan is comparison_mod._comparison_plan(q, SC.D):
                calls.append(q)
            yield x, value

    monkeypatch.setattr(comparison_mod, "_comparison_cell", counted)
    monkeypatch.setattr(comparison_mod, "_cells_from_plan", counted_cells)
    return calls
