import pathlib

import pytest

from nervekit import SimplicialSet, build_example
from nervekit.sset import _DegeneracyTest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session", autouse=True)
def degeneracy_oracle():
    """Check every simplicial set the tests build as it is built: on each
    level n where d_{i+1} s_i = id for the stored rows, the degenerate
    cells `SimplicialSet` reads off its s_i rows are those of the
    per-cell test s_i d_{i+1} x == x (`_DegeneracyTest.is_degenerate`).
    The flags are dropped afterwards, so the set computes them as usual."""
    init = SimplicialSet.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for n in range(1, self.D + 1):
            faces, degens = self.faces[n], self.degens[n - 1]
            try:
                sections = all(faces[i + 1][s] == y for i, row in enumerate(degens) for y, s in enumerate(row))
            except IndexError:  # a deliberately broken table
                continue
            if sections and len(degens) == n:
                oracle = [_DegeneracyTest.is_degenerate(self, n, x) for x in range(self.cards[n])]
                assert self._degenerate(n) == oracle, (self, n)
                self._degenerate_flags[n] = None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimplicialSet, "__init__", checked)
        yield


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
