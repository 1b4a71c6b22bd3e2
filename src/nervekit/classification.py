"""The classification diagram and theta, the comparison into it.

* `classification_diagram`: the marked bisimplicial set of simplicial
  maps out of ``p-simplex x q-simplex`` into the coherent nerve whose
  vertex slices stay inside the marked subcategory, each labelled by
  its map's packed vector; its operators read the maps along maps of
  grids.
* `theta_cell_value`: the coherent-nerve cell a chain of the levelwise
  nerve assigns to one grid chain, read off the grid-collapse rule of
  `comparison._collapse_row` through `comparison._collapse_plan`. That
  is the chain functor after `grid_collapse`, evaluated without
  building either; the functor route is the oracle in
  ``tests/test_nerves.py``.
* `classification_comparison` checks that the cell-by-cell map from
  the levelwise nerve into the classification diagram is simplicial in
  both directions and preserves marking; on small bidegrees it
  materializes both sides of every operator square, and on all
  bidegrees it verifies the two identities that together imply the
  squares: the chain identity and collapse naturality (checked on the
  collapse rows the theta cells read, independent of the cell). The
  chain identity says an operator with vertex maps (vp, vq) sends a
  chain to the chain whose hop t folds the hops s in (vp[t-1], vp[t]],
  each acted on by vq, by composition with later hops on the left, an
  empty fold being the identity cell; this is `chain_functor`
  precomposed with the interval transform, evaluated in closed form as
  `comparison._cell_from_plan` on `_reindex_plan`. A levelwise-nerve
  cell and its image are both labelled (objects, cells), so the
  identity compares labels as they are.

Only the ``cls`` and ``theta`` verbs need this module, so neither
``import nervekit`` nor ``nervekit.cli`` loads it up front: the package
resolves its public names on first use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

from .bisimplicial import BisimplicialSet
from .bitables import _bisset_families
from .cat import RelativeSimplicialCategory, SimplicialCategory
from .coherent import _WITNESS_CAP
from .comparison import _cell_from_plan, _collapse_row, _collapse_table, _table_pairs, _theta_plan, hc_constant
from .horns import standard_simplex
from .marked import MarkedBisimplicialSet, levelwise_nerve_marked
from .nerves import coherent_nerve
from .posets import path_poset
from .reporting import CheckReport
from .spaces import ProductSset, materialize
from .sset import SimplicialSet, TruncationError, _vertex_map, enumerate_maps


# --- classification diagram --------------------------------------------------


def _marked_hc_edges(R: RelativeSimplicialCategory, hc: SimplicialSet) -> frozenset:
    # an edge's only slot is its value on the generator chain ((0, 1),)
    out = set()
    for x in range(hc.card(1)):
        objects, values = hc.label(1, x)
        if values[0] in R.sub_cells(objects[0], objects[1], 0):
            out.add(x)
    return frozenset(out)


def _product_pair(p: int, q: int, T: int) -> SimplicialSet:
    return materialize(ProductSset(standard_simplex(p, T), standard_simplex(q, T)), name=f"grid({p},{q})")


def _grid_gather(G: SimplicialSet, G2: SimplicialSet, vp: tuple, vq: tuple) -> list[list[int]]:
    """Index vectors of the grid map with vertex maps (vp, vq) on the
    nondegenerate cells of G2: entry ``[n][k]`` is the cell of G that
    the k-th nondegenerate cell of G2 at level n goes to."""
    return [
        [
            G.index_of(n, (tuple(vp[v] for v in la), tuple(vq[v] for v in lb)))
            for la, lb in map(G2.label, repeat(n), G2.nondegenerate_cells(n))
        ]
        for n in range(G2.D + 1)
    ]


def classification_diagram(R: RelativeSimplicialCategory, P: int, Q: int, name: str = "") -> MarkedBisimplicialSet:
    """Materialize the classification diagram up to bidegree (P, Q).

    Cells at (p, q) are simplicial maps from the (p, q) grid into the
    coherent nerve whose vertex slices {i} x q-simplex carry every edge
    into the marked edges; marked cells at column 1 carry every edge of
    the whole grid into the marked edges. A cell's label is its map's
    packed vector: its values on the grid's nondegenerate cells,
    level-major, which fix the map (every other cell is degenerate). An
    operator is precomposition with the map of grids its vertex maps
    (`_grid_op`) give: a cell's image is its map read on the
    `_grid_gather` cells, the images of the nondegenerate cells of the
    operator's source grid, looked up among the labels there. Needs
    P >= 1 for the marking. Feasible for small inputs only.
    """
    SC = R.cat
    if P < 1:
        raise TruncationError(f"marking lives in column 1, column bound is {P}")
    if P + Q > SC.D:
        raise TruncationError(f"bidegree ({P},{Q}) needs hom levels {P + Q}, truncation is {SC.D}")
    hc = coherent_nerve(SC, P + Q)
    marked_edges = _marked_hc_edges(R, hc)

    def all_marked(f, edges) -> bool:
        return all(f.apply(1, e) in marked_edges for e in edges)

    grids, maps, cells = {}, {}, {}
    for p in range(P + 1):
        for q in range(Q + 1):
            G = grids[(p, q)] = _product_pair(p, q, P + Q)
            slices = [G.index_of(1, ((i, i), (a, b))) for i in range(p + 1) for b in range(q + 1) for a in range(b)]
            maps[(p, q)] = [f for f in enumerate_maps(G, hc) if all_marked(f, slices)]
            cells[(p, q)] = {f.packed: x for x, f in enumerate(maps[(p, q)])}

    def family(kind, rows):
        tables = [[[] for _ in range(Q + 1)] for _ in range(P + 1)]
        for (p, q), G in grids.items():
            for i in range(rows(p, q)):
                (p2, q2), vp, vq = _grid_op(p, q, kind, i)
                g = _grid_gather(G, grids[(p2, q2)], vp, vq)
                levels = [n for n, row in enumerate(g) for _ in row]
                image = [c for row in g for c in row]
                index = cells[(p2, q2)]
                tables[p][q].append([index[tuple(map(f.apply, levels, image))] for f in maps[(p, q)]])
        return tables

    space = BisimplicialSet(
        P, Q, [[len(maps[(p, q)]) for q in range(Q + 1)] for p in range(P + 1)],
        *(family(kind, rows) for kind, _, rows, _, _ in _bisset_families(P, Q)),
        labels=[[[f.packed for f in maps[(p, q)]] for q in range(Q + 1)] for p in range(P + 1)],
        name=name or f"cls({R.name})",
    )
    marked = set()
    for q in range(Q + 1):
        G = grids[(1, q)]
        edges = G.nondegenerate_cells(1)
        marked.update((q, x) for x, f in enumerate(maps[(1, q)]) if all_marked(f, edges))
    return MarkedBisimplicialSet(space, frozenset(marked))


# --- the comparison of classification diagrams -------------------------------


def _nondeg_grid_chains(p: int, q: int) -> list[tuple]:
    """Strictly increasing chains in the (p, q) grid: the nondegenerate cells."""
    verts = [(a, b) for a in range(p + 1) for b in range(q + 1)]
    out = []

    def grow(chain):
        out.append(tuple(chain))
        last = chain[-1]
        for v in verts:
            if v != last and v[0] >= last[0] and v[1] >= last[1]:
                chain.append(v)
                grow(chain)
                chain.pop()

    for v in verts:
        grow([v])
    return out


def theta_cell_value(SC: SimplicialCategory, label, p: int, q: int, tau) -> tuple:
    """The coherent-nerve cell a chain assigns to one grid chain.

    ``label`` is a p-chain (objects, cells) of level-q morphisms and
    ``tau`` a weakly increasing chain in the (p, q) grid; the result is
    a cell (objects, values) at level len(tau) - 1 over the objects at
    the columns tau[t][0]. On a generator chain of pair (i, j), hop t
    between columns tau[i][0] and tau[j][0] acts by the tuple, per
    subset S, of the largest second coordinate of tau(S) whose first
    coordinate is strictly below t; the hops fold by composition, later
    hops on the left. This is the chain functor (the test oracle `chain_functor` in
    ``tests/test_nerves.py``) after `grid_collapse`, evaluated without
    building either.
    """
    return _cell_from_plan(SC, label, q, _theta_plan(p, q, tau, SC.D), {})


@lru_cache(maxsize=None)
def _transformed_row(chain: tuple, vp: tuple, vq: tuple) -> tuple:
    """The `_collapse_row` of ``chain`` moved by the interval transform.

    ``chain`` lives in the grid of an operator with vertex maps ``vp``,
    ``vq``; the result must equal the row of the chain's image
    (vp[a], vq[b]) in the operator's target grid. Each target hop
    between vp of the end columns pulls its entry from the first source
    hop t that vp sends at or above it, relabelled by ``vq``.
    """
    a, b = chain[0][0], chain[-1][0]
    cover = [
        next(t for t in range(a + 1, b + 1) if vp[t] >= hop) - a - 1
        for hop in range(vp[a] + 1, vp[b] + 1)
    ]
    return tuple(tuple(vq[u[k]] for k in cover) for u in _collapse_row(chain))


def _grid_op(p, q, kind, i):
    """Vertex maps of one bisimplicial operator on the grid factors.

    Returns the operator's source bidegree and the two monotone vertex
    maps embedding/collapsing its grid into the (p, q) grid.
    """
    for key, _, _, dp, dq in _bisset_families(p, q):
        if key == kind:
            return (p + dp, q + dq), _vertex_map(p, i, dp), _vertex_map(q, i, dq)


def _ops_at(X: BisimplicialSet, p: int, q: int):
    for kind, _, rows, _, _ in _bisset_families(X.P, X.Q):
        for i in range(rows(p, q)):
            yield kind, i, getattr(X, kind)


@lru_cache(maxsize=None)
def _reindex_plan(vp: tuple, vq: tuple) -> tuple:
    """The plan of the chain a chain cell gives along the vertex maps
    ``vp``, ``vq``.

    Folded over a chain of level-q morphisms by `_cell_from_plan`, it
    gives a chain (objects, cells) with len(vp) - 1 hops of level
    len(vq) - 1 cells: output hop t, slot t - 1, folds the source hops s
    in (vp[t-1], vp[t]], each acting its cell by ``vq``, later hops
    composing on the left, and an empty fold is the identity cell. This
    is `chain_functor` (the test oracle in ``tests/test_nerves.py``)
    after the interval transform of (vp, vq), restricted to the top grid
    cell.
    """
    return vp, tuple((len(vq) - 1, vp[t - 1], (vq,) * (vp[t] - vp[t - 1])) for t in range(1, len(vp)))


# operator squares at p + q up to this bound are also materialized cell by cell
_DIRECT_BIDEGREE = 3


def classification_comparison(R: RelativeSimplicialCategory, P: int, Q: int) -> CheckReport:
    """Check the comparison from chain cells to classification cells.

    Per cell it verifies the chain identities: each bisimplicial
    operator, with vertex maps (vp, vq) on the grid factors, sends the
    chain to the one whose hop t folds the source hops s in
    (vp[t-1], vp[t]], each acted on by vq, by composition with later
    hops on the left, an empty fold being the identity cell (see
    `_reindex_plan`). Per operator it checks the collapse naturality
    on every nondegenerate grid chain: each pair's row of the
    `_collapse_table` the theta cells read, moved by the operator,
    equals the row of the moved chain (cell-independent, so cached);
    together these force every operator square. Squares at bidegrees with
    p + q <= ``_DIRECT_BIDEGREE`` are additionally materialized cell by
    cell. Also checks that vertex slices collapse to constant cells,
    that marking is preserved, and that every assigned value is a valid
    coherent-nerve cell on generators. The sweep stops at nine
    witnesses; the counters land in ``bounds`` also then.
    """
    SC = R.cat
    if P + Q > SC.D:
        raise TruncationError(f"bidegree ({P},{Q}) needs hom levels {P + Q}, truncation is {SC.D}")
    M = levelwise_nerve_marked(R, P, Q)
    check = CheckReport(check="theta", verdict="pass")
    check.bounds.update({"P": P, "Q": Q, "direct_bidegree": _DIRECT_BIDEGREE})
    counts = {
        "chain_identities": 0,
        "naturality_instances": 0,
        "direct_squares": 0,
        "slice_checks": 0,
        "marked_edges_checked": 0,
    }
    _theta_sweep(R, M, P, Q, check, counts)
    check.bounds.update(counts)
    return check


def _theta_sweep(R, M, P, Q, check, counts) -> None:
    """The checks of `classification_comparison`; returns at the witness cap."""
    SC = R.cat
    X = M.space
    memo: dict = {}

    def capped(witness) -> bool:
        """Record a failure; true once the witnesses reach the cap."""
        check.verdict = "fail"
        check.witnesses.append(witness)
        return len(check.witnesses) >= _WITNESS_CAP

    # collapse naturality, cached per operator and grid sub-chain
    for p in range(P + 1):
        for q in range(Q + 1):
            for kind, i, _ in _ops_at(X, p, q):
                (p2, q2), vp, vq = _grid_op(p, q, kind, i)
                for tau in _nondeg_grid_chains(p2, q2):
                    moved = tuple((vp[a], vq[b]) for (a, b) in tau)
                    counts["naturality_instances"] += 1
                    if any(
                        _transformed_row(tau[s : t + 1], vp, vq) != _collapse_row(moved[s : t + 1])
                        for s, t in _table_pairs(len(tau) - 1)
                    ) and capped(
                        {
                            "reason": "collapse naturality",
                            "bidegree": [p, q],
                            "op": [kind, i],
                            "grid_chain": list(map(list, tau)),
                        }
                    ):
                        return

    # chain identities per cell and operator
    for p in range(P + 1):
        for q in range(Q + 1):
            for x in range(X.card(p, q)):
                label = X.label(p, q, x)
                for kind, i, op in _ops_at(X, p, q):
                    (p2, q2), vp, vq = _grid_op(p, q, kind, i)
                    lhs = X.label(p2, q2, op(p, q, i, x))
                    rhs = _cell_from_plan(SC, label, q, _reindex_plan(vp, vq), memo)
                    counts["chain_identities"] += 1
                    if lhs != rhs and capped(
                        {"reason": "chain identity", "bidegree": [p, q], "cell": x, "op": [kind, i]}
                    ):
                        return

    # vertex slices: the collapse of a constant-column chain factors
    # through the one-object gadget, so values are constant cells; the
    # table check is cell-independent, small bidegrees also compare
    # the cells themselves
    for p in range(P + 1):
        for q in range(Q + 1):
            for i in range(p + 1):
                tau = tuple((i, b) for b in range(q + 1))
                expected = (
                    (i,) * (q + 1),
                    tuple(((),) * len(path_poset(a, b).elements) for a, b in _table_pairs(q)),
                )
                counts["slice_checks"] += 1
                if _collapse_table(tau) != expected and capped(
                    {"reason": "vertex slice not constant", "bidegree": [p, q], "vertex": i}
                ):
                    return
                if p + q > _DIRECT_BIDEGREE:
                    continue
                plan = _theta_plan(p, q, tau, SC.D)
                for x in range(X.card(p, q)):
                    label = X.label(p, q, x)
                    counts["slice_checks"] += 1
                    if _cell_from_plan(SC, label, q, plan, memo) != hc_constant(SC, label[0][i], q) and capped(
                        {"reason": "vertex slice value", "bidegree": [p, q], "cell": x, "vertex": i}
                    ):
                        return

    # marking: marked chains send every strict grid edge to a marked edge
    edges = {
        q: [(b0, b1, _theta_plan(1, q, ((0, b0), (1, b1)), SC.D)) for b0 in range(q + 1) for b1 in range(b0, q + 1)]
        for q in range(Q + 1)
    }
    for (q, x) in sorted(M.marked):
        label = X.label(1, q, x)
        for b0, b1, plan in edges[q]:
            objects, values = _cell_from_plan(SC, label, q, plan, memo)
            counts["marked_edges_checked"] += 1
            if values[0] not in R.sub_cells(objects[0], objects[1], 0) and capped(
                {"reason": "marking not preserved", "row": q, "cell": x, "edge": [[0, b0], [1, b1]]}
            ):
                return

    # direct operator squares on small bidegrees
    for p in range(P + 1):
        for q in range(Q + 1):
            if p + q > _DIRECT_BIDEGREE:
                continue
            # per operator, each source grid chain with its plan and its image's
            squares = []
            for kind, i, op in _ops_at(X, p, q):
                (p2, q2), vp, vq = _grid_op(p, q, kind, i)
                plans = [
                    (tau, _theta_plan(p2, q2, tau, SC.D), _theta_plan(p, q, tuple((vp[a], vq[b]) for a, b in tau), SC.D))
                    for tau in _nondeg_grid_chains(p2, q2)
                ]
                squares.append((kind, i, op, p2, q2, plans))
            for x in range(X.card(p, q)):
                label = X.label(p, q, x)
                for kind, i, op, p2, q2, plans in squares:
                    moved_label = X.label(p2, q2, op(p, q, i, x))
                    for tau, moved, big in plans:
                        lhs = _cell_from_plan(SC, moved_label, q2, moved, memo)
                        rhs = _cell_from_plan(SC, label, q, big, memo)
                        counts["direct_squares"] += 1
                        if lhs != rhs and capped(
                            {
                                "reason": "operator square",
                                "bidegree": [p, q],
                                "cell": x,
                                "op": [kind, i],
                                "grid_chain": list(map(list, tau)),
                            }
                        ):
                            return


