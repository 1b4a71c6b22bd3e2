"""Nerve constructions and the comparison machinery between them.

Three nerves of a simplicial category live here:

* `coherent_nerve`: level n cells are simplicial functors out of
  `coherent_path_category(n, D)`, stored as the tuple (objects,
  values): one value per generator chain (chain whose first subset is
  the two-point one) of the pair's unforced levels, in the order of
  `_generator_slots`. Identity pairs and higher levels are forced
  (`_cell_value`), and a value on any other hom chain folds out of
  these by composition. That tuple is also the cell's label.
* `levelwise_nerve`: the bisimplicial set whose column p at row q is
  the set of p-chains of level-q morphisms; `classifying_space` is its
  diagonal.
* `classification_diagram`: the marked bisimplicial set of simplicial
  maps out of ``p-simplex x q-simplex`` into the coherent nerve whose
  vertex slices stay inside the marked subcategory; its operators are
  gathers of the maps' value tables along maps of grids.

`comparison_map` sends a diagonal chain cell to the coherent-nerve
cell given in closed form by `comparison_cell`: on each generator
chain, every hop acts by the tuple of largest subset elements strictly
below it, and the hops fold by composition. That is the chain functor
precomposed with `comparison_functor`, evaluated without building
either; `theta_cell_value` does the same for `grid_collapse`, whose
coordinate rule is written once, in `_collapse_row`, and read through
`_collapse_table`. The functor route (`chain_functor` and
`hc_from_simplicial_functor`) is kept in ``tests/test_nerves.py`` as
the oracle for these closed forms.
`classification_comparison` checks that the cell-by-cell map from the
levelwise nerve into the classification diagram is simplicial in both
directions and preserves marking; on small bidegrees it materializes
both sides of every operator square, and on all bidegrees it verifies
the two identities that together imply the squares: the chain identity
and collapse naturality (checked on the collapse rows the theta cells
read, independent of the cell). The chain identity says an operator
with vertex maps (vp, vq) sends a chain to the chain whose hop t folds
the hops s in (vp[t-1], vp[t]], each acted on by vq, by composition
with later hops on the left, an empty fold being the identity cell;
this is `chain_functor` precomposed with the interval transform,
evaluated in closed form by `_reindexed_chain`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .reporting import CheckReport
from .sset import (
    ProductSset,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    act,
    act_table,
    enumerate_maps,
    materialize,
    standard_simplex,
)
from .cat import (
    RelativeSimplicialCategory,
    SimplicialCategory,
    _check_grid_chain,
    _level_nerve_operators,
    level_category,
    nerve_cat,
    path_poset,
)
from .bisset import BisimplicialSet, MarkedBisimplicialSet, bisset_from_columns, diagonal


# --- generator chains and coherent-nerve cells ------------------------------


@lru_cache(maxsize=None)
def generator_chains(i: int, j: int, D: int) -> tuple:
    """Per level, the hom chains of pair (i, j) starting at the bottom subset."""
    P = path_poset(i, j)
    bottom = P.elements[0]
    per_level = [((bottom,),)]
    chains = [(bottom,)]
    for _ in range(D):
        chains = [c + (t,) for c in chains for t in P.elements if set(c[-1]) <= set(t)]
        per_level.append(tuple(chains))
    return tuple(per_level)


def _chain_is_degenerate(chain) -> bool:
    return any(chain[t] == chain[t + 1] for t in range(len(chain) - 1))


def _pair_limit(i: int, j: int, D: int) -> int:
    # a strictly increasing generator chain of span s has at most s - 1
    # steps, so everything above is a forced degeneracy
    return min(D, j - i - 1)


@lru_cache(maxsize=None)
def _generator_slots(n: int, D: int) -> tuple:
    """The stored generator chains of an n-cell and their positions.

    Returns the (i, j, m, chain) slots, pair (i, j) with i < j first,
    then level m <= `_pair_limit`, then chain, and a lookup from
    (i, j, chain) to the slot's position. A coherent-nerve n-cell is the
    tuple (objects, values) with one value per slot; identity pairs and
    higher levels are forced (see `_cell_value`).
    """
    slots = tuple(
        (i, j, m, c)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
        for m, level in enumerate(generator_chains(i, j, D)[: _pair_limit(i, j, D) + 1])
        for c in level
    )
    return slots, {(i, j, c): s for s, (i, j, _, c) in enumerate(slots)}


def _cell_value(SC: SimplicialCategory, cell, i: int, j: int, m: int, chain) -> int:
    """A cell's value on a generator chain of pair (i, j) at level m.

    Identity pairs take identity cells, stored levels are looked up, and
    above the pair's stored levels the chain is degenerate, so the value
    extends a lower one by degeneracy. Generator chains are all that
    precomposition by a monotone vertex map f asks for: a chain whose
    first subset is {a, b} goes to one whose first subset is
    {f(a), f(b)}.
    """
    objects, values = cell
    if i == j:
        return SC.identity_cell(objects[i], m)
    if m <= _pair_limit(i, j, SC.D):
        return values[_generator_slots(len(objects) - 1, SC.D)[1][(i, j, chain)]]
    t = next(t for t in range(m) if chain[t] == chain[t + 1])
    lower = _cell_value(SC, cell, i, j, m - 1, chain[:t] + chain[t + 1 :])
    return SC.hom(objects[i], objects[j]).degen(m - 1, t, lower)


def _precompose_vertex_map(SC: SimplicialCategory, cell, f: tuple) -> tuple:
    """A cell composed with the path functor of a monotone vertex map."""
    objects, _ = cell
    slots, _ = _generator_slots(len(f) - 1, SC.D)
    return (
        tuple(objects[v] for v in f),
        tuple(
            _cell_value(SC, cell, f[a], f[b], m, tuple(tuple(sorted({f[v] for v in S})) for S in c))
            for a, b, m, c in slots
        ),
    )


def hc_face(SC: SimplicialCategory, cell, i: int) -> tuple:
    n = len(cell[0]) - 1
    return _precompose_vertex_map(SC, cell, tuple(t if t < i else t + 1 for t in range(n)))


def hc_degen(SC: SimplicialCategory, cell, i: int) -> tuple:
    n = len(cell[0]) - 1
    return _precompose_vertex_map(SC, cell, tuple(t if t <= i else t - 1 for t in range(n + 2)))


def hc_constant(target: SimplicialCategory, obj, n: int) -> tuple:
    """The totally degenerate n-cell at one object."""
    slots, _ = _generator_slots(n, target.D)
    return (obj,) * (n + 1), tuple(target.identity_cell(obj, m) for _, _, m, _ in slots)


def hc_from_level0_chain(SC: SimplicialCategory, label, n: int) -> tuple:
    """Include a chain of level-0 morphisms as a coherent-nerve cell.

    Every hom chain at level m goes to the m-fold degeneracy of the
    composite vertex over its pair.
    """
    x0, ms = label
    objs = (x0,) + tuple(m[1] for m in ms)
    per_level = {}
    for i in range(n + 1):
        acc = SC.identity_cell(objs[i], 0)
        for j in range(i + 1, n + 1):
            a, b, lab = ms[j - 1]
            acc = SC.compose(objs[i], a, b, 0, lab[2], acc)
            H = SC.hom(objs[i], objs[j])
            cells = [acc]
            for m in range(_pair_limit(i, j, SC.D)):
                cells.append(H.degen(m, 0, cells[-1]))
            per_level[(i, j)] = cells
    slots, _ = _generator_slots(n, SC.D)
    return objs, tuple(per_level[(i, j)][m] for i, j, m, _ in slots)


# --- coherent nerve enumeration ---------------------------------------------


def _hc_level(SC: SimplicialCategory, n: int) -> list[tuple]:
    D = SC.D
    slots, _ = _generator_slots(n, D)
    pairs = [(i, j) for s in range(1, n + 1) for i in range(n + 1 - s) for j in [i + s]]
    segments = []
    for (i, j) in pairs:
        per_level = generator_chains(i, j, D)
        for m in range(D + 1):
            nondeg = [c for c in per_level[m] if not _chain_is_degenerate(c)]
            segments.append((i, j, m, nondeg))
    results: list[tuple] = []
    for objs in itertools.product(SC.objects, repeat=n + 1):
        if any(SC.hom(objs[i], objs[j]).card(0) == 0 for (i, j) in pairs):
            continue
        values = {}
        for i in range(n + 1):
            d = {}
            for m, level in enumerate(generator_chains(i, i, D)):
                for c in level:
                    d[c] = SC.identity_cell(objs[i], m)
            values[(i, i)] = d
        for (i, j) in pairs:
            values[(i, j)] = {}

        def value_of(i, j, m, chain):
            bottom = chain[0]
            if bottom == ((i,) if i == j else (i, j)):
                return values[(i, j)][chain]
            t = bottom[1]
            left = tuple(tuple(v for v in S if v <= t) for S in chain)
            right = tuple(tuple(v for v in S if v >= t) for S in chain)
            return SC.compose(
                objs[i], objs[t], objs[j], m,
                value_of(t, j, m, right), value_of(i, t, m, left),
            )

        def fill_degenerate(i, j, m):
            # unconditional recompute: a later branch of the search must
            # not see values filled from an abandoned one
            if m == 0:
                return
            H = SC.hom(objs[i], objs[j])
            d = values[(i, j)]
            for c in generator_chains(i, j, D)[m]:
                for t in range(m):
                    if c[t] == c[t + 1]:
                        lower = c[:t] + c[t + 1 :]
                        d[c] = H.degen(m - 1, t, d[lower])
                        break

        def rec(k: int):
            if k == len(segments):
                results.append((objs, tuple(values[(i, j)][c] for i, j, _, c in slots)))
                return
            i, j, m, chains = segments[k]
            H = SC.hom(objs[i], objs[j])

            def assign(idx: int):
                if idx == len(chains):
                    fill_degenerate(i, j, m)
                    rec(k + 1)
                    return
                c = chains[idx]
                if m == 0:
                    for v in range(H.card(0)):
                        values[(i, j)][c] = v
                        assign(idx + 1)
                    return
                want = [value_of(i, j, m - 1, c[:r] + c[r + 1 :]) for r in range(m + 1)]
                for v in range(H.card(m)):
                    if all(H.face(m, r, v) == want[r] for r in range(m + 1)):
                        values[(i, j)][c] = v
                        assign(idx + 1)

            assign(0)

        rec(0)
    return results


def coherent_nerve(SC: SimplicialCategory, L: int, name: str = "") -> SimplicialSet:
    """The coherent nerve up to level L, as an explicit simplicial set.

    Needs L <= D + 1: an L-cell's generator chains live at levels up to
    L - 1, which must fit inside the hom truncation. Each cell's label
    is the cell itself, the tuple (objects, values) of `_generator_slots`.
    """
    if L > SC.D + 1:
        raise TruncationError(f"level {L} cells need hom level {L - 1}, truncation is {SC.D}")
    levels = [_hc_level(SC, n) for n in range(L + 1)]
    index = [{cell: x for x, cell in enumerate(lvl)} for lvl in levels]
    faces: list[list[list[int]]] = [[]]
    for nl in range(1, L + 1):
        faces.append(
            [[index[nl - 1][hc_face(SC, cell, i)] for cell in levels[nl]] for i in range(nl + 1)]
        )
    degens = [
        [[index[nl + 1][hc_degen(SC, cell, i)] for cell in levels[nl]] for i in range(nl + 1)]
        if nl < L
        else []
        for nl in range(L + 1)
    ]
    return SimplicialSet(
        L, [len(lvl) for lvl in levels], faces, degens, labels=levels, name=name or f"hc({SC.name})"
    )


# --- levelwise nerve and classifying space ----------------------------------


def levelwise_nerve(SC: SimplicialCategory, P: int, Q: int, name: str = "") -> BisimplicialSet:
    """Bisimplicial set of chains: column p at row q is p-chains of q-cells.

    Horizontal operators compose and drop along the chain; vertical
    operators act on each morphism's hom cell (`_level_nerve_operators`).
    """
    if Q > SC.D:
        raise TruncationError(f"row {Q} beyond hom truncation {SC.D}")
    nerves = [nerve_cat(level_category(SC, q), P) for q in range(Q + 1)]
    columns = [
        SimplicialSet(
            Q, [nerves[q].card(p) for q in range(Q + 1)], faces, degens,
            labels=[nerves[q].labels[p] for q in range(Q + 1)], name=f"column {p}",
        )
        for p, (faces, degens) in enumerate(_level_nerve_operators(SC, P, Q))
    ]
    return bisset_from_columns(
        columns,
        lambda p, q, i, x: nerves[q].face(p, i, x),
        lambda p, q, i, x: nerves[q].degen(p, i, x),
        name=name or f"chains({SC.name})",
    )


def levelwise_nerve_marked(R: RelativeSimplicialCategory, P: int, Q: int, name: str = "") -> MarkedBisimplicialSet:
    """`levelwise_nerve` with single-morphism chains marked by the subcategory.

    The marking lives in column 1, so P must be at least 1.
    """
    if P < 1:
        raise TruncationError(f"marking lives in column 1, column bound is {P}")
    space = levelwise_nerve(R.cat, P, Q, name=name or f"chains({R.name})")
    marked = set()
    for q in range(Q + 1):
        for x in range(space.card(1, q)):
            _, ms = space.label(1, q, x)
            a, b, lab = ms[0]
            if lab[2] in R.sub_cells(a, b, q):
                marked.add((q, x))
    return MarkedBisimplicialSet(space, frozenset(marked))


def classifying_space(SC: SimplicialCategory, L: int, name: str = "") -> SimplicialSet:
    """Diagonal of the levelwise nerve: level n is n-chains of n-cells."""
    if L > SC.D:
        raise TruncationError(f"level {L} beyond hom truncation {SC.D}")
    return diagonal(levelwise_nerve(SC, L, L), name=name or f"bspace({SC.name})")


# --- the comparison map ------------------------------------------------------


@lru_cache(maxsize=None)
def _comparison_plan(k: int, D: int) -> tuple:
    """The cell-independent part of `comparison_cell` at level k.

    Returns the object column of each output vertex, the sorted hops
    the slots read (every hop in (0, k]) and, per slot (i, j, m, chain)
    of `_generator_slots`, the entry (m, i, hop coordinates): the first
    hop's source and one coordinate per hop t in (i, j]. The coordinate
    of hop t takes, per subset S of the chain, the largest element of S
    strictly below t.
    """
    entries = tuple(
        (m, i, tuple(tuple(max(v for v in S if v < t) for S in c) for t in range(i + 1, j + 1)))
        for i, j, m, c in _generator_slots(k, D)[0]
    )
    return tuple(range(k + 1)), tuple(range(1, k + 1)), entries


def _cell_from_plan(SC: SimplicialCategory, label, q: int, plan, memo: dict) -> tuple:
    """Evaluate a chain of level-q morphisms on a plan's generator slots.

    Each value acts every hop's coordinate on that hop's cell and folds
    the results with composition, later hops on the left; an empty fold
    is an identity cell. The plan's tables are resolved once per
    (q, plan, chain objects) into ``memo``; a cell then reads
    ``w = T[cell]`` per distinct (hop, coordinate) and extends each
    distinct fold prefix acc once, to ``C[w * stride + acc]``.
    """
    x0, ms = label
    objs = (x0,) + tuple(m[1] for m in ms)
    key = (q, id(plan), objs)  # the memo keeps the plan, so no other object takes its id
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = plan, _resolved_plan(SC, q, plan, objs, memo)
    objects, acts, identities, comps, nodes, outputs = hit[1]
    cells = [m[2][2] for m in ms]
    v = [T[cells[t]] for t, T in acts]
    v += identities
    for acc, w, c in nodes:
        C, stride = comps[c]
        v.append(C[v[w] * stride + v[acc]])
    return objects, tuple([v[k] for k in outputs])


def _resolved_plan(SC: SimplicialCategory, q: int, plan, objs: tuple, memo: dict) -> tuple:
    """A plan's output objects and `_fold_program` with its tables.

    Tables come from `act_table` and ``apply``, as homs may be lazy.
    """
    hit = memo.get((id(plan),))
    if hit is None:
        hit = memo[(id(plan),)] = plan, _fold_program(plan[2])
    acts, identities, comps, nodes, outputs = hit[1]
    tables = []
    for t, u in acts:
        key = (q, objs[t], objs[t + 1], u)
        T = memo.get(key)
        if T is None:
            T = memo[key] = act_table(SC.hom(objs[t], objs[t + 1]), q, u)
        tables.append((t, T))
    steps = []
    for m, a, t in comps:
        key = (m, objs[a], objs[t], objs[t + 1], None)
        step = memo.get(key)
        if step is None:
            comp, stride = SC.comps[key[1:4]], SC.hom(objs[a], objs[t]).card(m)
            size = SC.hom(objs[t], objs[t + 1]).card(m) * stride
            step = memo[key] = [comp.apply(m, z) for z in range(size)], stride
        steps.append(step)
    units = [SC.identity_cell(objs[a], m) for m, a in identities]
    return tuple(objs[a] for a in plan[0]), tables, units, steps, nodes, outputs


def _fold_program(entries) -> tuple:
    """A plan's distinct (hop, coordinate) actions, (level, source)
    identities and (level, first hop, hop) composition steps, its fold
    nodes (prefix, action, step) and, per slot, the position of its
    value among the actions, identities and nodes, in that order."""
    acts, identities = {}, {}
    for m, a, us in entries:
        for t, u in enumerate(us, start=a):
            acts.setdefault((t, u), len(acts))
        if not us:
            identities.setdefault((m, a), len(identities))
    comps, nodes, outputs = {}, {}, []
    base = len(acts) + len(identities)
    for m, a, us in entries:
        if not us:
            outputs.append(len(acts) + identities[(m, a)])
            continue
        acc = acts[(a, us[0])]
        for t, u in enumerate(us[1:], start=a + 1):
            node = (acc, acts[(t, u)], comps.setdefault((m, a, t), len(comps)))
            acc = nodes.setdefault(node, base + len(nodes))
        outputs.append(acc)
    return tuple(acts), tuple(identities), tuple(comps), tuple(nodes), tuple(outputs)


def _comparison_cell(SC: SimplicialCategory, label, k: int, memo: dict) -> tuple:
    return _cell_from_plan(SC, label, k, _comparison_plan(k, SC.D), memo)


def comparison_cell(SC: SimplicialCategory, label, k: int) -> tuple:
    """Comparison image of one diagonal chain cell, as a coherent-nerve cell.

    On a generator chain of pair (i, j), hop t in (i, j] acts by the
    tuple of largest elements strictly below t of the chain's subsets;
    this is the chain functor (the test oracle `chain_functor` in
    ``tests/test_nerves.py``) after `comparison_functor`, evaluated
    without building either.
    """
    return _comparison_cell(SC, label, k, {})


def comparison_map(SC: SimplicialCategory, L: int) -> SimplicialMap:
    """The map from the classifying space to the coherent nerve.

    Level k sends a chain of k-cells to the coherent-nerve cell whose
    value on a generator chain of pair (i, j) folds, by composition with
    later hops on the left, the action on each hop t in (i, j] of the
    tuple of largest elements strictly below t (see `comparison_cell`).
    """
    B = classifying_space(SC, L)
    hc = coherent_nerve(SC, L)
    memo: dict = {}
    vals = [
        [hc.index_of(k, _comparison_cell(SC, B.label(k, x), k, memo)) for x in range(B.card(k))]
        for k in range(L + 1)
    ]
    return SimplicialMap(B, hc, values=vals, L=L)


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
    """Index vectors of the grid map with vertex maps (vp, vq): entry
    ``[n][c]`` is the cell of G that cell c of G2 at level n goes to."""
    return [
        [
            G.index_of(n, (tuple(vp[v] for v in la), tuple(vq[v] for v in lb)))
            for la, lb in (G2.label(n, c) for c in range(G2.card(n)))
        ]
        for n in range(G2.D + 1)
    ]


def classification_diagram(R: RelativeSimplicialCategory, P: int, Q: int, name: str = "") -> MarkedBisimplicialSet:
    """Materialize the classification diagram up to bidegree (P, Q).

    Cells at (p, q) are simplicial maps from the (p, q) grid into the
    coherent nerve whose vertex slices {i} x q-simplex carry every edge
    into the marked edges; marked cells at column 1 carry every edge of
    the whole grid into the marked edges. A cell's label is its value
    table over the grid built to level P + Q (above p + q every grid
    cell is degenerate, so those values are forced). An operator is
    precomposition with the map of grids its vertex maps (`_grid_op`)
    give: a cell's image is its table gathered along that map's
    `_grid_gather` vectors, looked up among the labels of the target
    bidegree. Needs P >= 1 for the marking. Feasible for small inputs
    only.
    """
    SC = R.cat
    if P < 1:
        raise TruncationError(f"marking lives in column 1, column bound is {P}")
    if P + Q > SC.D:
        raise TruncationError(f"bidegree ({P},{Q}) needs hom levels {P + Q}, truncation is {SC.D}")
    hc = coherent_nerve(SC, P + Q)
    marked_edges = _marked_hc_edges(R, hc)

    def all_marked(key, edges) -> bool:
        return all(key[1][e] in marked_edges for e in edges)

    grids, cells = {}, {}
    labels = [[None] * (Q + 1) for _ in range(P + 1)]
    for p in range(P + 1):
        for q in range(Q + 1):
            G = grids[(p, q)] = _product_pair(p, q, P + Q)
            slices = [G.index_of(1, ((i, i), (a, b))) for i in range(p + 1) for b in range(q + 1) for a in range(b)]
            keys = [f.key() for f in enumerate_maps(G, hc)]
            labels[p][q] = [k for k in keys if all_marked(k, slices)]
            cells[(p, q)] = {k: x for x, k in enumerate(labels[p][q])}

    def family(kind, present):
        # horizontal operators at (p, q) are indexed by p, vertical ones by q
        tables = [[[] for _ in range(Q + 1)] for _ in range(P + 1)]
        for (p, q), G in grids.items():
            if not present(p, q):
                continue
            for i in range((p if kind[0] == "h" else q) + 1):
                (p2, q2), vp, vq = _grid_op(p, q, kind, i)
                g = _grid_gather(G, grids[(p2, q2)], vp, vq)
                index = cells[(p2, q2)]
                tables[p][q].append(
                    [index[tuple(tuple(row[c] for c in gn) for row, gn in zip(k, g))] for k in labels[p][q]]
                )
        return tables

    space = BisimplicialSet(
        P, Q, [[len(labels[p][q]) for q in range(Q + 1)] for p in range(P + 1)],
        family("hface", lambda p, q: p >= 1), family("hdegen", lambda p, q: p < P),
        family("vface", lambda p, q: q >= 1), family("vdegen", lambda p, q: q < Q),
        labels=labels, name=name or f"cls({R.name})",
    )
    marked = set()
    for q in range(Q + 1):
        G = grids[(1, q)]
        edges = [e for e in range(G.card(1)) if not G.is_degenerate(1, e)]
        marked.update((q, x) for x, k in enumerate(labels[1][q]) if all_marked(k, edges))
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


@lru_cache(maxsize=None)
def _collapse_row(chain: tuple) -> tuple:
    """The grid-collapse rule on one grid chain of length r + 1.

    Per subset S of ``path_poset(0, r)``, in its order, the tuple with
    one entry per hop t in (a, b], a and b the columns of the chain's
    ends: the largest second coordinate of chain(S) whose first
    coordinate is strictly below t. This is the one place the rule is
    written: plans and the vertex-slice check read it through
    `_collapse_table`, the naturality check row by row.
    """
    a, b = chain[0][0], chain[-1][0]
    return tuple(
        tuple(max(chain[s][1] for s in S if chain[s][0] < t) for t in range(a + 1, b + 1))
        for S in path_poset(0, len(chain) - 1).elements
    )


@lru_cache(maxsize=None)
def _collapse_table(tau: tuple) -> tuple:
    """The object columns of ``tau`` and the `_collapse_row` of each pair.

    Pairs (i, j) with i <= j run in the order of `_table_pairs`; the row
    of (i, j) is that of the sub-chain tau[i..j].
    """
    return tuple(a for a, _ in tau), tuple(
        _collapse_row(tau[i : j + 1]) for i, j in _table_pairs(len(tau) - 1)
    )


@lru_cache(maxsize=None)
def _table_pairs(r: int) -> tuple:
    """Pairs i <= j of 0..r, by i and then j: the row order of a table."""
    return tuple((i, j) for i in range(r + 1) for j in range(i, r + 1))


@lru_cache(maxsize=None)
def _collapse_plan(tau: tuple, D: int) -> tuple:
    """The cell-independent part of `theta_cell_value` along ``tau``.

    Same shape as `_comparison_plan`. Output vertex t sits over column
    tau[t][0]; generator pair (i, j) covers the hops (a, b] between
    a = tau[i][0] and b = tau[j][0], and the coordinate of hop t takes,
    per subset S of the chain, the entry for t of the row of (i, j) in
    `_collapse_table`. The hops read are the union of those ranges,
    empty when tau stays in one column.
    """
    cols, rows = _collapse_table(tau)
    row_of = dict(zip(_table_pairs(len(tau) - 1), rows))
    entries = []
    hops = set()
    for i, j, m, c in _generator_slots(len(tau) - 1, D)[0]:
        a, b = cols[i], cols[j]
        hops.update(range(a + 1, b + 1))
        # S sits in path_poset(i, j) where S - i sits in path_poset(0, j - i)
        row, position = row_of[(i, j)], path_poset(i, j).index
        per_subset = [row[position(S)] for S in c]
        entries.append((m, a, tuple(zip(*per_subset))))
    return cols, tuple(sorted(hops)), tuple(entries)


def _theta_cell(SC: SimplicialCategory, label, p: int, q: int, tau, memo: dict) -> tuple:
    plan = _collapse_plan(_check_grid_chain(p, q, tau), SC.D)
    return _cell_from_plan(SC, label, q, plan, memo)


def theta_cell_value(SC: SimplicialCategory, label, p: int, q: int, tau) -> tuple:
    """The coherent-nerve cell a chain assigns to one grid chain.

    ``label`` is a p-chain of level-q morphisms and ``tau`` a weakly
    increasing chain in the (p, q) grid; the result is a cell at level
    len(tau) - 1 over the objects at the columns tau[t][0]. On a
    generator chain of pair (i, j), hop t between columns tau[i][0]
    and tau[j][0] acts by the tuple, per subset S, of the largest second
    coordinate of tau(S) whose first coordinate is strictly below t;
    the hops fold by composition, later hops on the left. This is the
    chain functor (the test oracle `chain_functor` in
    ``tests/test_nerves.py``) after `grid_collapse`, evaluated without
    building either.
    """
    return _theta_cell(SC, label, p, q, tau, {})


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
    if kind == "hface":
        return (p - 1, q), tuple(t if t < i else t + 1 for t in range(p)), tuple(range(q + 1))
    if kind == "hdegen":
        return (p + 1, q), tuple(t if t <= i else t - 1 for t in range(p + 2)), tuple(range(q + 1))
    if kind == "vface":
        return (p, q - 1), tuple(range(p + 1)), tuple(t if t < i else t + 1 for t in range(q))
    return (p, q + 1), tuple(range(p + 1)), tuple(t if t <= i else t - 1 for t in range(q + 2))


def _ops_at(X: BisimplicialSet, p: int, q: int):
    if p >= 1:
        for i in range(p + 1):
            yield "hface", i, X.hface
    if p < X.P:
        for i in range(p + 1):
            yield "hdegen", i, X.hdegen
    if q >= 1:
        for j in range(q + 1):
            yield "vface", j, X.vface
    if q < X.Q:
        for j in range(q + 1):
            yield "vdegen", j, X.vdegen


def _chain_tuple(label) -> tuple:
    """Objects and per-hop hom cells: the full data of a chain cell."""
    x0, ms = label
    return (x0,) + tuple((a, b, lab[2]) for (a, b, lab) in ms)


@lru_cache(maxsize=None)
def _reindex_plan(vp: tuple, vq: tuple) -> tuple:
    """The plan of `_reindexed_chain`: slot t - 1 folds the hops in (vp[t-1], vp[t]]."""
    return vp, (), tuple((len(vq) - 1, vp[t - 1], (vq,) * (vp[t] - vp[t - 1])) for t in range(1, len(vp)))


def _reindexed_chain(SC: SimplicialCategory, label, q: int, vp, vq, memo: dict) -> tuple:
    """The chain a chain cell gives along the vertex maps ``vp``, ``vq``.

    ``label`` is a chain of level-q morphisms; the result has the shape
    of `_chain_tuple`, with len(vp) - 1 hops of level len(vq) - 1 cells.
    Output hop t folds the source hops s in (vp[t-1], vp[t]]: each acts
    its cell by ``vq``, later hops compose on the left, and an empty
    fold is the identity cell, which is `_cell_from_plan` on
    `_reindex_plan`. This is `chain_functor` (the test oracle in
    ``tests/test_nerves.py``) after the interval transform of (vp, vq),
    restricted to the top grid cell.
    """
    objects, values = _cell_from_plan(SC, label, q, _reindex_plan(vp, vq), memo)
    return (objects[0],) + tuple(zip(objects, objects[1:], values))


# operator squares at p + q up to this bound are also materialized cell by cell
_DIRECT_BIDEGREE = 3
# a check report keeps at most this many witnesses
_WITNESS_CAP = 9


def classification_comparison(R: RelativeSimplicialCategory, P: int, Q: int) -> CheckReport:
    """Check the comparison from chain cells to classification cells.

    Per cell it verifies the chain identities: each bisimplicial
    operator, with vertex maps (vp, vq) on the grid factors, sends the
    chain to the one whose hop t folds the source hops s in
    (vp[t-1], vp[t]], each acted on by vq, by composition with later
    hops on the left, an empty fold being the identity cell (see
    `_reindexed_chain`). Per operator it checks the collapse naturality
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
                    lhs = _chain_tuple(X.label(p2, q2, op(p, q, i, x)))
                    rhs = _reindexed_chain(SC, label, q, vp, vq, memo)
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
                for x in range(X.card(p, q)):
                    label = X.label(p, q, x)
                    objs = [label[0]] + [m[1] for m in label[1]]
                    counts["slice_checks"] += 1
                    if _theta_cell(SC, label, p, q, tau, memo) != hc_constant(SC, objs[i], q) and capped(
                        {"reason": "vertex slice value", "bidegree": [p, q], "cell": x, "vertex": i}
                    ):
                        return

    # marking: marked chains send every strict grid edge to a marked edge
    for (q, x) in sorted(M.marked):
        label = X.label(1, q, x)
        for b0 in range(q + 1):
            for b1 in range(b0, q + 1):
                tau = ((0, b0), (1, b1))
                objects, values = _theta_cell(SC, label, 1, q, tau, memo)
                counts["marked_edges_checked"] += 1
                if values[0] not in R.sub_cells(objects[0], objects[1], 0) and capped(
                    {
                        "reason": "marking not preserved",
                        "row": q,
                        "cell": x,
                        "edge": [[0, b0], [1, b1]],
                    }
                ):
                    return

    # direct operator squares on small bidegrees
    for p in range(P + 1):
        for q in range(Q + 1):
            if p + q > _DIRECT_BIDEGREE:
                continue
            targets = {_grid_op(p, q, kind, i)[0] for kind, i, _ in _ops_at(X, p, q)}
            chains_pq = {t: _nondeg_grid_chains(*t) for t in targets}
            for x in range(X.card(p, q)):
                label = X.label(p, q, x)
                for kind, i, op in _ops_at(X, p, q):
                    (p2, q2), vp, vq = _grid_op(p, q, kind, i)
                    moved_label = X.label(p2, q2, op(p, q, i, x))
                    for tau in chains_pq[(p2, q2)]:
                        lhs = _theta_cell(SC, moved_label, p2, q2, tau, memo)
                        big = tuple((vp[a], vq[b]) for (a, b) in tau)
                        rhs = _theta_cell(SC, label, p, q, big, memo)
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


def consistency_check(SC: SimplicialCategory, f: SimplicialMap) -> CheckReport:
    """Agreement of the comparison routes on and around the diagonal.

    ``f`` is the comparison map built by `comparison_map`, checked up to
    its level L = ``f.L``. (a) On every diagonal cell, the cell ``f``
    stores equals the grid-collapse route along the diagonal chain; the
    map's cells come from `comparison_cell`, and the two routes compute
    their hop coordinates by separately written rules and share only
    the fold. (b) Restricting the column coordinate to a vertex
    collapses each column cell to the constant cell at that object.
    (c) Acting a row cell vertically by a constant map and comparing
    lands on the level-0 inclusion of its vertex restriction.

    One memo holds the fold tables of `_cell_from_plan` for (a), (b)
    and (c); (a) looks up one plan per level. Every instance of (b) and
    (c) is checked and counted, but each distinct input is evaluated
    once: a boolean verdict is looked up under a key holding exactly
    what the two sides read, so reusing it is exact for any input. In
    (b) the key is (p, q, i), which fixes the collapse plan, with the
    objects at the plan's columns and the (source, target, cell) of each
    hop the plan reads; a vertex chain reads no hop and its columns are
    all i, so the objects include the one `hc_constant` reads. In (c)
    the key is (m, z, level0): the left side reads only the restricted
    cell z at (m, m), from one `act_table` per (m, n, i), the right
    side only the level-0 restriction, from one `act` per
    (a, b, cell, n, i). The report keeps nine witnesses; ``bounds``
    counts every instance.
    """
    L = f.L
    if L > SC.D:
        raise TruncationError(f"level {L} beyond hom truncation {SC.D}")
    X = levelwise_nerve(SC, L, L)
    check = CheckReport(check="consistency", verdict="pass")
    counts = {"diagonal": 0, "vertex_slices": 0, "row_restrictions": 0}
    memo: dict = {}
    B, hc = f.source, f.target

    def fail(witness) -> None:
        check.verdict = "fail"
        if len(check.witnesses) < _WITNESS_CAP:
            check.witnesses.append(witness)

    for k in range(L + 1):
        plan = _collapse_plan(_check_grid_chain(k, k, tuple((t, t) for t in range(k + 1))), SC.D)
        for x in range(B.card(k)):
            counts["diagonal"] += 1
            if _cell_from_plan(SC, B.label(k, x), k, plan, memo) != hc.label(k, f.apply(k, x)):
                fail({"reason": "diagonal route", "level": k, "cell": x})
    slice_verdicts: dict = {}
    for p in range(L + 1):
        for q in range(L + 1):
            slices = []
            for i in range(p + 1):
                tau = tuple((i, b) for b in range(q + 1))
                cols, hops, _ = _collapse_plan(_check_grid_chain(p, q, tau), SC.D)
                slices.append((i, tau, cols, hops))
            for x in range(X.card(p, q)):
                label = X.label(p, q, x)
                x0, ms = label
                objs = (x0,) + tuple(m[1] for m in ms)
                for i, tau, cols, hops in slices:
                    key = (
                        p,
                        q,
                        i,
                        tuple(objs[c] for c in cols),
                        tuple((objs[t - 1], objs[t], ms[t - 1][2][2]) for t in hops),
                    )
                    ok = slice_verdicts.get(key)
                    if ok is None:
                        F = _theta_cell(SC, label, p, q, tau, memo)
                        ok = slice_verdicts[key] = F == hc_constant(SC, objs[i], q)
                    counts["vertex_slices"] += 1
                    if not ok:
                        fail({"reason": "vertex slice", "bidegree": [p, q], "cell": x, "vertex": i})
    row_verdicts: dict = {}
    restricted_hops: dict = {}
    for m in range(L + 1):
        col = X.column(m)
        for n in range(L + 1):
            restrictions = [act_table(col, n, (i,) * (m + 1)) for i in range(n + 1)]
            for x in range(X.card(m, n)):
                x0, ms = X.label(m, n, x)
                for i in range(n + 1):
                    z = restrictions[i][x]
                    hops = []
                    for a, b, lab in ms:
                        hop_key = (a, b, lab[2], n, i)
                        c = restricted_hops.get(hop_key)
                        if c is None:
                            c = restricted_hops[hop_key] = act(SC.hom(a, b), n, lab[2], (i,))
                        hops.append((a, b, (a, b, c)))
                    level0 = (x0, tuple(hops))
                    key = (m, z, level0)
                    ok = row_verdicts.get(key)
                    if ok is None:
                        lhs = _comparison_cell(SC, X.label(m, m, z), m, memo)
                        rhs = hc_from_level0_chain(SC, level0, m)
                        ok = row_verdicts[key] = lhs == rhs
                    counts["row_restrictions"] += 1
                    if not ok:
                        fail({"reason": "row restriction", "bidegree": [m, n], "cell": x, "vertex": i})
    check.bounds.update(counts)
    return check
