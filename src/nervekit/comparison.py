"""The cell formulas of the coherent nerve and of the comparison map.

A coherent-nerve n-cell is the tuple (objects, values): one value per
generator chain (chain whose first subset is the two-point one) of the
pair's unforced levels, in the order of `_generator_slots`. Identity
pairs and higher levels are forced (`_cell_value`), and a value on any
other hom chain folds out of these by composition. `_hc_level`
enumerates the cells of one level and the `hc_*` operators act on them.

A comparison or grid-collapse cell is a plan folded over a chain of
level-q morphisms: on each generator chain, every hop acts by a tuple
of subset elements and the hops fold by composition. `_comparison_plan`
writes the diagonal rule; `_collapse_plan` reads the grid-collapse
rule, written once in `_collapse_row` and read through
`_collapse_table`. The two rules stay separately written, so check (a)
of `nerves.consistency_check` compares independent routes.

Two folds evaluate a plan, both from the tables `_resolved_plan` keeps
in the caller's memo. `_cells_from_plan` folds a whole level, one block
of cells at a time, one list per action and fold node: `comparison_map`
and check (a) read every cell of a level through it. `_cell_from_plan`
folds one cell: the theta sweeps and the verdicts of checks (b) and (c)
evaluate single cells and stop early, so they use it, as does
`_cells_from_plan` for an object tuple with fewer than `_MIN_BATCH`
chains (every one in a poset). Each fold is the other's test oracle.

`nervekit.nerves` imports this module inside the functions that use it
(and `nervekit.classification`, itself loaded on first use, at its
top), so a process that builds no coherent-nerve or comparison cell
does not compile it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .cat import SimplicialCategory, _check_grid_chain, path_poset
from .sset import act_table


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


# --- the comparison plan and the fold ----------------------------------------


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
    resolved = memo.get((q, id(plan), objs)) or _resolved_plan(SC, q, plan, objs, memo)
    objects, acts, identities, comps, nodes, outputs = resolved
    cells = [m[2][2] for m in ms]
    v = [T[cells[t]] for t, T in acts]
    v += identities
    for acc, w, c in nodes:
        C, stride = comps[c]
        v.append(C[v[w] * stride + v[acc]])
    return objects, tuple([v[k] for k in outputs])


# the batched fold evaluates at most _BLOCK cells at once, and a group
# of fewer than _MIN_BATCH cells one cell at a time: building one list
# per action and fold node costs more than it saves on so few cells
_BLOCK = 128
_MIN_BATCH = 8


def _cells_from_plan(SC: SimplicialCategory, labels, q: int, plan, memo: dict):
    """`_cell_from_plan` on every chain of ``labels``, block by block.

    Yields (x, cell) for each position x of ``labels``. The labels are
    grouped by chain objects, and each group resolves the plan once
    through the same ``memo``. A block of at most `_BLOCK` cells of a
    group then reads one list per action (``T[cell]`` over the hop's
    column of cells), one per identity and one per fold node
    (``C[w * stride + acc]`` over the zipped lists of its action and
    prefix). A group of fewer than `_MIN_BATCH` cells goes through
    `_cell_from_plan` instead: in a poset every hom is a point, so each
    object tuple holds one chain. The positions come in ascending order
    within a group, and the groups in order of first appearance.
    """
    groups: dict = {}
    for x, objs in enumerate(zip(*_object_columns(labels))):
        groups.setdefault(objs, []).append(x)
    for objs, xs in groups.items():
        if len(xs) < _MIN_BATCH:
            for x in xs:
                yield x, _cell_from_plan(SC, labels[x], q, plan, memo)
            continue
        resolved = memo.get((q, id(plan), objs)) or _resolved_plan(SC, q, plan, objs, memo)
        objects, acts, identities, comps, nodes, outputs = resolved
        hops = sorted({t for t, _ in acts})
        for start in range(0, len(xs), _BLOCK):
            block = xs[start : start + _BLOCK]
            chains = [labels[x][1] for x in block]
            cells = {t: [ms[t][2][2] for ms in chains] for t in hops}
            v = [list(map(T.__getitem__, cells[t])) for t, T in acts]
            v += [[u] * len(block) for u in identities]
            for acc, w, c in nodes:
                C, stride = comps[c]
                v.append([C[b * stride + a] for b, a in zip(v[w], v[acc])])
            rows = zip(*[v[k] for k in outputs]) if outputs else itertools.repeat(())
            for x, values in zip(block, rows):
                yield x, (objects, values)


def _object_columns(labels) -> list:
    """Per vertex t, the list of each chain label's object at t."""
    hops = len(labels[0][1]) if labels else 0
    return [[x0 for x0, _ in labels]] + [[ms[t][1] for _, ms in labels] for t in range(hops)]


def _label_blocks(labels):
    """Consecutive blocks of at most `_BLOCK` chain labels of one
    bidegree: each as its range of positions, its object columns (one
    list per vertex) and its cell columns (one list per hop)."""
    for start in range(0, len(labels), _BLOCK):
        chunk = labels[start : start + _BLOCK]
        objs = _object_columns(chunk)
        yield range(start, start + len(chunk)), objs, [[ms[t][2][2] for _, ms in chunk] for t in range(len(objs) - 1)]


def _resolved_plan(SC: SimplicialCategory, q: int, plan, objs: tuple, memo: dict) -> tuple:
    """A plan's output objects and `_fold_program` with its tables.

    Stored in ``memo`` under (q, id(plan), objs); the memo also keeps
    the plan itself, so no other object takes its id. Action tables
    come from `act_table`, as homs may be lazy. A step table is the
    category's stored composition table at its level, the ``comp``
    table of the JSON document, with its stride
    hom(source, hop).card(level).
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
    steps = [(SC.comps[(objs[a], objs[t], objs[t + 1])][m], SC.hom(objs[a], objs[t]).card(m)) for m, a, t in comps]
    units = [SC.identity_cell(objs[a], m) for m, a in identities]
    resolved = memo[(q, id(plan), objs)] = tuple(objs[a] for a in plan[0]), tables, units, steps, nodes, outputs
    return resolved


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


# --- grid collapse ----------------------------------------------------------


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


def _theta_plan(p: int, q: int, tau, D: int) -> tuple:
    """The `_collapse_plan` of a grid chain, checked to lie in the (p, q) grid."""
    return _collapse_plan(_check_grid_chain(p, q, tau), D)
