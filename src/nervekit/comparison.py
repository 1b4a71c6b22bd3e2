"""The cell formulas of the coherent nerve and of the comparison map.

A coherent-nerve n-cell is the tuple (objects, values): one value per
nondegenerate generator chain (strictly increasing, first subset the
two-point one), in the order of `_generator_slots`.
Identity pairs and degenerate chains are forced (`_cell_value`), and a
value on any other hom chain folds out of these by composition. An
operator precomposes a cell with its vertex map (`_precompose_vertex_map`).
`coherent._hc_level` enumerates the cells of one level by assigning
these values slot by slot, each chain after its faces; face 0 of a
chain folds the `_cell_value` of the hops of its bottom subset.

A comparison or grid-collapse cell is a plan folded over a chain of
level-q morphisms, labelled as a levelwise-nerve cell is: the tuple
(objects, cells), its n + 1 objects and the hom cell of each hop. On
each generator chain, every hop acts by a tuple of subset elements and
the hops fold by composition. `_comparison_plan` writes the diagonal
rule; `_collapse_plan` reads the grid-collapse rule, written once in
`_collapse_row` and read through `_collapse_table`. The two rules stay separately written, so check (a)
of `nerves.consistency_check` compares independent routes.

Two folds evaluate a plan, both from the tables `_resolved_plan` keeps
in the caller's memo. `_cells_from_plan` folds a whole level, one block
of cells at a time, one list per action and fold node: `comparison_map`
and check (a) read every cell of a level through it. `_cell_from_plan`
folds one cell: the theta sweeps and the verdicts of checks (b) and (c)
evaluate single cells and stop early, so they use it, as does
`_cells_from_plan` for an object tuple with fewer than `_MIN_BATCH`
chains (every one in a poset). Each fold is the other's test oracle.

`comparison_cell` gives a diagonal chain cell's comparison image in
closed form: on each generator chain, every hop acts by the tuple of
largest subset elements strictly below it, and the hops fold by
composition. That is the chain functor precomposed with
`cat.comparison_functor`, evaluated without building either; the
functor route (`chain_functor` and `hc_from_simplicial_functor`) is
kept in ``tests/test_nerves.py`` as the oracle for these closed forms.

The coherent nerve, the comparison map and the consistency check that
read these formulas live in `nervekit.coherent` (and the
classification diagram and theta in `nervekit.classification`), so a
process that builds no coherent-nerve or comparison cell does not
compile this module.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .cat import SimplicialCategory
from .posets import path_poset
from .sset import act_table


# --- generator chains and coherent-nerve cells ------------------------------


@lru_cache(maxsize=None)
def generator_chains(i: int, j: int, D: int) -> tuple:
    """Per level, the strictly increasing hom chains of pair (i, j)
    starting at the bottom subset: none above level j - i - 1."""
    P = path_poset(i, j)
    bottom = P.elements[0]
    per_level = [((bottom,),)]
    chains = [(bottom,)]
    for _ in range(D):
        chains = [c + (t,) for c in chains for t in P.elements if set(c[-1]) < set(t)]
        per_level.append(tuple(chains))
    return tuple(per_level)


@lru_cache(maxsize=None)
def _generator_slots(n: int, D: int) -> tuple:
    """The stored generator chains of an n-cell and their positions.

    Returns the (i, j, m, chain) slots of `generator_chains`, pair
    (i, j) with i < j first, then level m, then chain, and a lookup from
    (i, j, chain) to the slot's position. A coherent-nerve n-cell is the
    tuple (objects, values) with one value per slot; identity pairs and
    degenerate chains are forced (see `_cell_value`).
    """
    slots = tuple(
        (i, j, m, c)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
        for m, level in enumerate(generator_chains(i, j, D))
        for c in level
    )
    return slots, {(i, j, c): s for s, (i, j, _, c) in enumerate(slots)}


def _cell_value(SC: SimplicialCategory, cell, i: int, j: int, m: int, chain) -> int:
    """A cell's value on a generator chain of pair (i, j) at level m.

    Identity pairs take identity cells, slots are looked up, and a
    degenerate chain takes s_t of the value on the chain without its
    first repeat t: the one place this rule is written. Generator
    chains are all that precomposition by a monotone vertex map f asks
    for: a chain whose first subset is {a, b} goes to one whose first
    subset is {f(a), f(b)}.
    """
    objects, values = cell
    if i == j:
        return SC.identity_cell(objects[i], m)
    s = _generator_slots(len(objects) - 1, SC.D)[1].get((i, j, chain))
    if s is not None:
        return values[s]
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


def hc_constant(target: SimplicialCategory, obj, n: int) -> tuple:
    """The totally degenerate n-cell at one object."""
    slots, _ = _generator_slots(n, target.D)
    return (obj,) * (n + 1), tuple(target.identity_cell(obj, m) for _, _, m, _ in slots)


def hc_from_level0_chain(SC: SimplicialCategory, label, n: int) -> tuple:
    """Include a chain (objects, cells) of level-0 morphisms as a
    coherent-nerve cell.

    Every hom chain at level m goes to the m-fold degeneracy of the
    composite vertex over its pair.
    """
    objs, cells = label
    per_level = {}
    for i in range(n + 1):
        acc = SC.identity_cell(objs[i], 0)
        for j in range(i + 1, n + 1):
            acc = per_level[(i, j, 0)] = SC.compose(objs[i], objs[j - 1], objs[j], 0, cells[j - 1], acc)
    slots, _ = _generator_slots(n, SC.D)
    for i, j, m, _ in slots:
        if (i, j, m) not in per_level:
            per_level[(i, j, m)] = SC.hom(objs[i], objs[j]).degen(m - 1, 0, per_level[(i, j, m - 1)])
    return objs, tuple(per_level[(i, j, m)] for i, j, m, _ in slots)

# --- the comparison plan and the fold ----------------------------------------


@lru_cache(maxsize=None)
def _comparison_plan(k: int, D: int) -> tuple:
    """The cell-independent part of `comparison_cell` at level k.

    Returns the object column of each output vertex and, per slot
    (i, j, m, chain) of `_generator_slots`, the entry (m, i, hop
    coordinates): the first hop's source and one coordinate per hop t
    in (i, j]. The coordinate of hop t takes, per subset S of the chain,
    the largest element of S strictly below t.
    """
    entries = tuple(
        (m, i, tuple(tuple(max(v for v in S if v < t) for S in c) for t in range(i + 1, j + 1)))
        for i, j, m, c in _generator_slots(k, D)[0]
    )
    return tuple(range(k + 1)), entries


def _cell_from_plan(SC: SimplicialCategory, label, q: int, plan, memo: dict) -> tuple:
    """Evaluate a chain (objects, cells) of level-q morphisms on a plan's
    generator slots.

    Each value acts every hop's coordinate on that hop's cell and folds
    the results with composition, later hops on the left; an empty fold
    is an identity cell. The plan's tables are resolved once per
    (q, plan, objects) into ``memo``; a cell then reads
    ``w = T[cell]`` per distinct (hop, coordinate) and extends each
    distinct fold prefix acc once, to ``C[w * stride + acc]``.
    """
    objs, cells = label
    resolved = memo.get((q, id(plan), objs)) or _resolved_plan(SC, q, plan, objs, memo)
    objects, acts, identities, comps, nodes, outputs = resolved
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
    for x, (objs, _) in enumerate(labels):
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
            cells = {t: [cs[t] for cs in chains] for t in hops}
            v = [list(map(T.__getitem__, cells[t])) for t, T in acts]
            v += [[u] * len(block) for u in identities]
            for acc, w, c in nodes:
                C, stride = comps[c]
                v.append([C[b * stride + a] for b, a in zip(v[w], v[acc])])
            rows = zip(*[v[k] for k in outputs]) if outputs else itertools.repeat(())
            for x, values in zip(block, rows):
                yield x, (objects, values)


def _label_blocks(labels):
    """Consecutive blocks of at most `_BLOCK` chain labels of one
    bidegree: each as its range of positions, its object columns (one
    per vertex) and its cell columns (one per hop)."""
    for start in range(0, len(labels), _BLOCK):
        objs, cells = zip(*labels[start : start + _BLOCK])
        yield range(start, start + len(objs)), list(zip(*objs)), list(zip(*cells))


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
        hit = memo[(id(plan),)] = plan, _fold_program(plan[1])
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


def comparison_cell(SC: SimplicialCategory, label, k: int) -> tuple:
    """Comparison image of one diagonal chain cell, as a coherent-nerve cell.

    On a generator chain of pair (i, j), hop t in (i, j] acts by the
    tuple of largest elements strictly below t of the chain's subsets;
    this is the chain functor (the test oracle `chain_functor` in
    ``tests/test_nerves.py``) after `comparison_functor`, evaluated
    without building either.
    """
    return _comparison_cell(SC, label, k, {})


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
    `_collapse_table`.
    """
    cols, rows = _collapse_table(tau)
    row_of = dict(zip(_table_pairs(len(tau) - 1), rows))
    entries = []
    for i, j, m, c in _generator_slots(len(tau) - 1, D)[0]:
        # S sits in path_poset(i, j) where S - i sits in path_poset(0, j - i)
        row, position = row_of[(i, j)], path_poset(i, j).index
        per_subset = [row[position(S)] for S in c]
        entries.append((m, cols[i], tuple(zip(*per_subset))))
    return cols, tuple(entries)


def _check_grid_chain(p: int, q: int, tau: Sequence) -> tuple:
    tau = tuple((int(a), int(b)) for a, b in tau)
    if not tau:
        raise ValueError("grid chain must be nonempty")
    for a, b in tau:
        if not (0 <= a <= p and 0 <= b <= q):
            raise ValueError(f"grid vertex {(a, b)} outside [{p}]x[{q}]")
    for t in range(len(tau) - 1):
        if tau[t][0] > tau[t + 1][0] or tau[t][1] > tau[t + 1][1]:
            raise ValueError(f"grid chain not weakly increasing at {t}: {tau}")
    return tau


def _theta_plan(p: int, q: int, tau, D: int) -> tuple:
    """The `_collapse_plan` of a grid chain, checked to lie in the (p, q) grid."""
    return _collapse_plan(_check_grid_chain(p, q, tau), D)
