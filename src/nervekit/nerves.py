"""Nerve constructions and the comparison map between them.

Three constructions of a simplicial category live here:

* `coherent_nerve`: level n cells are simplicial functors out of
  `gadgets.coherent_path_category(n, D)`, stored as the tuple (objects,
  values) of `comparison._generator_slots`; the cells of one level, their
  faces and degeneracies come from the cell formulas in
  `nervekit.comparison`. That tuple is also the cell's label.
* `levelwise_nerve`: the bisimplicial set whose column p at row q is
  the set of p-chains of level-q morphisms, one `chain_index_nerve` per
  row; `classifying_space` is its diagonal.

`comparison_map` sends a diagonal chain cell to the coherent-nerve
cell given in closed form by `comparison_cell`: on each generator
chain, every hop acts by the tuple of largest subset elements strictly
below it, and the hops fold by composition. That is the chain functor
precomposed with `comparison_functor`, evaluated without building
either; `comparison_functor` is `grid_collapse` along the diagonal
chain (0, 0), ..., (n, n). `consistency_check` compares it with the
grid-collapse route along the diagonal. The functor route
(`chain_functor` and `hc_from_simplicial_functor`) is kept in
``tests/test_nerves.py`` as the oracle for these closed forms.

The cell formulas, the comparison and collapse plans and the fold live
in `nervekit.comparison`, which the functions here import when first
called: a process that runs only `levelwise_nerve` or
`classifying_space` does not compile them. The classification diagram
and theta, which read the same collapse rule, live in
`nervekit.classification`.
"""

from __future__ import annotations

import itertools

from .reporting import CheckReport
from .sset import SimplicialMap, SimplicialSet, TruncationError, _extend, act_table, chain_index_nerve
from .cat import RelativeSimplicialCategory, SimplicialCategory, _chain_labels
from .bisset import BisimplicialSet, MarkedBisimplicialSet, diagonal


# --- coherent nerve ----------------------------------------------------------


def coherent_nerve(SC: SimplicialCategory, L: int, name: str = "") -> SimplicialSet:
    """The coherent nerve up to level L, as an explicit simplicial set.

    Needs L <= D + 1: an L-cell's generator chains live at levels up to
    L - 1, which must fit inside the hom truncation. Each cell's label
    is the cell itself, the tuple (objects, values) of
    `comparison._generator_slots`.
    """
    from .comparison import _hc_level, hc_degen, hc_face

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

    Row q is the nerve of the level-q category by `chain_index_nerve`,
    labelled as ``nerve_cat(level_category(SC, q), P)``. A vertical
    operator h keeps the objects and acts on each hom cell, so in its
    target row r it sends x extended by c: e -> y to
    first_r[h(x)] + start_r[e][y] + h(c).
    """
    if Q > SC.D:
        raise TruncationError(f"row {Q} beyond hom truncation {SC.D}")
    obs = SC.objects
    homs = [[SC.hom(a, b) for b in obs] for a in obs]
    rows = []
    for q in range(Q + 1):
        cards = [[H.card(q) for H in row] for row in homs]

        def comp(a, b, c, q=q):
            return SC.comps[(obs[a], obs[b], obs[c])][q]

        counts, faces, degens, ends, firsts = chain_index_nerve(cards, comp, [SC.identity_cell(a, q) for a in obs], P)
        cells = [[[(x, y, c) for c in range(n)] for y, n in zip(obs, row)] for x, row in zip(obs, cards)]
        rows.append((counts, faces, degens, _chain_labels(obs, cells, ends, P), cards, ends, firsts))
    index = list(range(max(max(row[0]) for row in rows)))

    def vertical(q, r):
        # per column, the tables of the operators j = 0..q from row q to row r
        tables = [[] for _ in range(P + 1)]
        if not 0 <= r <= Q:
            return tables
        cards, ends, firsts = rows[q][4], rows[q][5], rows[r][6]
        start = [list(itertools.accumulate(row, initial=0)) for row in rows[r][4]]
        for j in range(q + 1):
            offsets = [
                [start[e][y] + (H.face if r < q else H.degen)(q, j, c) for y, H in enumerate(row) for c in range(cards[e][y])]
                for e, row in enumerate(homs)
            ]
            table = index[: len(obs)]
            for p in range(P + 1):
                if p:
                    table = _extend(index, table, firsts[p - 1], ends[p - 1], offsets)
                tables[p].append(table)
        return tables

    def by_column(per_row):
        return [[per_row[q][p] for q in range(Q + 1)] for p in range(P + 1)]

    return BisimplicialSet(
        P, Q, *(by_column([row[t] for row in rows]) for t in range(3)),
        by_column([vertical(q, q - 1) for q in range(Q + 1)]),
        by_column([vertical(q, q + 1) for q in range(Q + 1)]),
        labels=by_column([row[3] for row in rows]), name=name or f"chains({SC.name})",
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


# --- the comparison map and its consistency check ----------------------------


def comparison_cell(SC: SimplicialCategory, label, k: int) -> tuple:
    """Comparison image of one diagonal chain cell, as a coherent-nerve cell.

    On a generator chain of pair (i, j), hop t in (i, j] acts by the
    tuple of largest elements strictly below t of the chain's subsets;
    this is the chain functor (the test oracle `chain_functor` in
    ``tests/test_nerves.py``) after `comparison_functor`, evaluated
    without building either.
    """
    from .comparison import _comparison_cell

    return _comparison_cell(SC, label, k, {})


def comparison_map(SC: SimplicialCategory, L: int) -> SimplicialMap:
    """The map from the classifying space to the coherent nerve.

    Level k sends a chain of k-cells to the coherent-nerve cell whose
    value on a generator chain of pair (i, j) folds, by composition with
    later hops on the left, the action on each hop t in (i, j] of the
    tuple of largest elements strictly below t (see `comparison_cell`).
    A level's cells are folded block by block (`_cells_from_plan`).
    """
    from .comparison import _cells_from_plan, _comparison_plan

    B = classifying_space(SC, L)
    hc = coherent_nerve(SC, L)
    memo: dict = {}
    vals = []
    for k in range(L + 1):
        row = [0] * B.card(k)
        for x, cell in _cells_from_plan(SC, B.labels[k], k, _comparison_plan(k, SC.D), memo):
            row[x] = hc.index_of(k, cell)
        vals.append(row)
    return SimplicialMap(B, hc, values=vals, L=L)


# a check report keeps at most this many witnesses
_WITNESS_CAP = 9


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

    One memo holds the fold tables for (a), (b) and (c), shared by the
    batched fold `_cells_from_plan`, which evaluates (a) level by level,
    and the single-cell `_cell_from_plan`. Every instance of (b) and (c)
    is checked and counted, but each distinct input is evaluated once: a
    boolean verdict is looked up under a key holding exactly what the
    two sides read, so reusing it is exact for any input. The keys of a
    block of at most `_BLOCK` cells are zipped from the block's label
    columns. In (b) the verdicts are kept per (p, q, i), which fixes the
    collapse plan, under the objects at the plan's columns and the
    (source, target, cell) of each hop the plan reads; a vertex chain
    reads no hop and its columns are all i, so the objects include the
    one `hc_constant` reads. In (c) they are kept per m, under (z,
    objects, vertex-i cells): the left side reads only the restricted
    cell z at (m, m), from one `act_table` per (m, n, i), the right side
    only the level-0 restriction, whose hop cells come from one vertex
    table ``act_table(SC.hom(a, b), n, (i,))`` per (a, b, n, i). The report
    keeps nine witnesses, in the order of the instances (per bidegree,
    by cell and then by vertex); ``bounds`` counts every instance.
    """
    from .comparison import (
        _cell_from_plan,
        _cells_from_plan,
        _comparison_cell,
        _label_blocks,
        _theta_plan,
        hc_constant,
        hc_from_level0_chain,
    )

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

    def check_block(block, keys, seen, verdict, witness) -> int:
        # keys[i][pos] is the key of vertex i of cell block[pos]; a key
        # missing from seen[i] is evaluated once, by verdict(i, x, key)
        # on one cell x that has it
        failing = [set() for _ in keys]
        for i, vertex_keys in enumerate(keys):
            for key, x in dict(zip(vertex_keys, block)).items():
                ok = seen[i].get(key)
                if ok is None:
                    ok = seen[i][key] = verdict(i, x, key)
                if not ok:
                    failing[i].add(key)
        if any(failing):
            for pos, x in enumerate(block):
                for i, vertex_keys in enumerate(keys):
                    if vertex_keys[pos] in failing[i]:
                        fail(witness(x, i))
        return len(block) * len(keys)

    for k in range(L + 1):
        plan = _theta_plan(k, k, tuple((t, t) for t in range(k + 1)), SC.D)
        failed = [x for x, cell in _cells_from_plan(SC, B.labels[k], k, plan, memo) if cell != hc.label(k, f.apply(k, x))]
        counts["diagonal"] += B.card(k)
        for x in sorted(failed):
            fail({"reason": "diagonal route", "level": k, "cell": x})
    for p in range(L + 1):
        for q in range(L + 1):
            slices = [_theta_plan(p, q, tuple((i, b) for b in range(q + 1)), SC.D) for i in range(p + 1)]
            seen = [{} for _ in slices]
            labels = X.labels[p][q]

            def verdict(i, x, key):
                # the vertex chain at i starts in column i: key[0] is the object at i
                return _cell_from_plan(SC, labels[x], q, slices[i], memo) == hc_constant(SC, key[0], q)

            for block, objs, cells in _label_blocks(labels):
                keys = [
                    list(zip(*[objs[c] for c in cols], *[col for t in hops for col in (objs[t - 1], objs[t], cells[t - 1])]))
                    for cols, hops, _ in slices
                ]
                counts["vertex_slices"] += check_block(
                    block, keys, seen, verdict, lambda x, i: {"reason": "vertex slice", "bidegree": [p, q], "cell": x, "vertex": i}
                )
    vertex_tables: dict = {}
    for m in range(L + 1):
        col = X.column(m)
        seen = [{}] * (L + 1)  # the key holds all the sides read, so every row and vertex shares one

        def verdict(i, x, key):
            z, ob, cs = key[0], key[1 : m + 2], key[m + 2 :]
            level0 = (ob[0], tuple((ob[t], ob[t + 1], (ob[t], ob[t + 1], c)) for t, c in enumerate(cs)))
            return _comparison_cell(SC, X.label(m, m, z), m, memo) == hc_from_level0_chain(SC, level0, m)

        for n in range(L + 1):
            restrictions = [act_table(col, n, (i,) * (m + 1)) for i in range(n + 1)]
            for block, objs, cells in _label_blocks(X.labels[m][n]):
                pairs = [list(zip(objs[t], objs[t + 1])) for t in range(m)]
                keys = []
                for i, restriction in enumerate(restrictions):
                    tables = vertex_tables.setdefault((n, i), {})
                    vertex_cells = []
                    for hop, hop_cells in zip(pairs, cells):
                        for a, b in set(hop) - tables.keys():
                            tables[a, b] = act_table(SC.hom(a, b), n, (i,))
                        vertex_cells.append([tables[ab][c] for ab, c in zip(hop, hop_cells)])
                    keys.append(list(zip(restriction[block.start : block.stop], *objs, *vertex_cells)))
                counts["row_restrictions"] += check_block(
                    block, keys, seen, verdict, lambda x, i: {"reason": "row restriction", "bidegree": [m, n], "cell": x, "vertex": i}
                )
    check.bounds.update(counts)
    return check
