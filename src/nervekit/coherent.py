"""The coherent nerve, the comparison map into it, and the check of the
comparison routes: the bodies of `nerves.coherent_nerve`,
`nerves.comparison_map` and `nerves.consistency_check`.

`_hc_level` enumerates the cells of one coherent-nerve level, and
everything here reads cells through the cell formulas, plans and folds
of `nervekit.comparison`, looked up there when called. The traced entry
points of `nervekit.nerves` these bodies call are bound when this
module loads, so a traced run sees them nested as the calls are.
`nervekit.nerves` imports this module when one of its entry points is
first called.
"""

from __future__ import annotations

import itertools

from . import comparison
from .cat import SimplicialCategory
from .nerves import classifying_space, coherent_nerve, levelwise_nerve
from .reporting import CheckReport
from .sset import SimplicialMap, SimplicialSet, TruncationError, _families, _vertex_map, act_table


def _hc_level(SC: SimplicialCategory, n: int) -> list[tuple]:
    """Every coherent-nerve n-cell, as the tuple (objects, values).

    Per object tuple, a search assigns the cell's own values, the slots
    of `comparison._generator_slots` (the nondegenerate generator
    chains): pair by span, and in a pair by colex order of the chain's
    subsets, so each chain comes right after its faces. A chain at level
    0 takes any vertex of its hom. A chain at level m > 0 takes, in
    ascending order, every cell of the hom's face index under its faces'
    values: faces r > 0 are slots of the same pair, and face 0 folds the
    values (`comparison._cell_value`, which also gives a degenerate
    chain's value) of the hops of its bottom subset, later hops on the
    left. Each object tuple's cells are then sorted by their values read
    pair by span, then level and chain, so a cell's index does not
    depend on the search order.
    The search runs on an explicit stack, as `sset.enumerate_maps` does,
    so its depth, one step per slot, is not bounded by Python's
    recursion limit; ``tests/test_nerves.py`` keeps the recursive search
    as the oracle.
    """
    if n == 0:
        return [((x,), ()) for x in SC.objects]
    slots, position = comparison._generator_slots(n, SC.D)
    pairs = [(i, j) for i, j, m, _ in slots if m == 0]
    by_span = sorted(range(len(slots)), key=lambda s: slots[s][1] - slots[s][0])
    # per step, (slot, i, j, m, rule): at level m > 0, rule holds the hops
    # of face 0 and the slots of faces r > 0
    steps = []
    for s in sorted(range(len(slots)), key=lambda s: _search_key(*slots[s])):
        i, j, m, c = slots[s]
        rule = None
        if m:
            bottom = c[1]
            rule = (
                [(a, b, tuple(tuple(v for v in S if a <= v <= b) for S in c[1:])) for a, b in zip(bottom, bottom[1:])],
                [position[(i, j, c[:r] + c[r + 1 :])] for r in range(1, m + 1)],
            )
        steps.append((s, i, j, m, rule))
    results: list[tuple] = []
    for objs in itertools.product(SC.objects, repeat=n + 1):
        if any(SC.hom(objs[i], objs[j]).card(0) == 0 for i, j in pairs):
            continue
        values = [0] * len(slots)

        def candidates(b):
            # the values step b may take, given those of the steps before it
            _, i, j, m, rule = steps[b]
            H = SC.hom(objs[i], objs[j])
            if m == 0:
                return range(H.card(0))
            hops, faces = rule
            acc = None
            for lo, hi, chain in hops:
                w = comparison._cell_value(SC, (objs, values), lo, hi, m - 1, chain)
                acc = w if acc is None else SC.compose(objs[i], objs[lo], objs[hi], m - 1, w, acc)
            return H.face_index(m).get((acc, *[values[f] for f in faces]), ())

        found = []
        cands = [candidates(0)] + [()] * (len(steps) - 1)
        pos = [0] * len(steps)
        b = 0
        while b >= 0:
            if pos[b] == len(cands[b]):
                b -= 1
                continue
            values[steps[b][0]] = cands[b][pos[b]]
            pos[b] += 1
            if b + 1 == len(steps):
                found.append((objs, tuple(values)))
                continue
            b += 1
            cands[b] = candidates(b)
            pos[b] = 0
        results += sorted(found, key=lambda cell: [cell[1][s] for s in by_span])
    return results


def _search_key(i: int, j: int, m: int, chain) -> tuple:
    # colex order of a chain's subsets, each subset ordered as in
    # `posets.path_poset`: a chain comes after every chain it contains
    return j - i, i, [(len(S), S) for S in reversed(chain)]


# --- the coherent nerve, the comparison map and its consistency check -------


def _coherent_nerve(SC: SimplicialCategory, L: int, name: str) -> SimplicialSet:
    # the body of `nerves.coherent_nerve`
    if L > SC.D + 1:
        raise TruncationError(f"level {L} cells need hom level {L - 1}, truncation is {SC.D}")
    levels = [_hc_level(SC, n) for n in range(L + 1)]
    index = [{cell: x for x, cell in enumerate(lvl)} for lvl in levels]
    faces, degens = (
        [
            [
                [index[n + step][comparison._precompose_vertex_map(SC, cell, _vertex_map(n, i, step))] for cell in levels[n]]
                for i in range(rows(n))
            ]
            for n in range(L + 1)
        ]
        for _, _, rows, step in _families(L)
    )
    return SimplicialSet(
        L, [len(lvl) for lvl in levels], faces, degens, labels=levels, name=name or f"hc({SC.name})"
    )


def _comparison_map(SC: SimplicialCategory, L: int) -> SimplicialMap:
    """The body of `nerves.comparison_map`: a level's cells are folded
    block by block (`_cells_from_plan`)."""
    B = classifying_space(SC, L)
    hc = coherent_nerve(SC, L)
    memo: dict = {}
    vals = []
    for k in range(L + 1):
        row = [0] * B.card(k)
        for x, cell in comparison._cells_from_plan(SC, B.labels[k], k, comparison._comparison_plan(k, SC.D), memo):
            row[x] = hc.index_of(k, cell)
        vals.append(row)
    return SimplicialMap(B, hc, values=vals, L=L)


# a check report keeps at most this many witnesses
_WITNESS_CAP = 9


def _consistency_check(SC: SimplicialCategory, f: SimplicialMap) -> CheckReport:
    """The body of `nerves.consistency_check`.

    One memo holds the fold tables for (a), (b) and (c), shared by the
    batched fold `_cells_from_plan`, which evaluates (a) level by level,
    and the single-cell `_cell_from_plan`. Every instance of (b) and (c)
    is checked and counted, but each distinct input is evaluated once: a
    boolean verdict is looked up under a key holding exactly what the
    two sides read, so reusing it is exact for any input. The keys of a
    block of at most `_BLOCK` cells are zipped from the block's label
    columns. In (b) the verdicts are kept per (p, q, i), which fixes the
    collapse plan, under the object at vertex i: a vertex chain stays in
    column i, so its plan reads no hop and both sides read only that
    object. In (c) they are kept per m, under (z, objects, vertex-i
    cells): the left side reads only the restricted cell z at (m, m),
    from one `act_table` per (m, n, i), the right side only the level-0
    restriction, whose hop cells come from one vertex table
    ``act_table(SC.hom(a, b), n, (i,))`` per (a, b, n, i).
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
        plan = comparison._theta_plan(k, k, tuple((t, t) for t in range(k + 1)), SC.D)
        failed = [x for x, cell in comparison._cells_from_plan(SC, B.labels[k], k, plan, memo) if cell != hc.label(k, f.apply(k, x))]
        counts["diagonal"] += B.card(k)
        for x in sorted(failed):
            fail({"reason": "diagonal route", "level": k, "cell": x})
    for p in range(L + 1):
        for q in range(L + 1):
            slices = [comparison._theta_plan(p, q, tuple((i, b) for b in range(q + 1)), SC.D) for i in range(p + 1)]
            seen = [{} for _ in slices]
            labels = X.labels[p][q]

            def verdict(i, x, key):
                # key is the object at vertex i
                return comparison._cell_from_plan(SC, labels[x], q, slices[i], memo) == comparison.hc_constant(SC, key, q)

            for block, objs, _ in comparison._label_blocks(labels):
                counts["vertex_slices"] += check_block(
                    block, objs, seen, verdict, lambda x, i: {"reason": "vertex slice", "bidegree": [p, q], "cell": x, "vertex": i}
                )
    vertex_tables: dict = {}
    for m in range(L + 1):
        col = X.column(m)
        seen = [{}] * (L + 1)  # the key holds all the sides read, so every row and vertex shares one

        def verdict(i, x, key):
            level0 = key[1 : m + 2], key[m + 2 :]
            return comparison._comparison_cell(SC, X.label(m, m, key[0]), m, memo) == comparison.hc_from_level0_chain(SC, level0, m)

        for n in range(L + 1):
            restrictions = [act_table(col, n, (i,) * (m + 1)) for i in range(n + 1)]
            for block, objs, cells in comparison._label_blocks(X.labels[m][n]):
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
