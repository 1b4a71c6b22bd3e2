"""Standard simplices, subcomplexes, horns, and the bodies of
`sset.enumerate_maps` and `verify.horn_check`, loaded on first use
(never by `compare`). `_horn_check` enumerates horn maps through the
traced `sset.enumerate_maps`, bound when this module loads."""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Optional, Sequence

from .reporting import CheckReport
from .sset import SimplicialMap, SimplicialSet, TruncationError, _families, act_table, chain_index_nerve, enumerate_maps


def _chain_nerve(order, names: Sequence, D: int) -> SimplicialSet:
    # order[a][b] is true when a <= b, counting the one morphism a -> b,
    # so an n-chain is its n + 1 elements; its label is their names
    counts, faces, degens, ends, _ = chain_index_nerve(order, lambda a, b, c: [0], [0] * len(order), D)
    above = [[y for y, le in zip(names, row) if le] for row in order]
    labels = [[(y,) for y in names]]
    for n in range(D):
        labels.append([c + (y,) for c, e in zip(labels[n], ends[n]) for y in above[e]])
    return SimplicialSet(D, counts, faces, degens, labels=labels)


@lru_cache(maxsize=None)
def standard_simplex(n: int, D: int) -> SimplicialSet:
    """The n-simplex truncated at level D.

    Cells at level k are the weakly increasing (k+1)-tuples with values
    in 0..n, in lexicographic order; the label of a cell is that tuple.
    The result is cached and must be treated as immutable.
    """
    X = _chain_nerve([[a <= b for b in range(n + 1)] for a in range(n + 1)], range(n + 1), D)
    X.name = f"simplex({n})"
    return X


def subcomplex(X: SimplicialSet, seeds) -> tuple[SimplicialSet, SimplicialMap]:
    """Smallest subobject containing the seed cells, with its inclusion.

    ``seeds`` is an iterable of (level, cell). Closure takes two passes
    over the levels: faces downward from the top, then degeneracies
    upward from level 0 (a face of a degeneracy of x is x or a
    degeneracy of a face of x). The tables gather the rows of X.
    """
    keep: list[set[int]] = [set() for _ in range(X.D + 1)]
    for n, x in seeds:
        keep[int(n)].add(int(x))
    families = [(getattr(X, kind + "s"), rows, step) for kind, _, rows, step in _families(X.D)]
    for tables, rows, step in families:
        for n in range(X.D + 1)[::step]:
            for i in range(rows(n)):
                keep[n + step].update(map(tables[n][i].__getitem__, keep[n]))
    old = [sorted(cells) for cells in keep]
    new = [dict(zip(cells, range(len(cells)))).__getitem__ for cells in old]

    def gather(rows, renumber, cells):
        return [list(map(renumber, map(row.__getitem__, cells))) for row in rows]

    top = X.D
    faces, degens = (
        [gather(tables[n], new[n + step], old[n]) if rows(n) else [] for n in range(top + 1)] for tables, rows, step in families
    )
    labels = None if X.labels is None else [list(map(X.labels[n].__getitem__, old[n])) for n in range(top + 1)]
    S = SimplicialSet(top, list(map(len, old)), faces, degens, labels=labels, name=f"sub({X.name})")
    return S, SimplicialMap(S, X, values=old)


@lru_cache(maxsize=None)
def horn(n: int, k: int, D: Optional[int] = None) -> SimplicialSet:
    """The (n, k)-horn: cells whose vertices miss some value other than k.

    It is the subcomplex of Δⁿ seeded by its cells at level n - 1 (or D
    if lower) but the face d_k, the one whose vertices are all but k.
    The result is cached and must be treated as immutable.
    """
    if not 0 <= k <= n:
        raise ValueError("horn index out of range")
    if D is None:
        D = max(n - 1, 0)
    Delta = standard_simplex(n, D)
    seeds = []
    if n:
        top = min(n - 1, D)
        seeds = [(top, x) for x in range(Delta.card(top))]
        if top == n - 1:
            seeds.remove((top, Delta.index_of(top, tuple(j for j in range(n + 1) if j != k))))
    S, _ = subcomplex(Delta, seeds)
    S.name = f"horn({n},{k})"
    return S


def _enumerate_maps(A, X) -> list[SimplicialMap]:
    # the body of `sset.enumerate_maps`
    if X.D < A.D:
        raise TruncationError("target truncated below source")
    D = A.D
    # cell (n, x) of A is slot base[n] + x of one flat value vector, so
    # the vectors sort in the order of their level-major tables
    base = [0] * (D + 2)
    for n in range(D + 1):
        base[n + 1] = base[n] + A.card(n)
    # a degenerate cell x = s_i(y) has the witness (n, i, y) of least i
    witness = {}
    for n in range(D):
        for i in range(n + 1):
            for y, x in enumerate(map(A.degen_map(n, i), range(A.card(n)))):
                witness.setdefault(base[n + 1] + x, (n, i, y))
    tables = {}

    def degen_table(m, i):
        # s_i on level m of X, read once per search
        if (m, i) not in tables:
            tables[m, i] = [X.degen(m, i, v) for v in range(X.card(m))]
        return tables[m, i]

    def faces_of(m, u):
        # the slots of the faces of the cell in slot u at level m
        return [base[m - 1] + A.face(m, i, u - base[m]) for i in range(m + 1)]

    # Top down, a nondegenerate cell no branch reached is a branch cell.
    # Its value v forces its face closure level by level: the face at a
    # word with injection J into the cell is J(v) in X, set if unassigned
    # and else checked, unless J misses a position in P (the assigned
    # faces that keyed the candidates) or was met before. An assigned
    # face is not descended: its faces hold its value's faces.
    owner = [-1] * base[D + 1]  # the step assigning each slot
    moves, finders, rows = [], [], {}
    for n in range(D, -1, -1):
        for s in range(base[n], base[n + 1]):
            if s in witness or owner[s] >= 0:
                continue
            faces = faces_of(n, s) if n else []
            P = [i for i, w in enumerate(faces) if owner[w] >= 0]
            get = itemgetter(*(faces[i] for i in P)) if P else None
            finders.append((get, X.face_index(n, P) if P else range(X.card(n))))
            owner[s] = b = len(moves)
            sets, checks = [], []
            level = {tuple(range(n + 1)): s}
            for m in range(n, 0, -1):
                if m not in rows:
                    rows[m] = X.faces[m] if isinstance(X, SimplicialSet) else [
                        list(map(X.face_map(m, j), range(X.card(m)))) for j in range(m + 1)
                    ]
                T = rows[m]
                seen, below = set(), {}
                for I, u in level.items():
                    for j, w in enumerate(faces_of(m, u)):
                        J = I[:j] + I[j + 1 :]
                        if J in seen or not all(i in J for i in P):
                            continue
                        seen.add(J)
                        if owner[w] >= 0:
                            checks.append((w, T[j], u))
                            continue
                        owner[w] = b
                        sets.append((w, T[j], u))
                        below[J] = w
                        if w in witness:
                            k, i, y = witness[w]
                            checks.append((w, degen_table(k, i), base[k] + y))
                level = below
            moves.append((s, sets, checks, []))
    # the rest are degenerate, each filled from its witness (assigned or
    # filled before it here, one level down) when the step owning that passes
    for s, (m, i, y) in witness.items():
        if owner[s] < 0:
            owner[s] = owner[base[m] + y]
            moves[owner[s]][3].append((s, degen_table(m, i), base[m] + y))

    vals = [0] * base[D + 1]
    out = []
    B = len(moves)
    if B == 0:
        out.append(vals[:])
    else:
        cands = [finders[0][1]] * B
        pos = [0] * B
        b = 0
        while b >= 0:
            j = pos[b]
            c = cands[b]
            if j == len(c):
                b -= 1
                continue
            pos[b] = j + 1
            s, sets, checks, fills = moves[b]
            vals[s] = c[j]
            for w, T, u in sets:
                vals[w] = T[vals[u]]
            for w, T, u in checks:
                if vals[w] != T[vals[u]]:
                    break
            else:
                for w, T, u in fills:
                    vals[w] = T[vals[u]]
                if b + 1 == B:
                    out.append(vals[:])
                    continue
                b += 1
                get, lookup = finders[b]
                cands[b] = lookup if get is None else lookup.get(get(vals), ())
                pos[b] = 0
    out.sort()
    shape = (A, X, D, [slice(base[n], base[n + 1]) for n in range(D + 1)])
    return [_PackedMap(shape, vec) for vec in out]


class _PackedMap(SimplicialMap):
    # a found map as its flat value vector, which `key` reads; `values`
    # is cut from it on first read
    fn = None

    def __init__(self, shape, vector):
        self.source, self.target, self.L, self.levels = shape
        self.vector = vector

    values = cached_property(lambda self: list(map(self.vector.__getitem__, self.levels)))

    def key(self):
        return tuple(tuple(self.vector[s]) for s in self.levels)


def _lab(X, n: int, x: int):
    lab = X.label(n, x)
    return x if lab is None else lab


def _horn_check(X, n: int, k: int, max_witnesses: int) -> CheckReport:
    # the body of `verify.horn_check`
    if not 1 <= n <= X.D:
        raise TruncationError(f"horn extension at level {n} needs truncation >= {n}, have {X.D}")
    H = horn(n, k)
    faces = [tuple(i for i in range(n + 1) if i != j) for j in range(n + 1) if j != k]
    cols = [act_table(X, n, f) for f in faces]
    # one top cell (n = 1) reads as a value, several as a tuple
    restrictions = set(zip(*cols) if len(cols) > 1 else cols[0])
    base = sum(map(H.card, range(n - 1)))
    read = itemgetter(*(base + H.index_of(n - 1, f) for f in faces))
    maps = enumerate_maps(H, X)
    nd = None  # the horn's nondegenerate cells, listed at the first witness
    witnesses = []
    unfillable = 0
    for h in maps:
        if read(h.vector) not in restrictions:
            unfillable += 1
            if len(witnesses) < max_witnesses:
                if nd is None:
                    nd = [(m, c) for m in range(H.D + 1) for c in H.nondegenerate_cells(m)]
                witnesses.append({"assignment": [(H.label(m, c), _lab(X, m, h.apply(m, c))) for m, c in nd]})
    return CheckReport(
        check=f"horn({n},{k}) extension in {X.name or 'sset'}",
        verdict="pass" if unfillable == 0 else "fail",
        witnesses=witnesses,
        bounds={"n": n, "k": k, "horn_maps": len(maps), "unfillable": unfillable},
    )
