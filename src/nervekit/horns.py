"""Standard simplices, horns, and the bodies of `sset.enumerate_maps`
and `verify.horn_check`, loaded on first use (never by `compare`).
`_horn_check` enumerates horn maps through the traced
`sset.enumerate_maps`, bound when this module loads."""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

from .reporting import CheckReport
from .sset import SimplicialMap, SimplicialSet, TruncationError, act_table, chain_index_nerve, enumerate_maps


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


@lru_cache(maxsize=None)
def horn(n: int, k: int, D: Optional[int] = None) -> SimplicialSet:
    """The (n, k)-horn: cells whose vertices miss some value other than k.

    At D = n - 1 (the default), every cell of Δⁿ but the face d_k. Its
    tables gather the rows of Δⁿ on those cells, renumbered.
    The result is cached and must be treated as immutable.
    """
    if not 0 <= k <= n:
        raise ValueError("horn index out of range")
    if D is None:
        D = max(n - 1, 0)
    Delta = standard_simplex(n, D)
    old = [[x for x, v in enumerate(labels) if len({k, *v}) <= n] for labels in Delta.labels]
    new = [dict(zip(cells, range(len(cells)))).__getitem__ for cells in old]
    faces, degens = (
        [[list(map(new[m + step], map(row.__getitem__, old[m]))) for row in tables[m]] for m in range(D + 1)]
        for tables, step in ((Delta.faces, -1), (Delta.degens, 1))
    )
    labels = [[Delta.labels[m][x] for x in cells] for m, cells in enumerate(old)]
    return SimplicialSet(D, list(map(len, old)), faces, degens, labels=labels, name=f"horn({n},{k})")


def _enumerate_maps(A, X) -> list[SimplicialMap]:
    # the body of `sset.enumerate_maps`
    if X.D < A.D:
        raise TruncationError("target truncated below source")
    D = A.D
    # cell (n, x) of A is slot base[n] + x, in level-major order
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
            moves.append((s, sets, checks))
    # a map stores the cells the search assigned, in slot order, and reads
    # the others through `spaces._map_reads`, built on its first read
    stored = [s for s, b in enumerate(owner) if b >= 0]
    pack = itemgetter(*stored) if len(stored) > 1 else lambda v: tuple(v[i] for i in stored)

    @lru_cache(maxsize=None)
    def reads():
        from .spaces import _map_reads

        return _map_reads(base, stored, witness, degen_table)

    vals = [0] * base[D + 1]
    out = []
    B = len(moves)
    if B == 0:
        out.append(pack(vals))
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
            s, sets, checks = moves[b]
            vals[s] = c[j]
            for w, T, u in sets:
                vals[w] = T[vals[u]]
            for w, T, u in checks:
                if vals[w] != T[vals[u]]:
                    break
            else:
                if b + 1 == B:
                    out.append(pack(vals))
                    continue
                b += 1
                get, lookup = finders[b]
                cands[b] = lookup if get is None else lookup.get(get(vals), ())
                pos[b] = 0
    # unstored cells repeat earlier ones: packed and full vectors sort alike
    out.sort()
    shape = (A, X, D, reads)
    return [_PackedMap(shape, vec) for vec in out]


class _PackedMap(SimplicialMap):
    # a found map as its packed vector; `apply`, and so `key`, reads
    # each cell through the search's read list
    values = fn = None

    def __init__(self, shape, packed):
        self.source, self.target, self.L, self.reads = shape
        self.packed = packed

    def apply(self, n, x):
        if n > self.L:
            raise TruncationError(f"map not defined at level {n}")
        p, steps = self.reads()[n][x]
        v = self.packed[p]
        for T in steps:
            v = T[v]
        return v


def _lab(X, n: int, x: int):
    lab = X.label(n, x)
    return x if lab is None else lab


def _horn_check(X, n: int, k: int, max_witnesses: int) -> CheckReport:
    # the body of `verify.horn_check`
    if not 1 <= n <= X.D:
        raise TruncationError(f"horn extension at level {n} needs truncation >= {n}, have {X.D}")
    H = horn(n, k)
    faces = [tuple(i for i in range(n + 1) if i != j) for j in range(n + 1) if j != k]
    restrictions = set(zip(*(act_table(X, n, f) for f in faces)))
    # a map stores the horn's nondegenerate cells, level-major, ending
    # with its top faces in reverse order
    nd = [(m, c) for m in range(n) for c in H.nondegenerate_cells(m)]
    maps = enumerate_maps(H, X)
    witnesses = []
    unfillable = 0
    for h in maps:
        if h.packed[: -n - 1 : -1] not in restrictions:
            unfillable += 1
            if len(witnesses) < max_witnesses:
                witnesses.append({"assignment": [(H.label(m, c), _lab(X, m, v)) for (m, c), v in zip(nd, h.packed)]})
    return CheckReport(
        check=f"horn({n},{k}) extension in {X.name or 'sset'}",
        verdict="pass" if unfillable == 0 else "fail",
        witnesses=witnesses,
        bounds={"n": n, "k": k, "horn_maps": len(maps), "unfillable": unfillable},
    )
