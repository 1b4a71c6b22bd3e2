"""A fixed, standard-library-only computation that times the host's speed.

    python3 bench/reference.py

``run.py`` runs it as a child process before and after every sample and
divides the sample's times by the mean of its times, so that a slower or
faster host moves both alike and mostly cancels in the quotient. It shares
nothing with nervekit, so no change to the program can move it. Its work resembles the program's: tuples and
frozensets built by ``itertools.product``, dictionary lookups, sorting and
set elimination over GF(2). It prints nothing.
"""

from __future__ import annotations

import itertools


def cells(m: int = 3, top: int = 9) -> dict:
    """Group the words over Z/m of length up to ``top`` by their letter set."""
    out: dict = {}
    for n in range(1, top + 1):
        for word in itertools.product(range(m), repeat=n):
            out.setdefault(tuple(sorted(set(word))), []).append(frozenset(enumerate(word)))
    return out


def matrix(n: int, seed: int = 1) -> list:
    """A fixed n×n matrix over GF(2), each row the set of its nonzero columns."""
    x, rows = seed, []
    for _ in range(n):
        row = set()
        for j in range(n):
            x = (x * 1103515245 + 12345) % 2**31
            if x >> 30:
                row.add(j)
        rows.append(row)
    return rows


def eliminate(rows: list) -> int:
    """Rank over GF(2) of rows given as sets of column indices."""
    pivots: dict = {}
    for row in rows:
        row = set(row)
        while row:
            p = max(row)
            if p not in pivots:
                pivots[p] = row
                break
            row ^= pivots[p]
    return len(pivots)


def main() -> int:
    return len(cells()) + eliminate(matrix(200))


if __name__ == "__main__":
    main()
