"""Whole-table views of a truncated bisimplicial set: its four operator
families, its schema document, a row, and the transpose.

`_bisset_families` names the families every reader, writer and
validator of a bisimplicial set walks; `bisset_to_json` writes the
schema document of a plain or marked one (see `nervekit.serialize`);
`_row` and `_transpose` are the bodies of `BisimplicialSet.row` and
`BisimplicialSet.transpose`. No gated verb reads a bisimplicial set
whole, so this module loads on first use and `compare` never compiles
it.
"""

from __future__ import annotations

from .bisimplicial import BisimplicialSet
from .sset import SimplicialSet, _families


def _bisset_families(P: int, Q: int) -> tuple:
    """The four operator families of a (P, Q)-truncated bisimplicial set,
    `sset._families` on each axis, horizontal first.

    Each is (key, symbol, rows, dp, dq): its table at (p, q) holds
    ``rows(p, q)`` rows, one per operator index, and its entries are
    cells at (p + dp, q + dq).
    """
    return tuple(
        ("h" + kind, symbol + "^h", lambda p, q, rows=rows: rows(p), step, 0) for kind, symbol, rows, step in _families(P)
    ) + tuple(
        ("v" + kind, symbol + "^v", lambda p, q, rows=rows: rows(q), 0, step) for kind, symbol, rows, step in _families(Q)
    )


def bisset_to_json(B) -> dict:
    marked = None
    if not hasattr(B, "hface"):  # a marked bisimplicial set
        marked = sorted(B.marked)
        B = B.space
    P, Q = B.P, B.Q

    def grid(op, rows):
        return [
            [[[op(p, q, i, x) for x in range(B.card(p, q))] for i in range(rows(p, q))] for q in range(Q + 1)]
            for p in range(P + 1)
        ]

    doc = {"dims": [P, Q], "cells": [[B.card(p, q) for q in range(Q + 1)] for p in range(P + 1)]}
    for key, _, rows, _, _ in _bisset_families(P, Q):
        doc[key] = grid(getattr(B, key), rows)
    if marked is not None:
        doc["marked"] = [[1, q, x] for (q, x) in marked]
    return doc


def _row(B: BisimplicialSet, q: int) -> SimplicialSet:
    # the body of `BisimplicialSet.row`
    cards = [B.cards[p][q] for p in range(B.P + 1)]
    faces = [B.hfaces[p][q] for p in range(B.P + 1)]
    degens = [B.hdegens[p][q] if p < B.P else [] for p in range(B.P + 1)]
    labels = None
    if B.labels is not None:
        labels = [B.labels[p][q] for p in range(B.P + 1)]
    return SimplicialSet(B.P, cards, faces, degens, labels=labels, name=f"{B.name}[row {q}]")


def _transpose(B: BisimplicialSet) -> BisimplicialSet:
    # the body of `BisimplicialSet.transpose`: new (p, q) reads the old
    # (q, p), so rows become columns
    flip = lambda tbl: [
        [tbl[b][a] for b in range(B.P + 1)] for a in range(B.Q + 1)
    ]
    labels = None if B.labels is None else flip(B.labels)
    return BisimplicialSet(
        B.Q,
        B.P,
        flip(B.cards),
        flip(B.vfaces),
        flip(B.vdegens),
        flip(B.hfaces),
        flip(B.hdegens),
        labels=labels,
        name=f"transpose({B.name})",
    )
