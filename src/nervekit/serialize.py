"""JSON encoding with canonical bytes and content digests.

Three document kinds, distinguished by their top-level keys:

* simplicial set, ``{"dim", "cells", "face", "degen"}``: level sizes
  plus the operator tables indexed ``face[n][i][x]`` (empty row list
  at n = 0) and ``degen[n][i][x]`` (empty at n = dim);
* simplicial category, ``{"objects", "hom", "comp", "id"}``: homs keyed
  by "a,b" as nested simplicial-set documents, composition as
  level-indexed tables over pair indices ``g * hom(a,b).card(n) + f``
  (one per composable pair of nonempty homs, keyed "a,b,c"; they are
  the tables `SimplicialCategory.comps` holds in memory), identity
  vertices keyed by object; a relative category adds
  ``{"sub": {"a,b": [[level, cell], ...]}}``;
* bisimplicial set, ``{"dims", "cells", "hface", "hdegen", "vface",
  "vdegen"}`` with tables indexed ``[p][q][i][x]``, plus an optional
  ``{"marked": [[1, q, cell], ...]}`` for a marked one.

This module writes documents: `to_json`, `save`, `canonical_json` and
`digest`. The readers (`load`, `from_json` and one per kind), which
validate what they read, live in `nervekit.schema`, loaded on first
use. Canonical bytes are sorted-key JSON with minimal separators and
one trailing newline, so identical values round-trip bit-exactly and
`digest` is stable.

Cell labels are not serialized; every construction downstream of a
loaded object works from indices and operator tables alone.
"""

from __future__ import annotations

import hashlib
import json

from .bisset import BisimplicialSet, MarkedBisimplicialSet
from .cat import RelativeSimplicialCategory, SimplicialCategory

__all__ = [
    "SchemaError",
    "bisset_to_json",
    "canonical_json",
    "cat_to_json",
    "digest",
    "save",
    "sset_to_json",
]


class SchemaError(Exception):
    """The document does not have the shape the schema demands."""


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


# -- simplicial sets ---------------------------------------------------------


def sset_to_json(X) -> dict:
    D = X.D
    return {
        "dim": D,
        "cells": [X.card(n) for n in range(D + 1)],
        "face": [
            [[X.face(n, i, x) for x in range(X.card(n))] for i in range(n + 1)] if n else []
            for n in range(D + 1)
        ],
        "degen": [
            [[X.degen(n, i, x) for x in range(X.card(n))] for i in range(n + 1)] if n < D else []
            for n in range(D + 1)
        ],
    }


# -- simplicial categories ---------------------------------------------------


def _okey(*objs) -> str:
    parts = [str(o) for o in objs]
    if any("," in p for p in parts):
        raise SchemaError("object names must not contain commas")
    return ",".join(parts)


def _obj_lookup(objects) -> dict:
    by_name = {str(o): o for o in objects}
    if len(by_name) != len(objects):
        raise SchemaError("object names collide after stringification")
    return by_name


def cat_to_json(SC: SimplicialCategory) -> dict:
    _obj_lookup(SC.objects)
    return {
        "objects": list(SC.objects),
        "hom": {_okey(a, b): sset_to_json(H) for (a, b), H in SC.homs.items()},
        "comp": {_okey(a, b, c): [list(t) for t in tables] for (a, b, c), tables in SC.comps.items()},
        "id": {str(a): SC.ids[a] for a in SC.objects},
    }


def relative_to_json(R: RelativeSimplicialCategory) -> dict:
    doc = cat_to_json(R.cat)
    doc["sub"] = {
        _okey(a, b): [
            [n, x] for n in range(R.cat.D + 1) for x in sorted(R.sub_cells(a, b, n))
        ]
        for (a, b) in sorted(R.sub.keys(), key=lambda p: (str(p[0]), str(p[1])))
    }
    return doc


# -- bisimplicial sets -------------------------------------------------------


def _bisset_families(P: int, Q: int) -> tuple:
    """The four operator families of a (P, Q)-truncated bisimplicial set.

    Each is (key, rows, dp, dq): its table at (p, q) holds ``rows(p, q)``
    rows, one per operator index and none at the edge the family leaves,
    and its entries are cells at (p + dp, q + dq).
    """
    return (
        ("hface", lambda p, q: p + 1 if p else 0, -1, 0),
        ("hdegen", lambda p, q: p + 1 if p < P else 0, 1, 0),
        ("vface", lambda p, q: q + 1 if q else 0, 0, -1),
        ("vdegen", lambda p, q: q + 1 if q < Q else 0, 0, 1),
    )


def bisset_to_json(B) -> dict:
    marked = None
    if isinstance(B, MarkedBisimplicialSet):
        marked = sorted(B.marked)
        B = B.space
    P, Q = B.P, B.Q

    def grid(op, rows):
        return [
            [[[op(p, q, i, x) for x in range(B.card(p, q))] for i in range(rows(p, q))] for q in range(Q + 1)]
            for p in range(P + 1)
        ]

    doc = {"dims": [P, Q], "cells": [[B.card(p, q) for q in range(Q + 1)] for p in range(P + 1)]}
    for key, rows, _, _ in _bisset_families(P, Q):
        doc[key] = grid(getattr(B, key), rows)
    if marked is not None:
        doc["marked"] = [[1, q, x] for (q, x) in marked]
    return doc


# -- files -------------------------------------------------------------------


def to_json(value) -> dict:
    """Schema document for any serializable value, dispatched on type."""
    if isinstance(value, RelativeSimplicialCategory):
        return relative_to_json(value)
    if isinstance(value, SimplicialCategory):
        return cat_to_json(value)
    if isinstance(value, (BisimplicialSet, MarkedBisimplicialSet)):
        return bisset_to_json(value)
    if hasattr(value, "face") and hasattr(value, "degen"):
        return sset_to_json(value)
    raise SchemaError(f"no schema for {type(value).__name__}")


def save(path, value) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(to_json(value)))

