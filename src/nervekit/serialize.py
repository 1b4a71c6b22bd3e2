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
`digest`. Canonical bytes are sorted-key JSON with minimal separators
and one trailing newline, so identical values round-trip bit-exactly
and `digest` is stable. ``import nervekit`` loads it: every verb
digests its input, and a traced benchmark run wraps `to_json` and
`digest` here (``bench/trace_child.py`` ``TRACED``). The bisimplicial
writer, `bisset_to_json`, lives in `nervekit.bitables`; the
readers, which validate what they read, live in `nervekit.schema`.

Cell labels are not serialized; every construction downstream of a
loaded object works from indices and operator tables alone.
"""

from __future__ import annotations

import hashlib
import json

from .cat import RelativeSimplicialCategory, SimplicialCategory
from .sset import _families

__all__ = [
    "SchemaError",
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
    doc = {"dim": D, "cells": [X.card(n) for n in range(D + 1)]}
    for kind, _, rows, _ in _families(D):
        op = getattr(X, kind)
        doc[kind] = [[[op(n, i, x) for x in range(X.card(n))] for i in range(rows(n))] for n in range(D + 1)]
    return doc


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


# -- files -------------------------------------------------------------------


def to_json(value) -> dict:
    """Schema document for any serializable value, dispatched on type."""
    if isinstance(value, RelativeSimplicialCategory):
        return relative_to_json(value)
    if isinstance(value, SimplicialCategory):
        return cat_to_json(value)
    if hasattr(value, "hface") or hasattr(getattr(value, "space", None), "hface"):
        # a bisimplicial set, or a marked one
        from .bitables import bisset_to_json

        return bisset_to_json(value)
    if hasattr(value, "face") and hasattr(value, "degen"):
        return sset_to_json(value)
    raise SchemaError(f"no schema for {type(value).__name__}")


def save(path, value) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(to_json(value)))
