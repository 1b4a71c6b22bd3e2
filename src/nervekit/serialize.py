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

Loading validates structure first (`SchemaError`) and then the full
simplicial/categorical identities, refusing any document that fails
them with the witnessing cell named (`ValueError`). Canonical bytes
are sorted-key JSON with minimal separators and one trailing newline,
so identical values round-trip bit-exactly and `digest` is stable.

Cell labels are not serialized; every construction downstream of a
loaded object works from indices and operator tables alone.
"""

from __future__ import annotations

import hashlib
import json

from .bisset import BisimplicialSet, MarkedBisimplicialSet, validate_bisset
from .cat import (
    RelativeSimplicialCategory,
    SimplicialCategory,
    validate_relative,
    validate_simplicial_category,
)
from .sset import SimplicialSet, validate_sset

__all__ = [
    "SchemaError",
    "bisset_from_json",
    "bisset_to_json",
    "canonical_json",
    "cat_from_json",
    "cat_to_json",
    "digest",
    "load",
    "save",
    "sset_from_json",
    "sset_to_json",
]


class SchemaError(Exception):
    """The document does not have the shape the schema demands."""


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _is_int(v) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _int_table(tbl, msg: str) -> list[list[int]]:
    _require(isinstance(tbl, list) and all(isinstance(r, list) for r in tbl), msg)
    for r in tbl:
        _require(all(_is_int(v) for v in r), msg)
    return [list(r) for r in tbl]


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


def sset_from_json(data, name: str = "") -> SimplicialSet:
    _require(isinstance(data, dict), "simplicial set document must be an object")
    missing = {"dim", "cells", "face", "degen"} - set(data)
    _require(not missing, f"simplicial set document lacks {sorted(missing)}")
    D = data["dim"]
    _require(_is_int(D) and D >= 0, "dim must be a nonnegative integer")
    cards = data["cells"]
    _require(
        isinstance(cards, list) and len(cards) == D + 1 and all(_is_int(c) and c >= 0 for c in cards),
        "cells must list one nonnegative size per level",
    )
    for key in ("face", "degen"):
        _require(isinstance(data[key], list) and len(data[key]) == D + 1, f"{key} must hold one table per level")
    tables = {"face": [], "degen": []}
    for n in range(D + 1):
        # rows per operator index, and the level their cells lie in
        for key, want, m in (("face", n + 1 if n else 0, n - 1), ("degen", n + 1 if n < D else 0, n + 1)):
            t = _int_table(data[key][n], f"{key}[{n}] must be nested integer arrays")
            _require(len(t) == want, f"{key}[{n}] must hold {want} rows")
            _require(all(len(r) == cards[n] for r in t), f"{key}[{n}] rows must match the level size")
            for r in t:
                _require(all(0 <= v < cards[m] for v in r), f"{key}[{n}] has an out-of-range cell")
            tables[key].append(t)
    X = SimplicialSet(D, cards, tables["face"], tables["degen"], name=name)
    validate_sset(X, subject=name or "loaded simplicial set").raise_if_failed()
    return X


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


def cat_from_json(data, name: str = "") -> SimplicialCategory:
    _require(isinstance(data, dict), "category document must be an object")
    missing = {"objects", "hom", "comp", "id"} - set(data)
    _require(not missing, f"category document lacks {sorted(missing)}")
    objects = data["objects"]
    _require(isinstance(objects, list) and objects, "objects must be a nonempty list")
    by_name = _obj_lookup(objects)
    homs = {}
    D = None
    _require(isinstance(data["hom"], dict), "hom must map object pairs to simplicial sets")
    for key, sub in data["hom"].items():
        parts = key.split(",")
        _require(len(parts) == 2 and all(p in by_name for p in parts), f"bad hom key {key!r}")
        a, b = by_name[parts[0]], by_name[parts[1]]
        H = sset_from_json(sub, name=f"hom({a},{b})")
        if D is None:
            D = H.D
        _require(H.D == D, "hom truncations disagree")
        homs[(a, b)] = H
    _require(D is not None, "category needs at least one hom")
    ids = {}
    _require(isinstance(data["id"], dict), "id must map objects to vertices")
    for key, v in data["id"].items():
        _require(key in by_name, f"bad identity key {key!r}")
        _require(_is_int(v), "identity must be a vertex index")
        ids[by_name[key]] = v
    comps = {}
    _require(isinstance(data["comp"], dict), "comp must map object triples to tables")
    for key, tables in data["comp"].items():
        parts = key.split(",")
        _require(len(parts) == 3 and all(p in by_name for p in parts), f"bad comp key {key!r}")
        a, b, c = (by_name[p] for p in parts)
        _require((b, c) in homs and (a, b) in homs and (a, c) in homs, f"comp {key!r} over missing homs")
        tab = _int_table(tables, f"comp[{key!r}] must be level-indexed integer tables")
        _require(len(tab) == D + 1, f"comp[{key!r}] must hold one table per level")
        for n in range(D + 1):
            size = homs[(b, c)].card(n) * homs[(a, b)].card(n)
            _require(len(tab[n]) == size, f"comp[{key!r}] level {n} size mismatch")
            _require(all(0 <= v < homs[(a, c)].card(n) for v in tab[n]), f"comp[{key!r}] has an out-of-range cell")
        comps[(a, b, c)] = tab
    for (a, b), F in homs.items():
        for (b2, c), G in homs.items():
            if b2 == b and F.card(0) and G.card(0):
                _require((a, b, c) in comps, f"comp lacks a table for the composable triple {_okey(a, b, c)!r}")
    SC = SimplicialCategory(objects, homs, comps, ids, D, name=name)
    validate_simplicial_category(SC, subject=name or "loaded category").raise_if_failed()
    return SC


def relative_to_json(R: RelativeSimplicialCategory) -> dict:
    doc = cat_to_json(R.cat)
    doc["sub"] = {
        _okey(a, b): [
            [n, x] for n in range(R.cat.D + 1) for x in sorted(R.sub_cells(a, b, n))
        ]
        for (a, b) in sorted(R.sub.keys(), key=lambda p: (str(p[0]), str(p[1])))
    }
    return doc


def relative_from_json(data, name: str = "") -> RelativeSimplicialCategory:
    _require(isinstance(data, dict) and "sub" in data, "relative document needs a sub field")
    SC = cat_from_json(data, name=name)
    by_name = _obj_lookup(SC.objects)
    sub = {}
    _require(isinstance(data["sub"], dict), "sub must map object pairs to cell references")
    for key, refs in data["sub"].items():
        parts = key.split(",")
        _require(len(parts) == 2 and all(p in by_name for p in parts), f"bad sub key {key!r}")
        a, b = by_name[parts[0]], by_name[parts[1]]
        _require((a, b) in SC.homs, f"sub {key!r} over a missing hom")
        per_level = [set() for _ in range(SC.D + 1)]
        _require(isinstance(refs, list), "sub cells must be [level, cell] pairs")
        for ref in refs:
            _require(
                isinstance(ref, list) and len(ref) == 2 and all(_is_int(v) for v in ref),
                "sub cells must be [level, cell] pairs",
            )
            n, x = ref
            _require(0 <= n <= SC.D and 0 <= x < SC.hom(a, b).card(n), f"sub cell {ref} out of range")
            per_level[n].add(x)
        sub[(a, b)] = [frozenset(s) for s in per_level]
    R = RelativeSimplicialCategory(SC, sub, name=name or SC.name)
    validate_relative(R, subject=name or "loaded relative category").raise_if_failed()
    return R


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


def bisset_from_json(data, name: str = ""):
    _require(isinstance(data, dict), "bisimplicial document must be an object")
    missing = {"dims", "cells", "hface", "hdegen", "vface", "vdegen"} - set(data)
    _require(not missing, f"bisimplicial document lacks {sorted(missing)}")
    dims = data["dims"]
    _require(
        isinstance(dims, list) and len(dims) == 2 and all(_is_int(d) and d >= 0 for d in dims),
        "dims must be a pair of nonnegative truncations",
    )
    P, Q = dims
    cards = data["cells"]
    _require(
        isinstance(cards, list)
        and len(cards) == P + 1
        and all(
            isinstance(row, list) and len(row) == Q + 1 and all(_is_int(c) and c >= 0 for c in row)
            for row in cards
        ),
        "cells must be a (P+1) x (Q+1) grid of sizes",
    )

    def grid(key, rows, dp, dq):
        doc = data[key]
        _require(isinstance(doc, list) and len(doc) == P + 1, f"{key} must hold one row per column degree")
        out = []
        for p in range(P + 1):
            _require(isinstance(doc[p], list) and len(doc[p]) == Q + 1, f"{key}[{p}] must hold one table per row degree")
            col = []
            for q in range(Q + 1):
                want = rows(p, q)
                tbl = _int_table(doc[p][q], f"{key}[{p}][{q}] must be nested integer arrays")
                _require(len(tbl) == want, f"{key}[{p}][{q}] must hold {want} rows")
                _require(all(len(r) == cards[p][q] for r in tbl), f"{key}[{p}][{q}] rows must match the cell count")
                for r in tbl:
                    # only a table with rows has a target inside the grid
                    tc = cards[p + dp][q + dq]
                    _require(all(0 <= v < tc for v in r), f"{key}[{p}][{q}] has an out-of-range cell")
                col.append(tbl)
            out.append(col)
        return out

    hfaces, hdegens, vfaces, vdegens = (grid(*family) for family in _bisset_families(P, Q))
    B = BisimplicialSet(P, Q, cards, hfaces, hdegens, vfaces, vdegens, name=name)
    validate_bisset(B, subject=name or "loaded bisimplicial set").raise_if_failed()
    if "marked" not in data:
        return B
    marked = set()
    _require(isinstance(data["marked"], list), "marked must list [1, q, cell] triples")
    for ref in data["marked"]:
        _require(
            isinstance(ref, list) and len(ref) == 3 and all(_is_int(v) for v in ref) and ref[0] == 1,
            "marked entries must be [1, q, cell] triples",
        )
        _require(0 <= ref[1] <= Q and 0 <= ref[2] < cards[1][ref[1]], f"marked cell {ref} out of range")
        marked.add((ref[1], ref[2]))
    M = MarkedBisimplicialSet(B, frozenset(marked))
    M.validate(subject=name or "loaded marked bisimplicial set").raise_if_failed()
    return M


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


def from_json(data, name: str = ""):
    """Load any schema document, dispatched on its top-level keys."""
    _require(isinstance(data, dict), "document must be a JSON object")
    if "dim" in data:
        return sset_from_json(data, name=name)
    if "dims" in data:
        return bisset_from_json(data, name=name)
    if "objects" in data:
        if "sub" in data:
            return relative_from_json(data, name=name)
        return cat_from_json(data, name=name)
    raise SchemaError("document matches no schema (need dim, dims, or objects)")


def save(path, value) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(to_json(value)))


def load(path, name: str = ""):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    return from_json(data, name=name or str(path))
