"""Readers for the JSON documents of `nervekit.serialize`.

`load`, `read`, `loads` and `from_json` dispatch on a document's
top-level keys to one reader per kind. Loading validates structure
first (`SchemaError`) and then the full simplicial/categorical
identities with the validators of `nervekit.axioms`, refusing any
document that fails them with the witnessing cell named (`ValueError`).

Only the ``--in`` option and the ``validate`` verb read documents, so
``import nervekit`` does not load this module up front: the package
resolves its names on first use.
"""

from __future__ import annotations

import hashlib
import json

from .axioms import validate_bisset, validate_relative, validate_simplicial_category, validate_sset
from .bisimplicial import BisimplicialSet
from .bitables import _bisset_families
from .cat import RelativeSimplicialCategory, SimplicialCategory
from .marked import MarkedBisimplicialSet
from .serialize import SchemaError, _obj_lookup, _okey
from .sset import SimplicialSet, _families


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
        for key, _, rows, step in _families(D):
            t = _int_table(data[key][n], f"{key}[{n}] must be nested integer arrays")
            _require(len(t) == rows(n), f"{key}[{n}] must hold {rows(n)} rows")
            _require(all(len(r) == cards[n] for r in t), f"{key}[{n}] rows must match the level size")
            for r in t:
                _require(all(0 <= v < cards[n + step] for v in r), f"{key}[{n}] has an out-of-range cell")
            tables[key].append(t)
    X = SimplicialSet(D, cards, tables["face"], tables["degen"], name=name)
    validate_sset(X, subject=name or "loaded simplicial set").raise_if_failed()
    return X


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

    def grid(key, _, rows, dp, dq):
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


def loads(text, name: str = ""):
    """The value of the document ``text``, a JSON string or its bytes;
    bytes that do not decode are not valid JSON either."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return from_json(data, name=name)


def read(path, name: str = "") -> tuple:
    """The value of the document in the file ``path``, read once, and the
    SHA-256 hex digest of the bytes it was parsed from."""
    with open(path, "rb") as fh:
        text = fh.read()
    return loads(text, name=name or str(path)), hashlib.sha256(text).hexdigest()


def load(path, name: str = ""):
    return read(path, name)[0]
