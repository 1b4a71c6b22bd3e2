"""JSON schemas, canonical bytes, digests, and the fixture corpus."""
import json

import pytest

from nervekit import SchemaError, build_example, canonical_json, digest, load, save
from nervekit.schema import bisset_from_json, cat_from_json, from_json, relative_from_json, sset_from_json
from nervekit.bitables import bisset_to_json
from nervekit.serialize import cat_to_json, relative_to_json, sset_to_json, to_json
from nervekit import (
    FinitePoset,
    SimplicialSet,
    coherent_nerve,
    levelwise_nerve,
    levelwise_nerve_marked,
    nerve_cat,
    poset_category,
    validate_sset,
)
from sset_helpers import sset_data_equal


def test_canonical_json_is_sorted_and_terminated():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'
    assert len(digest({"a": 1})) == 64


def test_sset_round_trip():
    X = nerve_cat(poset_category(FinitePoset([0, 1], [(0, 1)])), 2)
    doc = sset_to_json(X)
    Y = sset_from_json(doc)
    assert sset_data_equal(X, Y)
    assert canonical_json(sset_to_json(Y)) == canonical_json(doc)
    # labels are not serialized
    assert Y.label(0, 0) is None


def test_empty_sset_round_trip():
    E = SimplicialSet.empty(2)
    doc = sset_to_json(E)
    Y = sset_from_json(doc)
    assert Y.counts() == (0, 0, 0)


def test_malformed_sset_rejected():
    with pytest.raises(SchemaError):
        sset_from_json({"dim": 1})
    with pytest.raises(SchemaError):
        sset_from_json({"dim": 1, "cells": [1], "face": [], "degen": []})
    doc = sset_to_json(SimplicialSet.empty(1))
    doc["cells"] = [0, "x"]
    with pytest.raises(SchemaError):
        sset_from_json(doc)


def test_corrupt_sset_rejected_with_witness():
    X = nerve_cat(poset_category(FinitePoset([0, 1], [(0, 1)])), 2)
    doc = sset_to_json(X)
    doc["face"][2][0][0] = (doc["face"][2][0][0] + 1) % X.card(1)
    with pytest.raises(ValueError) as info:
        sset_from_json(doc)
    assert "violation" in str(info.value)


def test_category_round_trip(z2_rel):
    SC = z2_rel.cat
    doc = cat_to_json(SC)
    SC2 = cat_from_json(doc)
    assert SC2.objects == ["x"]
    assert canonical_json(cat_to_json(SC2)) == canonical_json(doc)
    # reloaded data feeds the nerve machinery identically
    assert coherent_nerve(SC2, 2).counts() == coherent_nerve(SC, 2).counts()


def test_missing_composition_table_rejected(poset012):
    doc = relative_to_json(poset012)
    for key in list(doc["comp"]):
        broken = json.loads(json.dumps(doc))
        del broken["comp"][key]
        with pytest.raises(SchemaError, match=f"composable triple '{key}'"):
            relative_from_json(broken)


def test_relative_round_trip(poset01):
    doc = relative_to_json(poset01)
    R2 = relative_from_json(doc)
    assert canonical_json(relative_to_json(R2)) == canonical_json(doc)
    for (a, b), per_level in poset01.sub.items():
        for n, cells in enumerate(per_level):
            assert R2.sub_cells(a, b, n) == cells


def test_bisset_round_trip(z2_rel):
    NB = levelwise_nerve(z2_rel.cat, 2, 2)
    doc = bisset_to_json(NB)
    NB2 = bisset_from_json(doc)
    assert canonical_json(bisset_to_json(NB2)) == canonical_json(doc)
    M = levelwise_nerve_marked(z2_rel, 2, 2)
    mdoc = bisset_to_json(M)
    M2 = bisset_from_json(mdoc)
    assert M2.marked == M.marked


def test_dispatch_on_document_shape(z2_rel, poset01):
    NB = levelwise_nerve(z2_rel.cat, 1, 1)
    X = nerve_cat(poset_category(FinitePoset([0, 1], [(0, 1)])), 2)
    for value in (X, z2_rel.cat, poset01, NB):
        doc = to_json(value)
        back = from_json(doc)
        assert canonical_json(to_json(back)) == canonical_json(doc)


def test_object_names_round_trip():
    R = build_example("poset:a<b,b<c", max_dim=1)
    doc = relative_to_json(R)
    R2 = relative_from_json(doc)
    assert R2.cat.objects == ["a", "b", "c"]


def test_save_load_files(tmp_path, z2_rel):
    p = tmp_path / "cat.json"
    save(p, z2_rel)
    first = p.read_bytes()
    val = load(p)
    save(p, val)
    assert p.read_bytes() == first


def test_load_rejects_junk(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load(p)
    p2 = tmp_path / "odd.json"
    p2.write_text('{"surprising": 1}')
    with pytest.raises(SchemaError):
        load(p2)


def test_clean_fixtures_load(fixtures_dir):
    for name in ("clean_sset.json", "clean_relative.json", "clean_bisset.json"):
        value = load(fixtures_dir / name)
        assert value is not None


def test_loaded_category_holds_the_document_comp_tables(fixtures_dir):
    doc = json.loads((fixtures_dir / "clean_relative.json").read_text())
    SC = cat_from_json(doc)
    assert {",".join(map(str, key)): tables for key, tables in SC.comps.items()} == doc["comp"]
    assert cat_to_json(SC)["comp"] == doc["comp"]


@pytest.mark.parametrize(
    "name,needle",
    [
        ("broken_identity_sset.json", "d_i d_j"),
        ("broken_unit_cat.json", "unit"),
        ("broken_commutation_bisset.json", "violation"),
        ("broken_square_bisset.json", "s^v_j d^h_i"),
        ("broken_marking.json", "mark"),
        ("non_wide.json", "wide"),
    ],
)
def test_planted_defects_rejected(fixtures_dir, name, needle):
    with pytest.raises(ValueError) as info:
        load(fixtures_dir / name)
    assert needle in str(info.value)


# each entry becomes the JSON boolean equal to it, which Python's int
# checks would accept
BOOLEAN_ENTRIES = [
    ("clean_sset.json", ("face", 1, 0, 0)),
    ("clean_relative.json", ("comp", "x,x,x", 1, 0)),
    ("clean_relative.json", ("sub", "x,x", 0, 0)),
    ("clean_bisset.json", ("hface", 1, 0, 0, 0)),
    ("clean_bisset.json", ("marked", 0, 0)),
]


@pytest.mark.parametrize("name, path", BOOLEAN_ENTRIES)
def test_boolean_entries_rejected(fixtures_dir, tmp_path, capsys, name, path):
    from nervekit.cli import main

    doc = json.loads((fixtures_dir / name).read_text())
    *outer, last = path
    parent = doc
    for step in outer:
        parent = parent[step]
    assert parent[last] in (0, 1)
    parent[last] = bool(parent[last])
    with pytest.raises(SchemaError):
        from_json(doc)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    assert main(["validate", "--in", str(p)]) == 2
    assert capsys.readouterr().err.startswith("nervekit: ")
