"""Seeded mutation fuzz of the input boundary.

Each fixture in ``tests/fixtures`` is mutated at random places, from a
seeded stdlib `random`: a key dropped, a value swapped for one of
another type, a table cut short, an integer put out of range. Loading a
mutant may fail only with `SchemaError` or `ValueError`, and no verb
reading it may end in a traceback: a mutant that fails to load makes
the CLI exit 1 or 2, and one that still loads is an input like any
other, so the CLI exits 0, 1 or 2.
"""
import json
import random

import pytest

from nervekit import SchemaError, load
from nervekit.cli import main

FIXTURES = (
    "broken_commutation_bisset.json",
    "broken_identity_sset.json",
    "broken_marking.json",
    "broken_square_bisset.json",
    "broken_unit_cat.json",
    "clean_bisset.json",
    "clean_relative.json",
    "clean_sset.json",
    "non_wide.json",
)
MUTATIONS_PER_FIXTURE = 40
VERBS = ("validate", "homology", "binerve", "cls", "diag")
# values of every JSON type but the one they replace
OTHER_TYPES = (None, True, 1.5, "x", [], {}, 0, [0], {"x": 0})


def _paths(doc, path=()):
    """Every (path, value) in the document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _mutant(doc, rng):
    """A deep copy of ``doc`` with one mutation, and its description."""
    doc = json.loads(json.dumps(doc))
    paths = list(_paths(doc))
    kind = rng.choice(("drop key", "swap type", "cut short", "out of range"))
    if kind == "drop key":
        candidates = [p for p, _ in paths if isinstance(p[-1], str)]
    elif kind == "swap type":
        candidates = [p for p, _ in paths]
    elif kind == "cut short":
        candidates = [p for p, v in paths if isinstance(v, list) and v]
    else:
        candidates = [p for p, v in paths if type(v) is int]
    path = rng.choice(candidates)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if kind == "drop key":
        del parent[key]
    elif kind == "swap type":
        parent[key] = rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)])
    elif kind == "cut short":
        del value[rng.randrange(len(value)) :]
    else:
        parent[key] = rng.choice((-1, value + rng.randint(1, 50), 10**6))
    return doc, f"{kind} at {list(path)}"


@pytest.mark.parametrize("name", FIXTURES)
def test_mutated_fixtures_fail_cleanly(fixtures_dir, tmp_path, capsys, name):
    doc = json.loads((fixtures_dir / name).read_text())
    rng = random.Random(name)
    rejected = 0
    for t in range(MUTATIONS_PER_FIXTURE):
        mutant, what = _mutant(doc, rng)
        path = tmp_path / f"{t}.json"
        path.write_text(json.dumps(mutant))
        try:
            load(path)
            allowed = {0, 1, 2}
        except (SchemaError, ValueError):
            allowed = {1, 2}
            rejected += 1
        for verb in VERBS:
            code = main([verb, "--in", str(path)])
            assert code in allowed, (name, what, verb, code)
        capsys.readouterr()
    # the mutations mostly break the document, so the error paths are what runs
    assert rejected > MUTATIONS_PER_FIXTURE // 2, rejected
