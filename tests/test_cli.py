"""Command line driver: verbs, exit codes, report determinism."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import nervekit.cli as cli
from nervekit.cli import COMMANDS, _scan, main, run
from nervekit import build_example
from nervekit.schema import from_json
from nervekit.serialize import canonical_json, to_json
from nervekit.usage import parser

from cli_reference import VERBS, parse_outcome, reference_parser


ROOT = pathlib.Path(__file__).resolve().parent.parent
CLEAN_SSET = str(ROOT / "tests" / "fixtures" / "clean_sset.json")
GATED = (
    ["compare", "--example", "bg:z2", "--max-dim", "3", "--coeff", "f2"],
    ["horncheck", "--example", "bg:z3", "--max-dim", "4"],
)


def fresh(argv, code=None):
    """``python -m nervekit.cli`` on ``argv`` in a new interpreter, run from
    the repository root; with ``code``, ``python -c code`` on ``argv``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    head = ["-m", "nervekit.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *head, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def _parser(verb=None):
    """The argparse parser `nervekit.cli` falls back to for a line starting with ``verb``."""
    return parser(cli.OPTIONS, cli.__doc__, verb)


def invoke(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def test_validate_example(capsys):
    code, rep = invoke(["validate", "--example", "bg:z2"], capsys)
    assert code == 0
    assert all(v["ok"] for v in rep["results"]["validation"])
    assert rep["command"][0] == "validate"


def test_counting_verbs(capsys):
    code, rep = invoke(["hcnerve", "--example", "bg:z2", "--max-dim", "3"], capsys)
    assert code == 0
    assert rep["results"]["levels"] == [1, 1, 2, 8]
    code, rep = invoke(["bspace", "--example", "bg:z2", "--max-dim", "3"], capsys)
    assert code == 0
    assert rep["results"]["levels"] == [1, 2, 16, 512]


def test_compare_verb(capsys):
    code, rep = invoke(
        ["compare", "--example", "bg:z2", "--max-dim", "3", "--coeff", "f2"], capsys
    )
    assert code == 0
    assert rep["results"]["chain_iso"]["verdict"] == "pass"
    assert rep["results"]["consistency"]["verdict"] == "pass"
    assert rep["results"]["map_simplicial"]["ok"] is True


def test_integer_compare_on_bgz2(capsys):
    # the coherent nerve of bg:z2 has no nondegenerate edge, so its
    # degree-2 boundary matrix has no rows and every 2-chain is a cycle
    code, rep = invoke(["compare", "--example", "bg:z2", "--max-dim", "3"], capsys)
    assert code == 0
    iso = rep["results"]["chain_iso"]
    assert iso["verdict"] == "pass"
    groups = [{"betti": 1, "torsion": []}, {"betti": 0, "torsion": []}, {"betti": 0, "torsion": [2]}]
    for n, g in enumerate(groups):
        assert iso["bounds"][f"H{n}"]["source"] == g
        assert iso["bounds"][f"H{n}"]["target"] == g


def test_integer_homology_over_the_transform_budget_exits_2():
    # degree 3 of bg:z2 at level 4 is a 469 x 63577 boundary, whose dense
    # Smith transforms would hold about 4e9 entries; the run must stop
    # with a truncation error, not a MemoryError traceback
    proc = fresh(["homology", "--example", "bg:z2", "--max-dim", "4"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "budget" in proc.stderr and not proc.stdout


def test_homology_and_pi0(capsys):
    code, rep = invoke(
        ["homology", "--example", "bg:z2", "--max-dim", "2", "--coeff", "f2"], capsys
    )
    assert code == 0
    dims = [g["dim"] for g in rep["results"]["homology"]["groups"]]
    assert dims == [1, 0]
    code, rep = invoke(["pi0", "--example", "discrete:antichain3"], capsys)
    assert code == 0
    assert rep["results"]["count"] == 3


def test_uniq_check(capsys):
    code, rep = invoke(["uniq-check", "--max-cosimplicial", "2"], capsys)
    assert code == 0
    assert rep["results"]["uniqueness"]["bounds"]["families"] == 1
    code, rep = invoke(["uniq-check", "--max-cosimplicial", "1"], capsys)
    assert code == 1
    assert rep["results"]["uniqueness"]["bounds"]["families"] == 2


def test_horncheck_sweeps_category(capsys):
    code, rep = invoke(
        ["horncheck", "--example", "bg:z2", "--max-dim", "2"], capsys
    )
    assert code == 0
    assert all(r["verdict"] == "pass" for r in rep["results"]["horns"])


def test_usage_errors(capsys):
    assert invoke(["nerve"], capsys)[0] == 2
    assert invoke(["nerve", "--example", "bg:q8"], capsys)[0] == 2
    assert invoke(["validate", "--in", "/nonexistent.json"], capsys)[0] == 2
    assert invoke(["frobnicate"], capsys)[0] == 2
    assert invoke(["compare", "--example", "bg:z2", "--max-cosimplicial", "2"], capsys)[0] == 2
    assert invoke(["horncheck", "--example", "bg:z3", "--jobs", "2"], capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out
    assert main(["compare", "-h"]) == 0
    assert "--emit-cells" in capsys.readouterr().out


@pytest.mark.parametrize("verb", COMMANDS)
def test_every_verb_takes_the_shared_options(verb):
    argv = [verb, "--max-dim", "3", "--rows", "1", "--cols", "2", "--coeff", "f2", "--in", "a.json",
            "--out", "b.json", "--emit-cells", "--example", "bg:z2"]
    for args in (_scan(argv), _parser(verb).parse_args(argv)):
        assert (args.command, args.max_dim, args.rows, args.cols, args.coeff) == (verb, 3, 1, 2, "f2")
        assert (args.infile, args.out, args.emit_cells, args.example) == ("a.json", "b.json", True, "bg:z2")
        assert getattr(args, "max_cosimplicial", None) == (2 if verb == "uniq-check" else None)


# every spelling of every option, with values argparse accepts; a None
# marks a flag. Written out apart from `cli.OPTIONS`, so that a fault in
# that table shows against the reference parser.
SPELLINGS = {
    "--max-dim": ["3", "0", "07", "+2", " 12 "],
    "-d": ["4"],
    "--rows": ["1"],
    "--cols": ["2"],
    "--coeff": ["z", "f2"],
    "--in": ["a.json", "", "a b"],
    "--out": ["b.json"],
    "--emit-cells": None,
    "--example": ["bg:z2", "poset:a<b", "x=1"],
}


def _oracle_lines() -> list:
    """(argv, whether the table parser takes it) for every verb: each
    option in each spelling, repeated options (the last one wins), all
    options at once, and each form the table leaves to argparse."""
    lines = [(argv, False) for argv in ([], ["-h"], ["--help"], ["frobnicate"], ["Compare"], ["--max-dim", "3", "compare"])]
    for verb in VERBS:
        spellings = dict(SPELLINGS, **({"--max-cosimplicial": ["1", "3"]} if verb == "uniq-check" else {}))
        taken = [[verb]]
        for name, values in spellings.items():
            taken += [[verb, name]] if values is None else [[verb, name, v] for v in values]
        taken += [
            [verb, "--emit-cells", "--emit-cells"],
            [verb, "--max-dim", "1", "-d", "4"],
            [verb, "-d", "4", "--max-dim", "1"],
            [verb, "--coeff", "f2", "--coeff", "z"],
            [verb, "--example", "bg:z2", "--example", "bg:z3", "--in", "x.json"],
            [verb] + [t for name, values in spellings.items() for t in ([name] if values is None else [name, values[0]])],
        ]
        declined = [
            [verb, "-h"],
            [verb, "--help"],
            [verb, "--example", "bg:z2", "-h"],
            [verb, "--max", "3"],
            [verb, "--ex", "bg:z2"],
            [verb, "--max-dim=3"],
            [verb, "-d3"],
            [verb, "--max-dim", "-1"],
            [verb, "--cols", "-1"],
            [verb, "--example", "-x"],
            [verb, "--example", "-"],
            [verb, "--max-dim", "x"],
            [verb, "--rows", "1.5"],
            [verb, "--coeff", "q"],
            [verb, "--coeff", "Z"],
            [verb, "--max-dim"],
            [verb, "--example"],
            [verb, "extra"],
            [verb, "--example", "bg:z2", "extra"],
            [verb, "--", "--example", "bg:z2"],
            [verb, "--bogus"],
            [verb, "--max-cosimplicial", "2" if verb != "uniq-check" else "-1"],
        ]
        lines += [(argv, True) for argv in taken] + [(argv, False) for argv in declined]
    return lines


def _table_mismatches() -> list:
    """The oracle lines on which the table parser or the argparse builder
    disagree with the reference parser, or the table parser takes a line
    it must leave to argparse."""
    ref = reference_parser()
    built = {}
    bad = []
    for argv, taken in _oracle_lines():
        got = _scan(argv)
        if not taken:
            if got is not None:
                bad.append(("taken", argv))
            continue
        code, _, _, want = parse_outcome(ref, argv)
        if argv[0] not in built:
            built[argv[0]] = _parser(argv[0])
        if code is not None or got is None or vars(got) != want or parse_outcome(built[argv[0]], argv)[3] != want:
            bad.append(("differs", argv))
    return bad


def test_table_parser_agrees_with_the_reference_parser():
    lines = _oracle_lines()
    assert sum(taken for _, taken in lines) > 14 * 20 and sum(not taken for _, taken in lines) > 14 * 20
    assert VERBS == COMMANDS and tuple(cli.OPTIONS) == COMMANDS
    assert _table_mismatches() == []


def test_table_oracle_catches_planted_faults(monkeypatch):
    table = cli.OPTIONS
    planted = {
        # --rows stored under cols
        ("differs", ("theta", "--rows", "1")): lambda o: (o[0], "cols") + o[2:] if o[1] == "rows" else o,
        # --coeff without its choices
        ("taken", ("homology", "--coeff", "q")): lambda o: o[:4] + (None,) if o[1] == "coeff" else o,
        # an int option read as a string
        ("differs", ("compare", "--cols", "2")): lambda o: o[:2] + (str,) + o[3:] if o[1] == "cols" else o,
    }
    for (kind, argv), fault in planted.items():
        monkeypatch.setattr(cli, "OPTIONS", {verb: tuple(map(fault, opts)) for verb, opts in table.items()})
        assert (kind, list(argv)) in _table_mismatches(), (kind, argv)
    monkeypatch.setattr(cli, "OPTIONS", dict(table, compare=table["uniq-check"]))
    assert ("taken", ["compare", "--max-cosimplicial", "2"]) in _table_mismatches()


# lines the table parser leaves to argparse for help or a usage error
FALLBACK_LINES = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["compare", "-h"],
    ["uniq-check", "--help"],
    ["compare", "--bogus"],
    ["compare", "--max-dim", "x"],
    ["compare", "--max-dim"],
    ["horncheck", "extra"],
    ["cls", "--coeff", "q"],
    ["nerve", "--max-cosimplicial", "2"],
    ["theta", "--max", "x"],
]


@pytest.mark.parametrize("argv", FALLBACK_LINES)
def test_help_and_usage_errors_are_those_of_the_reference_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err, _ = parse_outcome(reference_parser(), argv)
    assert _scan(argv) is None and code is not None
    assert main(argv) == (0 if code == 0 else 2)
    assert capsys.readouterr() == (out, err)


def _verb_help(top, verb):
    (sub,) = [a for a in top._actions if a.dest == "command"]
    return sub.choices[verb].format_help()


@pytest.mark.parametrize("verb", COMMANDS)
def test_verb_help_is_that_of_the_full_parser(verb):
    assert _verb_help(_parser(verb), verb) == _verb_help(_parser(), verb)


@pytest.mark.parametrize(
    "argv",
    [
        # the marking lives in column 1, so marked constructions need P >= 1
        ["binerve", "--example", "bg:z2", "-d", "2", "--cols", "0"],
        ["theta", "--example", "bg:z2", "-d", "2", "--cols", "0", "--rows", "2"],
        ["cls", "--example", "bg:z2", "-d", "2", "--cols", "0", "--rows", "0"],
        ["cls", "--example", "bg:z2", "-d", "2", "--cols", "0", "--rows", "1"],
        # the default bidegree at truncation 1 is (1, 0), which leaves no row
        ["theta", "--example", "bg:z2", "-d", "1", "--rows", "1"],
        # negative bidegree bounds
        ["theta", "--example", "bg:z2", "-d", "2", "--cols", "-1"],
        ["binerve", "--example", "bg:z2", "-d", "2", "--rows", "-1"],
        ["uniq-check", "--max-cosimplicial", "0"],
        # a negative degree bound on a simplicial set, as on a category
        ["homology", "--in", CLEAN_SSET, "--max-dim", "-1"],
        ["homology", "--in", CLEAN_SSET, "--max-dim", "-1", "--coeff", "f2"],
    ],
)
def test_out_of_range_bounds_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("nervekit: ")


def test_marked_verbs_run_at_truncation_one(capsys):
    # marked constructions need a column, so the default bidegree is (1, 0)
    code, rep = invoke(["theta", "--example", "bg:z2", "--max-dim", "1"], capsys)
    assert code == 0
    bounds = rep["results"]["theta"]["bounds"]
    assert (bounds["P"], bounds["Q"]) == (1, 0)
    code, rep = invoke(["cls", "--example", "bg:z2", "--max-dim", "1"], capsys)
    assert code == 0
    assert rep["results"]["cells"] == [[1], [1]]


# report digests are the behaviour oracle: a refactor keeps each one
# byte-identical (values computed before `consistency_check` read the
# comparison map's cells; that of `theta bg:z2 -d 5`, whose bidegree
# (2, 3) lies above the directly checked squares, before theta read its
# collapse rule from one table; those of the last three `cls` runs before
# its operators became gathers along grid maps; those of `nerve` and of
# the last `binerve` run before nerves were built by chain index; those of
# `example` before compositions were stored as per-level tables; that of
# `hcnerve bg:z3 -d 4` before its search ran on the cell's own slots)
DIGEST_PINS = [
    ("compare --example bg:z2 --max-dim 3 --coeff f2", "2d0bcd5c0308c6738f3b7c0e5291c7a33101183d717d86adc5f3fae643c30eab"),
    ("compare --example bg:z2 --max-dim 3", "a04862a7efd985e5e160086d4066bcf7de576c37418322a66a2d0daf0c6f8a59"),
    ("compare --example bg:z3 --max-dim 2 --coeff f2", "52e009ad064ee8cb8e5c18694ddf1b6cec72fb505bc50690b777e15b9486579c"),
    ("compare --example bg:z3 --max-dim 3 --coeff f2", "40d1e0e0053b7efc0caffd494e46740585a9b88404427fd09316d6e9d70338f1"),
    ("compare --example discrete:poset012 --max-dim 3", "d536c0ec3091b6b01e3fd5dd46d6bba6201709c6e888696ce94b66bae67673b3"),
    ("compare --example two-object-interval --max-dim 2", "269fbff00c72824318fd281d87729759dcccd01fbf3e45b73912e57bd7660538"),
    ("compare --example poset:a<b,a<c,b<d,c<d --max-dim 3", "baa713f0882e4f4ca0b5de94d7839e9294e27c437262953af97608c8ab6fbabe"),
    # every hom of the square poset is a point, so each cell takes the single-cell fold
    ("compare --example poset:a<b,a<c,b<d,c<d --max-dim 5 --coeff f2", "8ce848b247f4ffae80cf0ef9b70d5fb47a2a24ee4fa11a6ac292b0afc064e102"),
    ("theta --example bg:z2 --max-dim 4", "df24687e8f32d8bac7d5fae482802541565e8d26d1431d5f9f1125d6436bf548"),
    ("theta --example bg:z2 --max-dim 5", "a66cbbf36676b84e36f6e2c5276a2c87fec6c0fe80507d3d668e3fe19dccd48c"),
    ("theta --example two-object-interval --max-dim 3", "52552f912a0d331768cdf886c527de73ffd2523f5c7efb69eef935368d97fec3"),
    ("theta --example poset:a<b,a<c,b<d,c<d --max-dim 5", "e8105cf2d1431598ca375ce33c0fa7d88754d884e2a6fb024f853ea7c42f44fa"),
    ("cls --example bg:z2 --max-dim 2 --emit-cells", "c11705718a3430627f2727c39d916ed2f958a44a0ba08e0864e21d79b9554403"),
    ("cls --example bg:z3 --max-dim 3 --emit-cells", "3c943af30bdbcde32c72e3954e1aaf0ecf1614aaa9b0904c9f6a2c194fb2243a"),
    ("cls --example two-object-interval --max-dim 4 --emit-cells", "9357d15663800d0a945577f3927593e959ed1df8a22f531e80c6e33154778aed"),
    ("cls --example poset:a<b,a<c,b<d,c<d --max-dim 3 --emit-cells", "15dc5823c18f7d6379d593ecef1f08872149791e708aa2869c0ca81b0b5bac51"),
    ("hcnerve --example bg:z3 --max-dim 3 --emit-cells", "49d0b16961fdda7ad19cc2f2a1699693b308fefa6880a4892226e2947771bd39"),
    ("hcnerve --example bg:z3 --max-dim 4 --emit-cells", "279d72e943205e61ca2b7c147446bcbafa3fb1de74f4aa36a609efb12161a070"),
    ("binerve --example bg:z2 --max-dim 2 --emit-cells", "789263b3654c83e0ad64393f193a92b7601b45904b5ebe5712049a3f71e73c20"),
    ("binerve --example two-object-interval --max-dim 3 --emit-cells", "333c11e7935758515f1252b92219b6b2810cd4ea190401c0c27494970219b36c"),
    ("horncheck --example bg:z3 --max-dim 4", "c17d8e1963ef3cb58ac2a8f069c6d85ea01d7347ff75eaecaee667e6131f9986"),
    ("horncheck --example discrete:poset012 --max-dim 4", "05f6c743f0cfb167ba34b3a29c5a245d9dc67aa1ec568bfa85769a7b7a4bbc63"),
    ("homology --example bg:z2 --max-dim 3", "6c234f58e639e1ceaa1f4524808d15f1438cba556a7418806f7a65ba249693de"),
    ("bspace --example bg:z3 --max-dim 3", "1236c2f583a26bbafa8dc8205e904b6ec12aeaa8a938d2252fc8c3039610729e"),
    ("uniq-check --max-cosimplicial 2", "9f09c4d589200c9d7db17642c6c3fa896fd59a09d83d489a5441e93d4ccb0a0b"),
    ("nerve --example bg:z3 --max-dim 4 --emit-cells", "fea48da85262f6a59cfab3289af2a7eb7dae58c4c4936507d1978621a562c99d"),
    ("nerve --example two-object-interval --max-dim 4 --emit-cells", "bd0544f76692a588895b6b3e99cf2a34bf1df45c2523559052af3ee269c1d79d"),
    ("binerve --example poset:a<b,a<c,b<d,c<d --max-dim 3 --emit-cells", "bf41a8968fd66566fe3339bd39a91e9c81109433cc10bacab9346543c4819821"),
    ("example --example bg:z3 --max-dim 4 --emit-cells", "423d8f3826c48a88d42c59a5858eb4687a4305f5c1764f058581e3eaeb6511c5"),
    ("example --example discrete:poset012 --max-dim 3 --emit-cells", "3781d970016ffb7455387610bfede6ad8b75d1c25141d0e6b26069f1c8cc34e5"),
    ("example --example two-object-interval --max-dim 3 --emit-cells", "63895c76fe433eeb656ee3bcccdb84e37f5241e95bfd75c40ebb854751468432"),
]


UNIQUENESS_FAILURE_PIN = "0c30d141ceabb3ca1b978095b6b0cb853925c0a4c7da2c4a5881a966cfb54795"


@pytest.mark.parametrize("command, want", DIGEST_PINS)
def test_report_digest_is_pinned(command, want):
    rep, code, _ = run(command.split())
    assert code == 0
    assert rep["digest"] == want


# one small run per verb, with its exit code; a run listed in DIGEST_PINS
# must also reproduce its pin
FRESH_RUNS = [
    ("validate --in tests/fixtures/clean_bisset.json", 0),
    ("nerve --example two-object-interval --max-dim 4 --emit-cells", 0),
    ("binerve --example two-object-interval --max-dim 3 --emit-cells", 0),
    ("hcnerve --example bg:z3 --max-dim 3 --emit-cells", 0),
    ("bspace --example bg:z3 --max-dim 3", 0),
    ("diag --example two-object-interval --max-dim 2", 0),
    ("compare --example two-object-interval --max-dim 2", 0),
    ("cls --example bg:z2 --max-dim 2 --emit-cells", 0),
    ("theta --example two-object-interval --max-dim 3", 0),
    ("homology --example bg:z2 --max-dim 3", 0),
    ("pi0 --example discrete:antichain3 --max-dim 1", 0),
    ("horncheck --example discrete:poset012 --max-dim 4", 0),
    ("uniq-check --max-cosimplicial 1", 1),
    ("example --example discrete:poset012 --max-dim 3 --emit-cells", 0),
]


def test_fresh_runs_cover_every_verb():
    assert sorted(command.split()[0] for command, _ in FRESH_RUNS) == sorted(COMMANDS)


@pytest.mark.parametrize("command, code", FRESH_RUNS)
def test_every_verb_runs_in_a_fresh_interpreter(command, code):
    # in one test process an earlier test may have loaded a module that a
    # verb imports only on first use; a fresh interpreter loads only what
    # the verb itself imports
    p = fresh(command.split())
    assert p.returncode == code, p.stderr
    assert "Traceback" not in p.stderr, p.stderr
    pins = dict(DIGEST_PINS, **{"uniq-check --max-cosimplicial 1": UNIQUENESS_FAILURE_PIN})
    if command in pins:
        assert json.loads(p.stdout)["digest"] == pins[command]


# `validate --in` on each fixture, run from the repository root: the
# exit code, and the report digest of a clean file or the message a
# broken one is refused with
FIXTURE_PINS = [
    ("clean_bisset.json", 0, "773f1125209cad9eb4b8c3880d6dd89ae576585266ad50ad97c56b53b6239607"),
    ("clean_relative.json", 0, "917084c0b814cffa5222af1826e0501fbbd068eae06d087a58f715bb545ca292"),
    ("clean_sset.json", 0, "4efb138b6f03dcb27b218de7e1bb27d3c541c95fadf8196e674e77a169ee50c9"),
    ("broken_commutation_bisset.json", 1, "2 violation(s); first: row 1: d_j s_j = id = d_{j+1} s_j at (1, 0, 0, 0) 1 != 0"),
    ("broken_square_bisset.json", 1, "14 violation(s); first: s^v_j d^h_i = d^h_i s^v_j at (2, 1, 0, 0, 3) 0 != 1"),
    ("broken_identity_sset.json", 1, "3 violation(s); first: d_i d_j = d_{j-1} d_i at (2, 0, 1, 0) 0 != 1"),
    ("broken_marking.json", 1, "5 violation(s); first: marking closed under faces at (1, 0, 0) vertical face escapes marking"),
    ("broken_unit_cat.json", 1, "4 violation(s); first: left unit at ('x', 'x', 1, 1) id after f differs from f"),
    ("non_wide.json", 1, "4 violation(s); first: wideness at ('x', 'x', 1, 1) cell in a marked component but not in sub"),
]


def test_fixture_pins_cover_every_fixture(fixtures_dir):
    assert sorted(name for name, _, _ in FIXTURE_PINS) == sorted(p.name for p in fixtures_dir.glob("*.json"))


@pytest.mark.parametrize("name, code, want", FIXTURE_PINS)
def test_fixture_validation_is_pinned(name, code, want):
    path = f"tests/fixtures/{name}"
    p = fresh(["validate", "--in", path])
    assert p.returncode == code, p.stderr
    if code == 0:
        assert json.loads(p.stdout)["digest"] == want
    else:
        assert p.stderr == f"nervekit: input failed validation: {path}: {want}\n"


def test_failing_uniqueness_digest_is_pinned():
    # at N = 1 the search finds more than the canonical family; this is
    # the one pinned report whose witnesses print vertex signatures
    rep, code, _ = run(["uniq-check", "--max-cosimplicial", "1"])
    assert code == 1 and rep["results"]["uniqueness"]["verdict"] == "fail"
    assert rep["digest"] == UNIQUENESS_FAILURE_PIN


def test_compare_builds_each_comparison_cell_once(comparison_cell_calls):
    rep, code, _ = run(["compare", "--example", "bg:z2", "--max-dim", "3", "--coeff", "f2"])
    assert code == 0
    # 531 map cells, built by the batched fold; the consistency check
    # reads them back and builds only its 4 distinct row restrictions
    assert len(comparison_cell_calls) == 531 + 4


def test_theta_checks_each_grid_chain_once_per_bidegree(monkeypatch):
    # the sweep resolves one collapse plan per (p, q, tau) it reads, so
    # the grid-chain checks do not grow with the cells: bg:z3 has more
    # than three times the cells of bg:z2 at the same bidegrees
    import nervekit.comparison as comparison_mod

    check = comparison_mod._check_grid_chain
    calls = []

    def counted(p, q, tau):
        calls.append((p, q))
        return check(p, q, tau)

    monkeypatch.setattr(comparison_mod, "_check_grid_chain", counted)
    per_input = {}
    for example in ("bg:z2", "bg:z3"):
        calls.clear()
        rep, code, _ = run(["theta", "--example", example, "--max-dim", "4"])
        assert code == 0
        per_input[example] = (len(calls), rep["results"]["theta"]["bounds"]["direct_squares"])
    assert per_input == {"bg:z2": (1589, 2436), "bg:z3": (1589, 5102)}


def test_example_refuses_an_oversized_group_table(capsys):
    # the level-D composition table of bg:z<m> has m^(2D) entries; past
    # the budget the request exits 2, naming the size, before anything is
    # built
    from nervekit.generators import MAX_TABLE_ENTRIES, _group_table_entries

    # the largest example a test builds, bg:z5 at D = 4, is well inside
    assert 5 * _group_table_entries(5, 4) <= MAX_TABLE_ENTRIES
    for argv, size in (
        (["example", "--example", "bg:z2", "--max-dim", "30"], "2^60"),
        (["example", "--example", "bg:z99999999999", "--max-dim", "1"], "99999999999^2"),
        (["horncheck", "--example", "bg:z2", "--max-dim", "11"], "2^22"),
        (["example", "--example", "bg:z1", "--max-dim", "1000000000"], "1^2000000000"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and size in err and str(MAX_TABLE_ENTRIES) in err, err
    assert main(["example", "--example", "bg:z2", "--max-dim", "10"]) == 0
    capsys.readouterr()


def test_example_and_in_are_exclusive(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("{}")
    code, _ = invoke(
        ["validate", "--example", "bg:z2", "--in", str(p)], capsys
    )
    assert code == 2


def test_malformed_file_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 0}')
    assert invoke(["validate", "--in", str(p)], capsys)[0] == 2


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    # a file that is not UTF-8 is not a JSON document: exit 2 before any
    # validation, not a validation failure
    p = tmp_path / "ff.json"
    p.write_bytes(b"\xff")
    assert main(["validate", "--in", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nervekit: input error: not valid JSON: 'utf-8' codec can't decode byte 0xff")
    assert "failed validation" not in err


def test_missing_composition_table_is_usage_error(tmp_path, capsys):
    doc = to_json(build_example("discrete:poset012"))
    del doc["comp"][next(iter(doc["comp"]))]
    p = tmp_path / "no_comp.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", "--in", str(p)]) == 2
    assert "composable triple '0,0,0'" in capsys.readouterr().err


def test_planted_fixture_fails_validation(fixtures_dir, capsys):
    code, _ = invoke(
        ["validate", "--in", str(fixtures_dir / "broken_unit_cat.json")], capsys
    )
    assert code == 1
    code, _ = invoke(
        ["validate", "--in", str(fixtures_dir / "clean_relative.json")], capsys
    )
    assert code == 0


def test_horncheck_reaches_dimension_five(capsys):
    code, rep = invoke(["horncheck", "--example", "bg:z3", "--max-dim", "5"], capsys)
    assert code == 0
    horns = rep["results"]["horns"]
    assert len(horns) == 20
    assert all(r["verdict"] == "pass" for r in horns)
    for r in horns:
        n = r["bounds"]["n"]
        assert r["bounds"]["horn_maps"] == (3**n if n >= 2 else 1)


def test_horncheck_failure_exit_code(fixtures_dir, capsys):
    # the walking arrow nerve misses an outer horn filler
    code, rep = invoke(
        ["horncheck", "--in", str(fixtures_dir / "clean_sset.json"), "--max-dim", "2"],
        capsys,
    )
    assert code == 1
    assert any(r["verdict"] == "fail" for r in rep["results"]["horns"])
    # the witnesses read the horn maps' cells; the report names the file
    # as given, so the pin is that of a run from the repository root
    assert sum(len(r["witnesses"]) for r in rep["results"]["horns"]) == 2
    p = fresh(["horncheck", "--in", "tests/fixtures/clean_sset.json", "--max-dim", "2"])
    assert p.returncode == 1
    assert json.loads(p.stdout)["digest"] == "2e540a2f29047c34624629455db45387bfa2ab5f93d12dc2fcea5f546cf3ff52"


def test_emit_cells_artifact_round_trips(capsys):
    code, rep = invoke(
        ["binerve", "--example", "bg:z2", "--max-dim", "2", "--emit-cells"], capsys
    )
    assert code == 0
    art = rep["results"]["artifact"]
    value = from_json(art)
    assert value.space.card(1, 1) == 2


def test_reports_are_deterministic(capsys):
    argv = ["theta", "--example", "bg:z2", "--max-dim", "2", "--rows", "1", "--cols", "1"]
    code1, rep1 = invoke(argv, capsys)
    code2, rep2 = invoke(argv, capsys)
    assert code1 == code2 == 0
    t1, t2 = rep1.pop("timings"), rep2.pop("timings")
    assert rep1 == rep2
    # the digest covers exactly the canonical core
    core = {k: rep1[k] for k in ("command", "inputs", "results")}
    want = hashlib.sha256(canonical_json(core).encode()).hexdigest()
    assert rep1["digest"] == want


def test_out_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["pi0", "--example", "bg:z2", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    saved = json.loads(target.read_text())
    assert saved["results"]["count"] == 1


def test_out_to_an_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(GATED[0] + ["--out", str(target)]) == 2
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"nervekit: cannot write {target}: "), err
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", GATED)
def test_gated_runs_exit_as_they_run_in_process(argv):
    # `python -m nervekit.cli` ends through the program entry, which
    # freezes the collector before the exit
    p = fresh(argv)
    assert p.returncode == 0 and not p.stderr, p.stderr
    rep, code, _ = run(argv)
    assert code == 0
    assert json.loads(p.stdout)["digest"] == rep["digest"]


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["horncheck", "--in", CLEAN_SSET, "--max-dim", "2"], 1, "nervekit: checks failed\n"),
        (["nerve"], 2, "nervekit: an input is required: --example NAME or --in FILE\n"),
        (["compare", "--bogus"], 2, "nervekit: error: unrecognized arguments: --bogus\n"),
    ],
)
def test_fresh_exit_codes_of_failures(argv, code, err):
    # a failed check prints its report before the message; a usage error prints none
    p = fresh(argv)
    assert p.returncode == code
    assert p.stderr.endswith(err), p.stderr
    assert "Traceback" not in p.stderr
    assert bool(p.stdout) == (code == 1)


def test_out_file_holds_the_report_stdout_prints(tmp_path):
    target = tmp_path / "report.json"
    argv = GATED[1] + ["--out", str(target)]
    printed, written = fresh(GATED[1]), fresh(argv)
    assert printed.returncode == written.returncode == 0 and not written.stdout
    text = target.read_text()
    got, want = json.loads(text), json.loads(printed.stdout)
    assert text == json.dumps(got, sort_keys=True, indent=2) + "\n"
    # the command echo names --out, so the digest is that of the same line run in process
    assert got["command"] == want["command"] + ["--out", str(target)]
    assert (got["inputs"], got["results"]) == (want["inputs"], want["results"])
    assert got["digest"] == run(argv)[0]["digest"]
    assert sorted(got) == sorted(want) == ["command", "digest", "inputs", "results", "timings"]


def test_in_process_main_leaves_the_collector_unfrozen(capsys):
    import gc

    before = gc.get_freeze_count()
    assert main(["horncheck", "--example", "bg:z2", "--max-dim", "2"]) == 0
    assert main(["horncheck", "--in", CLEAN_SSET, "--max-dim", "2"]) == 1
    assert main(["nerve"]) == 2
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_program_exits_with_the_code_of_main_and_a_frozen_collector():
    code = (
        "import gc, sys\n"
        "from nervekit.cli import program\n"
        "try:\n"
        "    program()\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    for argv, want in ((["pi0", "--example", "bg:z2"], 0), (["horncheck", "--in", CLEAN_SSET, "--max-dim", "2"], 1), (["nerve"], 2)):
        p = fresh(argv, code)
        assert p.stderr.endswith(f"exit {want} True\n"), p.stderr


def test_script_and_main_block_call_the_same_entry():
    import ast
    import re

    (script,) = re.findall(r'^nervekit = "nervekit\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    tree = ast.parse((ROOT / "src" / "nervekit" / "cli.py").read_text())
    (block,) = [n for n in tree.body if isinstance(n, ast.If) and ast.unparse(n.test) == "__name__ == '__main__'"]
    assert [ast.unparse(n) for n in block.body] == [f"{script}()"]


def test_in_file_is_read_once_and_digested_as_parsed(monkeypatch):
    # the echoed digest is that of the very bytes the schema reader parsed
    import builtins

    import nervekit.schema as schema

    opened, parsed = [], []
    real_open, real_loads = builtins.open, schema.loads

    def counting_open(file, *args, **kwargs):
        if str(file) == CLEAN_SSET:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    def recording_loads(text, name=""):
        parsed.append(text)
        return real_loads(text, name)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(schema, "loads", recording_loads)
    rep, code, _ = run(["validate", "--in", CLEAN_SSET])
    assert code == 0 and len(opened) == 1 and len(parsed) == 1
    assert rep["inputs"] == {"file": CLEAN_SSET, "digest": hashlib.sha256(parsed[0]).hexdigest()}
    with real_open(CLEAN_SSET, "rb") as fh:
        assert parsed[0] == fh.read()


def test_run_returns_report_and_code():
    rep, code, out = run(["example"])
    assert code == 0
    assert "available" in rep["results"]
    assert out is None
