"""Command line driver: verbs, exit codes, report determinism."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from nervekit.cli import COMMANDS, _parser, main, run
from nervekit import build_example
from nervekit.schema import from_json
from nervekit.serialize import canonical_json, to_json


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
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "nervekit.cli", "homology", "--example", "bg:z2", "--max-dim", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
    args = _parser(verb).parse_args(argv)
    assert (args.command, args.max_dim, args.rows, args.cols, args.coeff) == (verb, 3, 1, 2, "f2")
    assert (args.infile, args.out, args.emit_cells, args.example) == ("a.json", "b.json", True, "bg:z2")
    assert getattr(args, "max_cosimplicial", None) == (2 if verb == "uniq-check" else None)


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
# `example` before compositions were stored as per-level tables)
DIGEST_PINS = [
    ("compare --example bg:z2 --max-dim 3 --coeff f2", "2d0bcd5c0308c6738f3b7c0e5291c7a33101183d717d86adc5f3fae643c30eab"),
    ("compare --example bg:z2 --max-dim 3", "a04862a7efd985e5e160086d4066bcf7de576c37418322a66a2d0daf0c6f8a59"),
    ("compare --example bg:z3 --max-dim 2 --coeff f2", "52e009ad064ee8cb8e5c18694ddf1b6cec72fb505bc50690b777e15b9486579c"),
    ("compare --example discrete:poset012 --max-dim 3", "d536c0ec3091b6b01e3fd5dd46d6bba6201709c6e888696ce94b66bae67673b3"),
    ("compare --example two-object-interval --max-dim 2", "269fbff00c72824318fd281d87729759dcccd01fbf3e45b73912e57bd7660538"),
    ("compare --example poset:a<b,a<c,b<d,c<d --max-dim 3", "baa713f0882e4f4ca0b5de94d7839e9294e27c437262953af97608c8ab6fbabe"),
    ("theta --example bg:z2 --max-dim 4", "df24687e8f32d8bac7d5fae482802541565e8d26d1431d5f9f1125d6436bf548"),
    ("theta --example bg:z2 --max-dim 5", "a66cbbf36676b84e36f6e2c5276a2c87fec6c0fe80507d3d668e3fe19dccd48c"),
    ("theta --example two-object-interval --max-dim 3", "52552f912a0d331768cdf886c527de73ffd2523f5c7efb69eef935368d97fec3"),
    ("cls --example bg:z2 --max-dim 2 --emit-cells", "c11705718a3430627f2727c39d916ed2f958a44a0ba08e0864e21d79b9554403"),
    ("cls --example bg:z3 --max-dim 3 --emit-cells", "3c943af30bdbcde32c72e3954e1aaf0ecf1614aaa9b0904c9f6a2c194fb2243a"),
    ("cls --example two-object-interval --max-dim 4 --emit-cells", "9357d15663800d0a945577f3927593e959ed1df8a22f531e80c6e33154778aed"),
    ("cls --example poset:a<b,a<c,b<d,c<d --max-dim 3 --emit-cells", "15dc5823c18f7d6379d593ecef1f08872149791e708aa2869c0ca81b0b5bac51"),
    ("hcnerve --example bg:z3 --max-dim 3 --emit-cells", "49d0b16961fdda7ad19cc2f2a1699693b308fefa6880a4892226e2947771bd39"),
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


@pytest.mark.parametrize("command, want", DIGEST_PINS)
def test_report_digest_is_pinned(command, want):
    rep, code, _ = run(command.split())
    assert code == 0
    assert rep["digest"] == want


def test_failing_uniqueness_digest_is_pinned():
    # at N = 1 the search finds more than the canonical family; this is
    # the one pinned report whose witnesses print vertex signatures
    rep, code, _ = run(["uniq-check", "--max-cosimplicial", "1"])
    assert code == 1 and rep["results"]["uniqueness"]["verdict"] == "fail"
    assert rep["digest"] == "0c30d141ceabb3ca1b978095b6b0cb853925c0a4c7da2c4a5881a966cfb54795"


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


def test_run_returns_report_and_code():
    rep, code, out = run(["example"])
    assert code == 0
    assert "available" in rep["results"]
    assert out is None
