"""Repository tooling: the traced benchmark run, start-up imports, the package's dependencies and its table-backed compositions."""
import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACE_CHILD = ROOT / "bench" / "trace_child.py"


def _traced():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    return trace_child.TRACED


def _fresh_modules(code: str) -> set:
    """The names in ``sys.modules`` after running ``code`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for qual in traced:
        mod, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"nervekit.{mod}"), name, None)), qual


def test_traced_functions_are_defined_in_their_home_module():
    # the tracer wraps each function where it is defined, and a module
    # loaded on first call binds the wrapper by importing from there
    for qual in _traced():
        mod, name = qual.split(".")
        assert getattr(importlib.import_module(f"nervekit.{mod}"), name).__module__ == f"nervekit.{mod}", qual


def test_horn_check_enumerates_once_through_module_global(monkeypatch):
    # the traced run pairs each horn_check span with the one enumerate_maps
    # call inside it, looked up through the module global of `horns`, which
    # holds the body of `verify.horn_check`
    from nervekit import cyclic_group_category, horn, horns, nerve_cat, verify

    calls = []
    original = horns.enumerate_maps

    def counting(A, X):
        result = original(A, X)
        calls.append((A, X))
        return result[1:]

    monkeypatch.setattr(horns, "enumerate_maps", counting)
    X = nerve_cat(cyclic_group_category(2), 3)
    for n in (2, 3):
        for k in range(n + 1):
            calls.clear()
            rep = verify.horn_check(X, n, k)
            assert len(calls) == 1
            A, target = calls[0]
            assert A == horn(n, k) and target is X
            # the dropped first map shows in the report
            assert rep.bounds["horn_maps"] == 2 ** n - 1


def _seed_counts(workload: str) -> dict:
    """The traced counts ``bench/test_bench.py`` pins for a workload,
    read from its ``SEED_COUNTS`` without importing the module."""
    tree = ast.parse((ROOT / "bench" / "test_bench.py").read_text())
    node = next(n.value for n in tree.body if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "SEED_COUNTS")
    return eval(compile(ast.Expression(node), "SEED_COUNTS", "eval"))[workload]


def test_traced_horncheck_reads_the_horn_maps(tmp_path):
    # the traced run keeps the enumerate_maps result nested under each
    # verify.horn_check and counts the fillers of its maps through
    # h.apply on the horn's top cells
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(TRACE_CHILD), str(out), "horncheck", "--example", "bg:z3", "--max-dim", "4"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(out.read_text())["metrics"]
    want = _seed_counts("horncheck-bgz3-D4")
    names = ("horn_maps", "cells_scanned", "fill_ratio")
    assert [want[f"verify.horn_check.{name}"] for name in names] == [542, 35970, 546 / 35970]
    for name in names:
        assert metrics[f"verify.horn_check.{name}"] == want[f"verify.horn_check.{name}"], name


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "nervekit").rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (path.name, module)


def test_nothing_needs_a_finalizer_at_shutdown():
    # `cli.program` freezes the collector before the exit, and a frozen
    # object's finalizer never runs: no class may define `__del__`, nothing
    # may register `weakref.finalize`, and each file opened, read or
    # written, is closed by its `with` block
    openers = []
    for path in sorted((ROOT / "src" / "nervekit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        with_items = {id(item.context_expr) for n in ast.walk(tree) if isinstance(n, ast.With) for item in n.items}
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.FunctionDef) and node.name == "__del__"), path.name
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # the other finalizer, `weakref.finalize`
                assert "weakref" not in [getattr(node, "module", None)] + [a.name for a in node.names], path.name
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                assert id(node) in with_items, (path.name, node.lineno)
                openers.append(path.name)
    # the report and cell writers, and the `--in` reader, which digests
    # the bytes it parses
    assert sorted(openers) == ["cli.py", "schema.py", "serialize.py"]


def _calls_with_owner(tree):
    """(innermost enclosing function, or the module, and call) for every call."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((owner, child))
            visit(child, child if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, tree)
    return out


def test_compositions_and_hom_maps_are_tables():
    # a function that builds a category defines no function, so no
    # composition it stores can be a closure; a hom map computed by
    # ``fn`` is built only for the lazy power homs of _interval_transform
    lazy_maps = set()
    for path in sorted((ROOT / "src" / "nervekit").glob("*.py")):
        for owner, call in _calls_with_owner(ast.parse(path.read_text(), filename=str(path))):
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if callee in ("FiniteCategory", "SimplicialCategory"):
                defs = [n for n in ast.walk(owner) if isinstance(n, (ast.Lambda, ast.FunctionDef)) and n is not owner]
                assert not defs, (path.name, getattr(owner, "name", "<module>"))
            if callee == "SimplicialMap" and any(k.arg == "fn" for k in call.keywords):
                lazy_maps.add((path.name, getattr(owner, "name", "<module>")))
    assert lazy_maps == {("gadgets.py", "_interval_transform")}


def test_names_resolve_from_the_package_or_their_defining_module():
    # a module-level __getattr__ is a second route to a name; the package
    # keeps one for its lazy names, and `sset` one for the two names
    # bench/trace_child.py imports from there
    hooks = {}
    for path in sorted((ROOT / "src" / "nervekit").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__getattr__" for t in node.targets):
                hooks[path.name] = node.value
    assert sorted(hooks) == ["__init__.py", "sset.py"]
    call = hooks["sset.py"]
    assert getattr(call.func, "id", None) == "lazy"
    assert sorted(ast.literal_eval(call.args[1])) == ["act", "horn"]


def test_inputs_load_once_and_gated_builders_read_the_families():
    # every verb with an input loads it at one call site, and the gated
    # builders take their faces and degeneracies from `sset._families`
    package = ROOT / "src" / "nervekit"
    cli = ast.parse((package / "cli.py").read_text())
    loads = [n for n in ast.walk(cli) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_load_input"]
    assert len(loads) == 1
    for module, function in (("bisimplicial.py", "_diagonal"), ("maps.py", "_validate_map")):
        tree = ast.parse((package / module).read_text())
        (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
        assert "_families" in {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}, function


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, dis, ast and tokenize: about 15 ms of
    # every nervekit process
    added = _fresh_modules("import nervekit.cli") - _fresh_modules("pass")
    assert "nervekit.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added & {"dataclasses", "inspect"})


def test_package_import_loads_every_traced_module():
    # bench/trace_child.py imports nervekit and nervekit.cli, then wraps the
    # functions it finds in sys.modules, so every other traced module must
    # load with `import nervekit`
    loaded = _fresh_modules("import nervekit")
    for qual in _traced():
        mod = qual.split(".")[0]
        assert mod == "cli" or f"nervekit.{mod}" in loaded, qual


# the modules only `validate`, `--in`, `cls`, `theta`, `uniq-check` and
# the verbs on discrete, marked or product inputs need, with the public
# names the package resolves from them
LAZY_MODULES = {
    "axioms": (
        "validate_bisset",
        "validate_functor",
        "validate_relative",
        "validate_simplicial_category",
        "validate_sset",
    ),
    "classification": ("classification_comparison", "classification_diagram", "theta_cell_value"),
    "components": ("from_level_labels", "pi0"),
    "discrete": ("discrete_simplicial_category", "level_category", "poset_category"),
    "functors": ("SimplicialFunctor", "functors_equal"),
    "gadgets": (
        "coherent_path_category",
        "enumerate_simplicial_functors",
        "path_functor",
        "poset_nerve",
        "simplex_power_category",
        "simplex_power_transform",
    ),
    "marked": ("MarkedBisimplicialSet", "MarkedSimplicialSet", "diagonal_marked", "levelwise_nerve_marked"),
    "schema": ("load",),
    "segal": ("fiber_check", "segal_column_check"),
    "spaces": ("ProductSset", "act", "materialize", "product", "subcomplex", "vertices"),
    "uniqueness": ("uniqueness_report", "uniqueness_search"),
}


def _cli_modules(argv: list) -> set:
    """``sys.modules`` at the end of a fresh ``python -m nervekit.cli`` run."""
    code = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['nervekit'] + {argv!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('nervekit.cli', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
    )
    return _fresh_modules(code)


def test_gated_verbs_load_no_lazy_module():
    lazy = {f"nervekit.{m}" for m in LAZY_MODULES}
    for argv in (
        ["horncheck", "--example", "bg:z3", "--max-dim", "4"],
        ["compare", "--example", "bg:z2", "--max-dim", "3", "--coeff", "f2"],
    ):
        loaded = _cli_modules(argv)
        assert "nervekit.verify" in loaded
        assert not loaded & lazy, (argv, sorted(loaded & lazy))
    assert not _fresh_modules("import nervekit") & lazy
    # the verbs that need them do load them
    assert "nervekit.classification" in _cli_modules(["cls", "--example", "bg:z2", "--max-dim", "1"])
    loaded = _cli_modules(["validate", "--in", str(ROOT / "tests" / "fixtures" / "clean_relative.json")])
    assert {"nervekit.schema", "nervekit.axioms"} <= loaded, sorted(loaded & lazy)
    loaded = _cli_modules(["binerve", "--example", "discrete:poset01", "--max-dim", "2"])
    assert {"nervekit.discrete", "nervekit.marked"} <= loaded, sorted(loaded & lazy)
    assert "nervekit.discrete" in _cli_modules(["nerve", "--example", "bg:z2"])
    loaded = _cli_modules(["uniq-check", "--max-cosimplicial", "2"])
    assert {"nervekit.functors", "nervekit.uniqueness"} <= loaded, sorted(loaded & lazy)


# the modules the entry points of `nerves`, `homology`, `bisset`, `cat`,
# `sset`, `verify` and `serialize` import when first called (their bodies,
# the cell formulas, the kernels, the horns and the whole-table views), with
# the public names the package resolves from them
FIRST_CALL_MODULES = {
    "bisimplicial": ("BisimplicialSet",),
    "bitables": (),
    "chains": (),
    "coherent": (),
    "comparison": ("comparison_cell",),
    "groups": ("HomologyReport",),
    "horns": ("horn", "standard_simplex"),
    "integer": (),
    "maps": ("compose_maps",),
    "posets": ("FinitePoset", "path_poset"),
}


def test_cell_formulas_and_kernels_load_on_first_call():
    first_call = {f"nervekit.{m}" for m in FIRST_CALL_MODULES}
    assert not _fresh_modules("import nervekit.cli") & first_call
    loaded = _cli_modules(["horncheck", "--example", "bg:z3", "--max-dim", "4"])
    assert "nervekit.verify" in loaded and loaded & first_call == {"nervekit.horns"}, sorted(loaded & first_call)
    loaded = _cli_modules(["compare", "--example", "bg:z2", "--max-dim", "3", "--coeff", "f2"])
    assert loaded & first_call == {
        f"nervekit.{m}" for m in ("bisimplicial", "chains", "coherent", "comparison", "maps", "posets")
    }
    loaded = _cli_modules(["homology", "--example", "bg:z2", "--max-dim", "2"])
    assert loaded & first_call == {f"nervekit.{m}" for m in ("bisimplicial", "chains", "groups", "integer")}


def _source_bytes(modules: set) -> int:
    """Source bytes of the ``nervekit`` modules among ``modules``."""
    package = ROOT / "src"
    total = 0
    for name in modules:
        path = package.joinpath(*name.split("."))
        if name.split(".")[0] == "nervekit":
            total += (path / "__init__.py" if path.is_dir() else path.with_suffix(".py")).stat().st_size
    return total


def _compiled_bytes(argv: list) -> int:
    """Source bytes of the ``nervekit`` modules a fresh ``python -m
    nervekit.cli`` run leaves in ``sys.modules``, with `cli.py`, which
    runs as ``__main__``."""
    return _source_bytes(_cli_modules(argv) | {"nervekit.cli"})


def test_gated_verbs_compile_little_source():
    # the benchmark host sets PYTHONDONTWRITEBYTECODE=1, so a gated
    # process compiles every module it loads; horncheck compiled 118.6 KB
    # when the traced modules held every construction, 77.7 KiB while
    # `cli` held every verb and 72.4 KiB while `cat` held
    # `from_level_labels`, and compare 132.9 KB while `sset` held the
    # horns, 121.7 KiB while `cli` held every verb and 109.6 KiB while
    # `cat` held `from_level_labels` and coherent-nerve cells stored
    # degenerate chains; 71.95 and 108.1 KiB while chain cells were
    # labelled by morphism triples, 71.9 and 107.2 KiB while `horns` held
    # `subcomplex` and horn maps stored every cell, 70.67 and 107.1 KiB
    # while horn maps read their cells through a block layout and
    # `SimplicialSet` copied the lists it was given
    assert _compiled_bytes(["horncheck", "--example", "bg:z3", "--max-dim", "4"]) <= 70.39 * 1024
    assert _compiled_bytes(["compare", "--example", "bg:z2", "--max-dim", "3", "--coeff", "f2"]) <= 107.04 * 1024


def test_setup_probe_compiles_little_source():
    # the benchmark's set-up probe imports nervekit, then builds and
    # digests an example; it compiled 54.5 KiB before `verify.horn_check`
    # became a delegate, 53.6 KiB while `cat` held `from_level_labels`
    # and 53.2 KiB while chain cells were labelled by morphism triples
    # and bg:z<m> composition tables were built entry by entry, 53.13 KiB
    # while `SimplicialSet` copied the lists it was given
    code = (
        "import nervekit\n"
        "from nervekit.serialize import to_json\n"
        "nervekit.digest(to_json(nervekit.build_example('bg:z2', 3)))\n"
    )
    assert _source_bytes(_fresh_modules(code)) <= 53.09 * 1024


# one command line per verb that runs it to a zero exit
VERB_RUNS = {
    "validate": ["validate", "--example", "bg:z2", "--max-dim", "1"],
    "nerve": ["nerve", "--example", "bg:z2", "--max-dim", "1"],
    "binerve": ["binerve", "--example", "bg:z2", "--max-dim", "1"],
    "hcnerve": ["hcnerve", "--example", "bg:z2", "--max-dim", "1"],
    "bspace": ["bspace", "--example", "bg:z2", "--max-dim", "1"],
    "diag": ["diag", "--example", "bg:z2", "--max-dim", "1"],
    "compare": ["compare", "--example", "bg:z2", "--max-dim", "1"],
    "cls": ["cls", "--example", "bg:z2", "--max-dim", "1"],
    "theta": ["theta", "--example", "bg:z2", "--max-dim", "1"],
    "homology": ["homology", "--example", "bg:z2", "--max-dim", "1"],
    "pi0": ["pi0", "--example", "bg:z2", "--max-dim", "1"],
    "horncheck": ["horncheck", "--example", "bg:z2", "--max-dim", "1"],
    "uniq-check": ["uniq-check", "--max-cosimplicial", "2"],
    "example": ["example"],
}


def test_each_verb_loads_only_its_own_handler():
    from nervekit.cli import COMMANDS

    assert sorted(VERB_RUNS) == sorted(COMMANDS)
    handler = {verb: "nervekit.verbs." + verb.replace("-", "_") for verb in COMMANDS}
    for verb, argv in VERB_RUNS.items():
        loaded = _cli_modules(argv)
        assert loaded & set(handler.values()) == {handler[verb]}, (verb, sorted(loaded & set(handler.values())))
    assert not {m for m in _fresh_modules("import nervekit.cli") if m.startswith("nervekit.verbs.")}


def test_tracer_reaches_functions_loaded_on_first_call(tmp_path):
    # the helpers loaded on first call still reach the functions the
    # tracer wrapped: the consistency check builds its levelwise nerve,
    # and the integer chain check runs Smith normal forms, inside spans
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def traced_spans(name, argv):
        out = tmp_path / f"trace-{name}.json"
        subprocess.run([sys.executable, str(TRACE_CHILD), str(out), *argv], env=env, capture_output=True, check=True, timeout=120)
        return {sid: (parent, name) for sid, parent, name, _, _ in json.loads(out.read_text())["spans"]}

    def under(spans, name, ancestor):
        found = False
        for parent, span_name in spans.values():
            if span_name != name:
                continue
            while parent is not None and spans[parent][1] != ancestor:
                parent = spans[parent][0]
            found = found or parent is not None
        return found

    for coeff in ("f2", "z"):
        spans = traced_spans(coeff, ["compare", "--example", "bg:z2", "--max-dim", "2", "--coeff", coeff])
        assert under(spans, "nerves.levelwise_nerve", "nerves.consistency_check"), coeff
        assert under(spans, "homology.smith_normal_form", "homology.induced_chain_iso") == (coeff == "z")
        # the bodies loaded on first call bind the traced entry points
        assert under(spans, "nerves.coherent_nerve", "nerves.comparison_map"), coeff
        assert under(spans, "bisset.diagonal", "nerves.comparison_map"), coeff
    spans = traced_spans("horncheck", ["horncheck", "--example", "bg:z3", "--max-dim", "2"])
    assert under(spans, "sset.enumerate_maps", "verify.horn_check")
    spans = traced_spans("homology", ["homology", "--example", "bg:z2", "--max-dim", "2"])
    assert under(spans, "homology.smith_normal_form", "homology.homology")


def test_moved_names_import_from_the_package():
    import nervekit

    by_module = {**LAZY_MODULES, **FIRST_CALL_MODULES}
    for module, names in by_module.items():
        mod = importlib.import_module(f"nervekit.{module}")
        for name in names:
            assert getattr(nervekit, name) is getattr(mod, name)
            assert name in vars(nervekit)  # resolved once, then a plain attribute
    assert sorted(nervekit._LAZY) == sorted(n for ns in by_module.values() for n in ns)
    names = sorted(nervekit._LAZY)
    loaded = _fresh_modules(f"from nervekit import {', '.join(names)}")
    assert {f"nervekit.{m}" for m, ns in by_module.items() if ns} <= loaded
    try:
        nervekit.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("unknown names must raise AttributeError")


# the public names that moved out of the modules `import nervekit` loads,
# which still resolve from there: bench/trace_child.py imports these
MOVED_NAMES = {"sset": ("act", "horn")}


def test_thinned_modules_resolve_their_moved_names():
    for home, names in MOVED_NAMES.items():
        mod = importlib.import_module(f"nervekit.{home}")
        for name in names:
            value = getattr(mod, name)
            assert value.__module__ != mod.__name__, (home, name)
            assert value is getattr(importlib.import_module(value.__module__), name), (home, name)
        try:
            getattr(mod, "no_such_name")
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown names must raise AttributeError")
    # none of them is compiled by `import nervekit`
    code = "import nervekit\n" + "".join(
        f"assert not {{{', '.join(map(repr, names))}}} & set(vars(nervekit.{home}))\n" for home, names in MOVED_NAMES.items()
    )
    _fresh_modules(code)


def _parse_stderr(parser, argv: list) -> tuple:
    import contextlib
    import io

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_one_verb_parser_errs_as_the_full_parser():
    import nervekit.cli as cli
    from nervekit.usage import parser

    full = parser(cli.OPTIONS, cli.__doc__)
    for argv in (["compare", "--bogus"], ["compare", "--max-dim", "x"], ["horncheck", "extra"], ["cls", "--coeff", "q"]):
        one = parser(cli.OPTIONS, cli.__doc__, argv[0])
        assert one.format_usage() == full.format_usage()
        code, err = _parse_stderr(one, argv)
        assert code == 2 and err
        assert (code, err) == _parse_stderr(full, argv), argv


ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


def test_well_formed_lines_load_no_argparse():
    # the table in `nervekit.cli` parses them; argparse, with the gettext
    # and locale it loads, cost about 5 ms of each run
    for argv in [
        ["horncheck", "--example", "bg:z3", "--max-dim", "4"],
        ["compare", "--example", "bg:z2", "--max-dim", "3", "--coeff", "f2"],
        *VERB_RUNS.values(),
    ]:
        loaded = _cli_modules(argv)
        assert "nervekit.cli" not in loaded, argv  # it runs as __main__, once
        assert not loaded & ARGPARSE_MODULES, (argv, sorted(loaded & ARGPARSE_MODULES))


def test_help_and_usage_errors_load_argparse_and_print_the_reference_text(monkeypatch):
    from cli_reference import parse_outcome, reference_parser

    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for argv, exit_code in ((["-h"], 0), (["compare", "-h"], 0), (["compare", "--bogus"], 2)):
        code = (
            "import contextlib, io, json, runpy, sys\n"
            f"sys.argv = ['nervekit'] + {argv!r}\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "    try:\n"
            "        runpy.run_module('nervekit.cli', run_name='__main__', alter_sys=True)\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(json.dumps([code, out.getvalue(), err.getvalue(), sorted(sys.modules)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
        got, out, err, loaded = json.loads(proc.stdout)
        assert ARGPARSE_MODULES <= set(loaded) and "nervekit.usage" in loaded, argv
        assert "nervekit.cli" not in loaded, argv
        assert (got, out, err) == (exit_code, *parse_outcome(reference_parser(), argv)[1:3]), argv


def test_cli_imports_no_argparse():
    # argparse loads only with `nervekit.usage`, which imports nothing from
    # `nervekit.cli`: under `python -m nervekit.cli` that would compile
    # and run the driver a second time
    package = ROOT / "src" / "nervekit"

    def imported(module):
        tree = ast.parse((package / module).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add("." * node.level + (node.module or ""))
        return names

    assert "argparse" not in imported("cli.py")
    assert "argparse" in imported("usage.py")
    assert not imported("usage.py") & {".cli", "nervekit.cli", "."}, sorted(imported("usage.py"))
