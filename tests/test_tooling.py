"""Repository tooling: the traced benchmark run, start-up imports and the package's dependencies."""
import ast
import importlib
import importlib.util
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


def test_horn_check_enumerates_once_through_module_global(monkeypatch):
    # the traced run pairs each horn_check span with the one enumerate_maps
    # call inside it, looked up through verify's module global
    from nervekit import cyclic_group_category, horn, nerve_cat, verify

    calls = []
    original = verify.enumerate_maps

    def counting(A, X):
        result = original(A, X)
        calls.append((A, X))
        return result[1:]

    monkeypatch.setattr(verify, "enumerate_maps", counting)
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


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "nervekit").glob("*.py"))
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
