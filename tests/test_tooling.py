"""The traced benchmark run names only functions the package still has."""
import importlib
import importlib.util
import pathlib

TRACE_CHILD = pathlib.Path(__file__).resolve().parent.parent / "bench" / "trace_child.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.TRACED
    for qual in trace_child.TRACED:
        mod, name = qual.split(".")
        assert callable(getattr(importlib.import_module(f"nervekit.{mod}"), name, None)), qual
