"""Run one nervekit command line with spans around the calls into each layer.

    python3 bench/trace_child.py OUT.json VERB [ARGS...]

Wraps the public functions listed in TRACED in every ``nervekit`` module
that holds them, so calls between modules and within one are both seen.
Then runs ``nervekit.cli.main`` on the arguments, so the report, the
error messages and the exit code are those of the ``nervekit`` command,
and writes the spans, the per-layer metrics and the cell counts the
oracle needs to OUT.json. Spans stay in memory until the run ends.

When a call in COUNTED returns, its wrapper reduces the arguments and the
result to the few numbers the counters need and drops its references to
them, so the traced run keeps no object alive that the untraced run
would free. That reduction runs after the call's span has closed, inside
its parent's span; its total is reported as ``trace.bookkeeping_s``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from collections import Counter

TRACED = (
    "cli.run",
    "generators.build_example",
    "serialize.to_json",
    "serialize.digest",
    "nerves.classifying_space",
    "nerves.levelwise_nerve",
    "nerves.coherent_nerve",
    "nerves.comparison_map",
    "nerves.consistency_check",
    "bisset.diagonal",
    "cat.comparison_functor",
    "cat.compose_functors",
    "cat.grid_collapse",
    "sset.validate_map",
    "sset.enumerate_maps",
    "homology.homology",
    "homology.induced_chain_iso",
    "homology.smith_normal_form",
    "verify.horn_check",
)

LAYERS = ("cli", "generators", "serialize", "nerves", "cat", "bisset", "sset", "homology", "verify")
MAX_DEGREE = 4


def _bound(fn, args, kwargs):
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _nondeg(spaces, top: int) -> tuple:
    """Nondegenerate cells per degree up to ``top``, summed over the spaces."""
    return tuple(sum(len(X.nondegenerate_cells(n)) for X in spaces) for n in range(min(top, MAX_DEGREE) + 1))


def _fillers(X, n: int, k: int, maps) -> int:
    """Fillers over all horn maps, counted by matching each n-cell's horn faces."""
    from nervekit.sset import act, horn

    H = horn(n, k)
    top = H.nondegenerate_cells(n - 1)
    labels = [H.label(n - 1, c) for c in top]
    index = Counter(tuple(act(X, n, z, lab) for lab in labels) for z in range(X.card(n)))
    return sum(index[tuple(h.apply(n - 1, c) for c in top)] for h in maps)


class Tracer:
    """Spans as [id, parent id, name, start, end], plus the reduced counted calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counted: dict[str, list] = {name: [] for name in COUNTED}
        # enumerate_maps results, held only until the horn_check around them returns
        self.horn_maps: dict[int, list] = {}
        self.bookkeeping_s = 0.0

    def wrap(self, name: str, fn):
        reduce = COUNTED.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, name, clock(), None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if reduce is not None:
                value = reduce(self, rec, fn, args, kwargs, result)
                if value is not None:
                    self.counted[name].append(value)
                self.bookkeeping_s += clock() - rec[4]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each traced function in every nervekit module holding it."""
        modules = [m for k, m in sys.modules.items() if k == "nervekit" or k.startswith("nervekit.")]
        for qual in TRACED:
            mod, fname = qual.split(".")
            original = getattr(sys.modules[f"nervekit.{mod}"], fname)
            wrapper = self.wrap(qual, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def _homology(t, rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    X = a["X"]
    return _nondeg([X], (X.D - 1 if a["max_deg"] is None else a["max_deg"]) + 1)


def _chain_iso(t, rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    f = a["f"]
    top = (min(f.source.D, f.target.D) - 1 if a["max_deg"] is None else a["max_deg"]) + 1
    return _nondeg([f.source, f.target], top)


def _enumerate_maps(t, rec, fn, args, kwargs, result):
    parent = rec[1]
    if parent is not None and t.spans[parent][2] == "verify.horn_check":
        t.horn_maps[parent] = result
    return None


def _horn_check(t, rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    X, n, k = a["X"], a["n"], a["k"]
    maps = t.horn_maps.pop(rec[0])
    return len(maps), len(maps) * X.card(n), _fillers(X, n, k, maps)


def _snf(t, rec, fn, args, kwargs, result):
    A = args[0]
    return len(A) * (len(A[0]) if A else 0), hashlib.sha256(repr(A).encode()).hexdigest()


# How each counted call is reduced once it returns.
COUNTED = {
    "nerves.levelwise_nerve": lambda t, rec, fn, a, kw, r: sum(sum(row) for row in r.counts()),
    "nerves.coherent_nerve": lambda t, rec, fn, a, kw, r: r.counts(),
    "nerves.classifying_space": lambda t, rec, fn, a, kw, r: r.counts(),
    "bisset.diagonal": lambda t, rec, fn, a, kw, r: r.counts(),
    "nerves.comparison_map": lambda t, rec, fn, a, kw, r: sum(r.source.counts()),
    "nerves.consistency_check": lambda t, rec, fn, a, kw, r: sum(r.bounds.values()),
    "sset.validate_map": lambda t, rec, fn, a, kw, r: r.checked,
    "sset.enumerate_maps": _enumerate_maps,
    "homology.homology": _homology,
    "homology.induced_chain_iso": _chain_iso,
    "homology.smith_normal_form": _snf,
    "verify.horn_check": _horn_check,
}


def metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics and the constructed level counts, from spans and counted calls."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    self_time: Counter = Counter()
    child_time: Counter = Counter()
    for sid, parent, name, start, end in spans:
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
        # a recursive call is already inside its outermost span
        p = parent
        while p is not None and by_id[p][2] != name:
            p = by_id[p][1]
        if p is None:
            inclusive[name] += end - start
    for sid, parent, name, start, end in spans:
        self_time[name.split(".")[0]] += end - start - child_time[sid]

    out: dict = {f"layer.{layer}.self_s": self_time[layer] for layer in LAYERS}
    for name in ("generators.build_example", "nerves.comparison_map", "nerves.consistency_check",
                 "nerves.coherent_nerve", "nerves.levelwise_nerve", "bisset.diagonal",
                 "cat.comparison_functor", "sset.validate_map", "sset.enumerate_maps",
                 "homology.homology", "homology.induced_chain_iso", "homology.smith_normal_form",
                 "verify.horn_check", "cli.run"):
        out[f"{name}.s"] = inclusive[name]
    out["serialize.input_digest.s"] = inclusive["serialize.to_json"] + inclusive["serialize.digest"]
    for name in ("cat.comparison_functor", "cat.compose_functors", "cat.grid_collapse",
                 "homology.smith_normal_form", "verify.horn_check"):
        out[f"{name}.calls"] = calls[name]

    c = tracer.counted
    sizes = {name: list(c[name][0]) for name in ("nerves.coherent_nerve", "bisset.diagonal",
                                                 "nerves.classifying_space") if c[name]}
    out["nerves.levelwise_nerve.cells"] = sum(c["nerves.levelwise_nerve"])
    for name in ("nerves.coherent_nerve", "bisset.diagonal"):
        out[f"{name}.cells"] = sum(sum(levels) for levels in c[name])
    out["nerves.comparison_map.cells"] = sum(c["nerves.comparison_map"])
    out["nerves.consistency_check.instances"] = sum(c["nerves.consistency_check"])
    out["sset.validate_map.checked"] = sum(c["sset.validate_map"])
    nondeg = [0] * (MAX_DEGREE + 1)
    for per_degree in c["homology.homology"] + c["homology.induced_chain_iso"]:
        for n, count in enumerate(per_degree):
            nondeg[n] += count
    for n, count in enumerate(nondeg):
        out[f"sset.nondeg_cells.{n}"] = count
    snf = c["homology.smith_normal_form"]
    distinct = len({key for _, key in snf})
    out["homology.smith_normal_form.distinct"] = distinct
    out["homology.smith_normal_form.useful_ratio"] = distinct / len(snf) if snf else 0.0
    out["homology.smith_normal_form.max_entries"] = max((entries for entries, _ in snf), default=0)
    horns = c["verify.horn_check"]
    scanned = sum(s for _, s, _ in horns)
    out["verify.horn_check.horn_maps"] = sum(m for m, _, _ in horns)
    out["verify.horn_check.cells_scanned"] = scanned
    out["verify.horn_check.fill_ratio"] = sum(f for _, _, f in horns) / scanned if scanned else 0.0
    out["trace.bookkeeping_s"] = tracer.bookkeeping_s
    return out, sizes


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    import nervekit  # noqa: F401  (loads every module before wrapping)
    from nervekit import cli

    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_argv)
    values, sizes = metrics(tracer)
    with open(out_path, "w") as fh:
        json.dump({"metrics": values, "sizes": sizes, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
