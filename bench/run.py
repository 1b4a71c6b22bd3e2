"""nervekit benchmark: fixed CLI workloads, timed from outside, checked by exact oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the root of a source checkout; it runs ``src/nervekit`` from
there. Each sample is one fresh ``python3 -m nervekit.cli`` process, the
way a user asks one question per ``nervekit <verb>`` call: a closed loop
with one client and one child process at a time. Samples start while the
next one is predicted to end within ``--seconds``; at least one runs.

``--trace 0`` measures wall time, child CPU time and peak resident
memory per sample. Just before each sample, and once after the last, it
runs ``bench/reference.py``, a fixed standard-library computation, and
divides the sample's wall and CPU time by the mean of the two reference
runs around it: ``wall_rel`` and ``cpu_rel`` are the medians of these
quotients, in which most host drift cancels. The raw times are printed
beside them. Before each sample, and at least eight times in all, it
times the set-up: a process that imports nervekit and builds and digests
the workload input; ``setup_s`` is their median. ``--trace 1`` alternates
untraced samples with samples run through ``bench/trace_child.py``, which
times the calls into each module, and writes all spans to
``.bench_out/``.

``--workload all`` interleaves the four workloads in ``WORKLOADS`` sample
by sample, for ``--seconds`` each, so keep ``--seconds`` at 40 or less.
``BENCHMARK.json`` times two of them. The probes in ``KNOWN_DEFECTS`` run
only by name.

Every report is checked against its workload's oracle; a sample that
exits nonzero or disagrees counts as failed. Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import KNOWN_DEFECTS, WORKLOADS, Workload  # noqa: E402

SETUP_RUNS = 8
SETUP_PER_STEP = 1
DEADLINE_S = 170.0
OUT_DIR = ".bench_out"
SETUP_CODE = (
    "import sys, nervekit\n"
    "from nervekit.serialize import to_json\n"
    "nervekit.digest(to_json(nervekit.build_example(sys.argv[1], int(sys.argv[2]))))\n"
)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int
    stdout: bytes
    stderr: bytes
    # exec carries the spawning process's peak RSS into the child's ru_maxrss
    rss_floor_mib: float


class Deadline(Exception):
    pass


class Spawner:
    """Runs one child at a time, timing it from spawn to exit with `os.wait4`."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.tmp = root / OUT_DIR
        self.tmp.mkdir(exist_ok=True)

    def run(self, cmd: list[str]) -> Sample:
        remaining = self.deadline - time.monotonic()
        if remaining < 1:
            raise Deadline()
        with tempfile.TemporaryFile(dir=self.tmp) as out, tempfile.TemporaryFile(dir=self.tmp) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)

            def kill(signum, frame):
                proc.kill()

            old = signal.signal(signal.SIGALRM, kill)
            signal.alarm(max(1, int(remaining)))
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            sample = Sample(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                            proc.returncode, out.read(), err.read(), floor)
        if proc.returncode == -signal.SIGKILL:
            raise Deadline()
        return sample


def control_loop() -> float:
    """Median time of a fixed stdlib loop, to make host drift visible."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(400_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        sorted(table.values())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail_percentile(n: int):
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]


@dataclass
class WorkloadRun:
    """Samples and failures of one workload within one benchmark run."""

    w: Workload
    seed: int
    trace: bool
    samples: list = field(default_factory=list)
    # reference runs: refs[i] and refs[i + 1] bracket samples[i]
    refs: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cli_runs: int = 0
    cli_failed: int = 0

    @property
    def argv(self) -> list[str]:
        return self.w.argv(self.seed)

    def cost(self) -> float:
        """Predicted wall time of the next step, from the steps so far."""
        if not self.samples:
            return 0.0
        if self.trace:
            other = statistics.median(t["wall_s"] for t in self.traced) if self.traced else 0.0
        else:
            other = SETUP_PER_STEP * statistics.median(self.setups) + statistics.median(r.wall_s for r in self.refs)
        return statistics.median(s.wall_s for s in self.samples) + other

    def record(self, sample: Sample, label: str) -> dict | None:
        """Count one CLI invocation; return its report when it passes the oracle."""
        self.attempted += 1
        self.cli_runs += 1
        problems = []
        report = None
        if sample.code != 0:
            problems.append(f"exit code {sample.code}: {sample.stderr.decode(errors='replace').strip()[-300:]}")
        try:
            report = json.loads(sample.stdout)
        except ValueError:
            problems.append("report is not JSON")
        if report is not None:
            problems += self.w.verify(report, self.seed)
        if problems:
            self.failed += 1
            self.cli_failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]
            return None
        return report

    def setup_probe(self, spawner: Spawner) -> None:
        s = spawner.run([sys.executable, "-c", SETUP_CODE, self.w.example(self.seed), str(self.w.max_dim)])
        self.attempted += 1
        if s.code != 0:
            self.failed += 1
            self.problems.append(f"setup: exit code {s.code}: {s.stderr.decode(errors='replace')[-300:]}")
        self.setups.append(s.wall_s)

    def step(self, spawner: Spawner) -> None:
        """One sample, preceded by a set-up probe and a reference run, or followed by a traced sample."""
        if not self.trace:
            for _ in range(SETUP_PER_STEP):
                self.setup_probe(spawner)
            self.reference(spawner)
        s = spawner.run([sys.executable, "-m", "nervekit.cli", *self.argv])
        self.record(s, "sample")
        self.samples.append(s)
        if self.trace:
            self.traced_step(spawner, s.wall_s)

    def reference(self, spawner: Spawner) -> None:
        self.refs.append(spawner.run([sys.executable, str(Path(__file__).resolve().parent / "reference.py")]))

    def traced_step(self, spawner: Spawner, untraced_wall: float) -> None:
        fd, path = tempfile.mkstemp(dir=spawner.tmp, suffix=".json")
        os.close(fd)
        try:
            s = spawner.run([sys.executable, str(Path(__file__).resolve().parent / "trace_child.py"), path, *self.argv])
            if self.record(s, "traced sample") is None:
                return
            with open(path) as fh:
                data = json.load(fh)
        finally:
            os.unlink(path)
        # level counts of the constructed spaces against their closed forms
        self.problems += [f"traced sample: {name} levels {data['sizes'].get(name)} != {want}"
                          for name, want in self.w.levels.items() if data["sizes"].get(name) != want]
        sample_id = len(self.traced)
        self.spans += [
            {"workload": self.w.name, "sample": sample_id, "id": sid, "parent": parent,
             "name": name, "start": start, "end": end}
            for sid, parent, name, start, end in data["spans"]
        ]
        self.traced.append({"wall_s": s.wall_s, "overhead_s": s.wall_s - untraced_wall, **data["metrics"]})

    def end_to_end(self) -> dict:
        if any(s.rss_mib <= s.rss_floor_mib for s in self.samples):
            self.problems.append("peak RSS of a sample is not above the runner's own")
        if any(r.code != 0 for r in self.refs):
            self.problems.append("the reference computation failed")
        around = list(zip(self.samples, self.refs, self.refs[1:]))
        return {
            "wall_rel": (statistics.median(2 * s.wall_s / (a.wall_s + b.wall_s) for s, a, b in around), "ratio"),
            "cpu_rel": (statistics.median(2 * s.cpu_s / (a.cpu_s + b.cpu_s) for s, a, b in around), "ratio"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mib": (statistics.median(s.rss_mib for s in self.samples), "MiB"),
        }

    def per_layer(self, units: dict, control_s: float) -> dict:
        out = {}
        for name, unit in units.items():
            if name == "trace.overhead_s":
                value = statistics.median(t["overhead_s"] for t in self.traced)
            elif name == "machine.control_s":
                value = control_s
            elif unit == "s":
                value = statistics.median(t[name] for t in self.traced)
            else:
                values = {t[name] for t in self.traced}
                if len(values) > 1:
                    self.problems.append(f"count {name} differs between traced samples: {sorted(values)}")
                value = self.traced[0][name]
            out[name] = (value, unit)
        return out

    def lines(self, values: dict) -> list[str]:
        n = len(self.samples)
        out = [f"workload {self.w.name} seed {self.seed}: {n} samples, {len(self.traced)} traced, "
               f"{self.failed} of {self.attempted} operations failed"]
        for name, (value, unit) in values.items():
            extra = ""
            if name in ("wall_rel", "cpu_rel"):
                extra = f" median of sample / reference (n={n})"
            elif name == "setup_s":
                extra = f" median (n={len(self.setups)})"
            elif unit != "count" and not self.trace:
                extra = " median"
            out.append(f"  {name:<42} {value:.6g} {unit}{extra}")
        if self.refs:
            walls = [s.wall_s for s in self.samples]
            tail = tail_percentile(n)
            out.append(f"  {'wall_s':<42} {statistics.median(walls):.6g} s median (n={n}"
                       + (f", p{tail:g} {percentile(walls, tail):.4f} s)" if tail else ")"))
            out.append(f"  {'cpu_s':<42} {statistics.median(s.cpu_s for s in self.samples):.6g} s median")
            out.append(f"  {'reference wall_s':<42} {statistics.median(r.wall_s for r in self.refs):.6g} s median")
        if self.cli_runs:
            out.append(f"  {'fail_ratio':<42} {self.cli_failed / self.cli_runs:.6g} ratio "
                       f"({self.cli_failed}/{self.cli_runs} CLI runs)")
        out += [f"  problem: {p}" for p in self.problems[:10]]
        return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + sorted(KNOWN_DEFECTS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nervekit" / "cli.py").is_file():
        print("bench: run from a nervekit checkout; src/nervekit/cli.py is missing", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    start = time.monotonic()
    spawner = Spawner(root, start + DEADLINE_S)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [WorkloadRun({**WORKLOADS, **KNOWN_DEFECTS}[n], args.seed, bool(args.trace)) for n in names]

    control_s = control_loop()
    print(f"machine.control_s {control_s:.4f} s")
    try:
        # interleave workloads; start a step while it is predicted to end in time
        budget = args.seconds * len(runs)
        t0 = time.monotonic()
        while True:
            for r in runs:
                if r.samples and time.monotonic() - t0 + r.cost() > budget:
                    continue
                r.step(spawner)
            if all(time.monotonic() - t0 + r.cost() > budget for r in runs):
                break
        for r in runs:
            if r.refs:
                r.reference(spawner)
            while not r.trace and len(r.setups) < SETUP_RUNS:
                r.setup_probe(spawner)
    except Deadline:
        for r in runs:
            r.problems.append(f"stopped at the {DEADLINE_S:.0f} s deadline")

    metrics: dict = {}
    report_lines = []
    for r in runs:
        values = {}
        # an untraced sample counts once a reference run follows it
        if not r.samples or (args.trace and not r.traced) or (not args.trace and len(r.refs) < 2):
            r.problems.append("no complete sample")
            report_lines += r.lines(values)
            continue
        if args.trace:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            values = r.per_layer(units, control_s)
            spans_file = root / OUT_DIR / f"spans-{r.w.name}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(r.spans))
            print(f"spans: {spans_file.relative_to(root)} ({len(r.spans)} spans)")
        else:
            values = r.end_to_end()
        prefix = f"{r.w.name}." if len(runs) > 1 else ""
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        report_lines += r.lines(values)
    print("\n".join(report_lines))
    correct = all(not r.problems for r in runs)
    result = {
        "correct": correct,
        "attempted": max(1, sum(r.attempted for r in runs)),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
