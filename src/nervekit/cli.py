"""Command-line driver.

Each construction gets one verb; every run emits a JSON report whose
deterministic part (command echo, input digests, results) is digested
so identical runs are byte-comparable. Timings sit outside the
digested section. Exit codes: 0 success, 1 a check or validation
failed, 2 usage or input error.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from importlib import import_module
from types import SimpleNamespace

from .generators import build_example
from .serialize import SchemaError, digest, to_json
from .sset import TruncationError
from .verbs import CheckFailure, UsageError

COMMANDS = (
    "validate", "nerve", "binerve", "hcnerve", "bspace", "diag", "compare",
    "cls", "theta", "homology", "pi0", "horncheck", "uniq-check", "example",
)


# (names, dest, type, default, choices); type None marks a flag
_SHARED = (
    (("--max-dim", "-d"), "max_dim", int, None, None),
    (("--rows",), "rows", int, None, None),
    (("--cols",), "cols", int, None, None),
    (("--coeff",), "coeff", str, "z", ("z", "f2")),
    (("--in",), "infile", str, None, None),
    (("--out",), "out", str, None, None),
    (("--emit-cells",), "emit_cells", None, False, None),
    (("--example",), "example", str, None, None),
)
OPTIONS = dict.fromkeys(COMMANDS, _SHARED)
OPTIONS["uniq-check"] = _SHARED + ((("--max-cosimplicial",), "max_cosimplicial", int, 2, None),)


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` parsed as argparse would, or None for argparse to parse:
    help, errors, and any form but a verb and ``--opt value`` pairs."""
    options = OPTIONS.get(argv[0] if argv else None)
    if options is None:
        return None
    args = {"command": argv[0], **{opt[1]: opt[3] for opt in options}}
    by_name = {name: opt for opt in options for name in opt[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in by_name:
            return None
        _, dest, kind, _, choices = by_name[token]
        if kind is None:
            args[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            args[dest] = value = kind(value)
        except ValueError:
            return None
        if choices and value not in choices:
            return None
    return SimpleNamespace(**args)


def _load_input(args):
    """Resolve --example/--in to (value, inputs-echo dict)."""
    if args.example is not None and args.infile is not None:
        raise UsageError("give either --example or --in, not both")
    if args.example is not None:
        dim = args.max_dim if args.max_dim is not None else 2
        try:
            R = build_example(args.example, dim)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return R, {"example": args.example, "max_dim": dim, "digest": digest(to_json(R))}
    if args.infile is not None:
        from .schema import read

        try:
            value, sha = read(args.infile)
        except OSError as exc:
            raise UsageError(f"cannot read {args.infile}: {exc}") from exc
        except SchemaError:
            raise
        except ValueError as exc:
            raise CheckFailure(f"input failed validation: {exc}") from exc
        return value, {"file": args.infile, "digest": sha}
    raise UsageError("an input is required: --example NAME or --in FILE")


def run(argv: list[str]) -> tuple[dict, int, str | None]:
    """Execute one command line; return (report, exit code, --out path)."""
    args = _scan(argv) or import_module("nervekit.usage").parse(OPTIONS, __doc__, argv)
    t0 = time.perf_counter()
    results: dict = {}
    inputs: dict = {}
    cmd = args.command
    # `uniq-check` reads no input, and `example` without --example lists the generators
    if cmd == "uniq-check" or (cmd == "example" and args.example is None):
        value = None
    else:
        value, inputs = _load_input(args)
    failed = import_module("nervekit.verbs." + cmd.replace("-", "_")).run(args, value, results)

    core = {"command": [cmd] + argv[1:], "inputs": inputs, "results": results}
    report = dict(core)
    report["digest"] = digest(core)
    report["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    return report, (1 if failed else 0), args.out


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        report, code, out = run(argv)
        _emit(report, out)
    except UsageError as exc:
        print(f"nervekit: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"nervekit: input error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"nervekit: truncation: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"nervekit: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits with its own code; normalize usage errors to 2
        return 2 if exc.code not in (0, None) else 0
    if code != 0:
        print("nervekit: checks failed", file=sys.stderr)
    return code


def program() -> None:
    """`main` as the program: once the report is written, move every
    tracked object to the collector's permanent generation, which the
    collections at shutdown skip, and exit with `main`'s code."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    program()
