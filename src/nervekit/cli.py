"""Command-line driver.

Each construction gets one verb; every run emits a JSON report whose
deterministic part (command echo, input digests, results) is digested
so identical runs are byte-comparable. Timings sit outside the
digested section. Exit codes: 0 success, 1 a check or validation
failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from importlib import import_module

from .generators import build_example
from .serialize import SchemaError, canonical_json, digest, to_json
from .sset import TruncationError
from .verbs import CheckFailure, UsageError

COMMANDS = (
    "validate",
    "nerve",
    "binerve",
    "hcnerve",
    "bspace",
    "diag",
    "compare",
    "cls",
    "theta",
    "homology",
    "pi0",
    "horncheck",
    "uniq-check",
    "example",
)


def _parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for a command line whose first word is ``verb``: only
    that verb's subparser when ``verb`` is a verb, named by a metavar of
    every verb so that usage and errors read as the full parser's;
    every subparser otherwise (``-h``, no verb or an unknown one).
    """
    top = argparse.ArgumentParser(prog="nervekit", description=__doc__)
    one = verb in COMMANDS
    metavar = "{" + ",".join(COMMANDS) + "}" if one else None
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (verb,) if one else COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--max-dim", "-d", type=int, default=None,
                       help="truncation: build dimension for --example, level bound for constructions")
        p.add_argument("--rows", type=int, default=None, help="vertical bidegree bound")
        p.add_argument("--cols", type=int, default=None, help="horizontal bidegree bound")
        p.add_argument("--coeff", choices=("z", "f2"), default="z", help="homology coefficients")
        p.add_argument("--in", dest="infile", default=None, help="input JSON document")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        p.add_argument("--emit-cells", action="store_true", help="embed the constructed cell tables")
        p.add_argument("--example", default=None, help="generator name instead of --in")
        if name == "uniq-check":
            p.add_argument("--max-cosimplicial", type=int, default=2,
                           help="cosimplicial truncation for the uniqueness search")
    return top


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
        from .schema import load

        try:
            with open(args.infile, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.infile}: {exc}") from exc
        try:
            value = load(args.infile)
        except SchemaError:
            raise
        except ValueError as exc:
            raise CheckFailure(f"input failed validation: {exc}") from exc
        return value, {"file": args.infile, "digest": hashlib.sha256(raw).hexdigest()}
    raise UsageError("an input is required: --example NAME or --in FILE")


def run(argv: list[str]) -> tuple[dict, int, str | None]:
    """Execute one command line; return (report, exit code, --out path)."""
    args = _parser(argv[0] if argv else None).parse_args(argv)
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
    report["digest"] = hashlib.sha256(canonical_json(core).encode()).hexdigest()
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
