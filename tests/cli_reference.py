"""The argparse parser of the ``nervekit`` command line, written out by
hand as it stood before `nervekit.cli` parsed well-formed lines by its
option table: the reference the table parser and the argparse builder
of `nervekit.usage` are both checked against."""

import argparse

from nervekit import cli

VERBS = (
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


def reference_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nervekit", description=cli.__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name in VERBS:
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


def parse_outcome(parser: argparse.ArgumentParser, argv: list) -> tuple:
    """(exit code or None, stdout, stderr, vars of the namespace or None)
    of ``parser.parse_args(argv)``."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
            code = None
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args
