"""The argparse form of the option table of `nervekit.cli`.

`nervekit.cli` parses a well-formed command line by its table and hands
any other line (help, no verb or an unknown one, a usage error) to the
parser built here, so only those runs import `argparse`. Under
``python -m nervekit.cli`` the driver runs as ``__main__``, so this
module imports nothing from `nervekit.cli`: the caller passes the table
and the description.
"""

from __future__ import annotations

import argparse

HELP = {
    "max_dim": "truncation: build dimension for --example, level bound for constructions",
    "rows": "vertical bidegree bound",
    "cols": "horizontal bidegree bound",
    "coeff": "homology coefficients",
    "infile": "input JSON document",
    "out": "write the JSON report here instead of stdout",
    "emit_cells": "embed the constructed cell tables",
    "example": "generator name instead of --in",
    "max_cosimplicial": "cosimplicial truncation for the uniqueness search",
}


def parser(options: dict, description: str, verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for a command line whose first word is ``verb``, from
    ``options``, each verb's (names, dest, type, default, choices): only
    that verb's subparser when ``verb`` is a verb, named by a metavar of
    every verb so that usage and errors read as the full parser's;
    every subparser otherwise (``-h``, no verb or an unknown one).
    """
    top = argparse.ArgumentParser(prog="nervekit", description=description)
    one = verb in options
    metavar = "{" + ",".join(options) + "}" if one else None
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (verb,) if one else options:
        p = sub.add_parser(name)
        for names, dest, kind, default, choices in options[name]:
            if kind is None:
                p.add_argument(*names, action="store_true", help=HELP[dest])
            else:
                p.add_argument(*names, dest=dest, type=kind, default=default, choices=choices, help=HELP[dest])
    return top


def parse(options: dict, description: str, argv: list[str]):
    """``argv`` parsed by `parser`, which prints help and usage errors and exits."""
    return parser(options, description, *argv[:1]).parse_args(argv)
