"""Command-line driver.

Each construction gets one verb; every run emits a JSON report whose
deterministic part (command echo, input digests, results) is digested
so identical runs are byte-comparable. Timings sit outside the
digested section. Exit codes: 0 success, 1 a check or validation
failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .bisset import diagonal
from .cat import RelativeSimplicialCategory, SimplicialCategory, nerve_cat
from .generators import build_example, example_names
from .homology import homology, induced_chain_iso
from .nerves import classifying_space, coherent_nerve, comparison_map, consistency_check, levelwise_nerve
from .serialize import SchemaError, canonical_json, digest, to_json
from .sset import SimplicialSet, TruncationError, validate_map
from .verify import horn_check

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


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


def _parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for a command line whose first word is ``verb``.

    One run parses one verb, so when ``verb`` is a verb only its
    subparser is built, under a metavar naming every verb so that the
    usage and the errors read as those of the full parser. Otherwise
    (``-h``, no verb or an unknown one) every subparser is built, so the
    help and the errors are those of the full parser.
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
            raw = open(args.infile, "rb").read()
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


def _as_cat(value) -> SimplicialCategory:
    if isinstance(value, RelativeSimplicialCategory):
        return value.cat
    if isinstance(value, SimplicialCategory):
        return value
    raise UsageError("this command needs a simplicial category input")


def _as_relative(value) -> RelativeSimplicialCategory:
    if isinstance(value, RelativeSimplicialCategory):
        return value
    raise UsageError("this command needs a relative (marked) category input")


def _as_sset(value) -> SimplicialSet:
    if isinstance(value, SimplicialSet):
        return value
    raise UsageError("this command needs a simplicial set input")


def _level_bound(args, D: int, ceiling: int | None = None) -> int:
    L = args.max_dim if args.max_dim is not None else D
    top = D if ceiling is None else ceiling
    if not 0 <= L <= top:
        raise TruncationError(f"level bound {L} outside 0..{top}")
    return L


def _bidegrees(args, P: int, Q: int) -> tuple[int, int]:
    """The bounds (P, Q) from --cols and --rows, defaulting to the given ones."""
    P = args.cols if args.cols is not None else P
    Q = args.rows if args.rows is not None else Q
    if P < 0 or Q < 0:
        raise TruncationError(f"bidegree bound ({P},{Q}) is negative")
    return P, Q


def _marked_bidegrees(args, D: int) -> tuple[int, int]:
    """`_bidegrees` for the marked verbs: marked constructions need a
    column, so the default is P = max(D // 2, 1) and Q = D - P."""
    P = max(D // 2, 1)
    return _bidegrees(args, P, D - P)


def _maybe_artifact(args, results: dict, value) -> None:
    if args.emit_cells:
        results["artifact"] = to_json(value)


def _space_summary(args, results: dict, X) -> None:
    """The level counts of a built simplicial set, and its tables with --emit-cells."""
    results["levels"] = list(X.counts())
    _maybe_artifact(args, results, X)


def _marked_summary(args, results: dict, M) -> None:
    """The cell counts of a marked bisimplicial set, its marked cells per
    row, and its tables with --emit-cells."""
    results["cells"] = [list(r) for r in M.space.counts()]
    results["marked"] = [sum(1 for (q, _) in M.marked if q == qq) for qq in range(M.space.Q + 1)]
    _maybe_artifact(args, results, M)


def _homs(SC: SimplicialCategory) -> list:
    """The ((a, b), hom) pairs of ``SC``, ordered by ``str((a, b))``."""
    return sorted(SC.homs.items(), key=lambda kv: str(kv[0]))


def _run_verb(args, value, results: dict) -> bool:
    """Run the verb of ``args`` on its loaded input ``value``, filling
    ``results``; return whether a check failed."""
    cmd = args.command
    if cmd == "validate":
        from .axioms import validate_bisset, validate_relative, validate_simplicial_category, validate_sset
        from .bisimplicial import BisimplicialSet
        from .marked import MarkedBisimplicialSet

        reps = []
        if isinstance(value, RelativeSimplicialCategory):
            reps.append(validate_relative(value))
        elif isinstance(value, SimplicialCategory):
            reps.append(validate_simplicial_category(value))
        elif isinstance(value, MarkedBisimplicialSet):
            reps.append(validate_bisset(value.space))
            reps.append(value.validate())
        elif isinstance(value, BisimplicialSet):
            reps.append(validate_bisset(value))
        else:
            reps.append(validate_sset(value, subject="input"))
        results["validation"] = [r.to_json() for r in reps]
        return any(not r.ok for r in reps)

    elif cmd in ("nerve", "hcnerve", "bspace"):
        SC = _as_cat(value)
        L = _level_bound(args, SC.D, ceiling=SC.D + 1 if cmd == "hcnerve" else None)
        if cmd == "nerve":
            from .discrete import level_category

            X = nerve_cat(level_category(SC, 0), L)
        else:
            X = (coherent_nerve if cmd == "hcnerve" else classifying_space)(SC, L)
        results["nondegenerate"] = list(X.nondeg_counts())
        _space_summary(args, results, X)

    elif cmd == "binerve":
        SC = _as_cat(value)
        P, Q = _bidegrees(args, SC.D, SC.D)
        if isinstance(value, RelativeSimplicialCategory):
            from .marked import levelwise_nerve_marked

            _marked_summary(args, results, levelwise_nerve_marked(value, P, Q))
        else:
            B = levelwise_nerve(SC, P, Q)
            results["cells"] = [list(r) for r in B.counts()]
            _maybe_artifact(args, results, B)

    elif cmd == "diag":
        from .bisimplicial import BisimplicialSet
        from .marked import MarkedBisimplicialSet, diagonal_marked, levelwise_nerve_marked

        if isinstance(value, RelativeSimplicialCategory):
            value = levelwise_nerve_marked(value, value.cat.D, value.cat.D)
        elif isinstance(value, SimplicialCategory):
            value = levelwise_nerve(value, value.D, value.D)
        if isinstance(value, MarkedBisimplicialSet):
            Dg = diagonal_marked(value)
            results["marked_edges"] = len(Dg.marked)
            _space_summary(args, results, Dg.space)
        elif isinstance(value, BisimplicialSet):
            _space_summary(args, results, diagonal(value))
        else:
            raise UsageError("diag needs a bisimplicial set or category input")

    elif cmd == "compare":
        SC = _as_cat(value)
        f = comparison_map(SC, _level_bound(args, SC.D))
        vrep = validate_map(f, subject="comparison map")
        iso = induced_chain_iso(f, coeff=args.coeff)
        cons = consistency_check(SC, f)
        results["map_simplicial"] = vrep.to_json()
        results["chain_iso"] = iso.to_json()
        results["consistency"] = cons.to_json()
        return not (vrep.ok and iso.ok and cons.ok)

    elif cmd in ("cls", "theta"):
        from .classification import classification_comparison, classification_diagram

        R = _as_relative(value)
        P, Q = _marked_bidegrees(args, R.cat.D)
        if cmd == "cls":
            _marked_summary(args, results, classification_diagram(R, P, Q))
        else:
            rep = classification_comparison(R, P, Q)
            results["theta"] = rep.to_json()
            return not rep.ok

    elif cmd in ("homology", "pi0"):
        if isinstance(value, (RelativeSimplicialCategory, SimplicialCategory)):
            SC = _as_cat(value)
            value = classifying_space(SC, _level_bound(args, SC.D) if cmd == "homology" else SC.D)
            results["space"] = "classifying space"
        X = _as_sset(value)
        if cmd == "pi0":
            from .components import pi0

            results["classes"] = pi0(X)
            results["count"] = len(results["classes"])
        elif args.max_dim is not None and args.max_dim < 0:
            raise TruncationError(f"degree bound {args.max_dim} is negative")
        else:
            # degrees above X.D - 1 lack the boundary needed for an exact answer
            exact = max(X.D - 1, 0)
            max_deg = min(args.max_dim, exact) if args.max_dim is not None else exact
            results["homology"] = homology(X, coeff=args.coeff, max_deg=max_deg).to_json()

    elif cmd == "horncheck":
        if isinstance(value, (RelativeSimplicialCategory, SimplicialCategory)):
            targets = [(f"hom({a},{b})", H) for (a, b), H in _homs(_as_cat(value))]
        else:
            targets = [("input", _as_sset(value))]
        results["horns"] = []
        failed = False
        for tag, X in targets:
            bound = min(args.max_dim if args.max_dim is not None else 3, X.D)
            for n in range(1, bound + 1):
                for k in range(n + 1):
                    rep = horn_check(X, n, k)
                    results["horns"].append({"subject": tag, **rep.to_json()})
                    failed = failed or not rep.ok
        return failed

    elif cmd == "example":
        R = _as_relative(value)
        results["objects"] = [str(o) for o in R.cat.objects]
        results["hom_levels"] = {f"{a},{b}": list(H.counts()) for (a, b), H in _homs(R.cat)}
        results["marked_cells"] = {
            f"{a},{b}": [len(R.sub_cells(a, b, n)) for n in range(R.cat.D + 1)]
            for (a, b) in sorted(R.sub.keys(), key=lambda p: (str(p[0]), str(p[1])))
        }
        _maybe_artifact(args, results, R)
    return False


def run(argv: list[str]) -> tuple[dict, int, str | None]:
    """Execute one command line; return (report, exit code, --out path)."""
    args = _parser(argv[0] if argv else None).parse_args(argv)
    t0 = time.perf_counter()
    results: dict = {}
    inputs: dict = {}
    cmd = args.command
    if cmd == "uniq-check":
        from .uniqueness import uniqueness_report

        if args.max_cosimplicial < 1:
            raise UsageError(f"--max-cosimplicial {args.max_cosimplicial} must be at least 1")
        rep = uniqueness_report(args.max_cosimplicial)
        results["uniqueness"] = rep.to_json()
        failed = not rep.ok
    elif cmd == "example" and args.example is None:
        results["available"] = list(example_names())
        failed = False
    else:
        value, inputs = _load_input(args)
        failed = _run_verb(args, value, results)

    core = {"command": [cmd] + argv[1:], "inputs": inputs, "results": results}
    report = dict(core)
    report["digest"] = hashlib.sha256(canonical_json(core).encode()).hexdigest()
    report["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    return report, (1 if failed else 0), args.out


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        report, code, out = run(argv)
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
    _emit(report, out)
    if code != 0:
        print("nervekit: checks failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
