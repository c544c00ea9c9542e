"""Command line front end.

Subcommands: `validate` and `ses-check` run the structural checks on a
file, `trace` prints a graded trace, `homotopy` solves for a chain
homotopy between two named endomorphisms, `additivity` reports on an
endomorphism triple over a short exact sequence, `counterexample`
builds and re-checks the minimal trace-additivity violation over a
given ring, `search` sweeps for violations, and `bridge` compares the
determinant of 1 + e*a with 1 + e*tr(a).

Exit codes: 0 when the run succeeds and every claim checked holds; 1
for a failed validation or a violation found; 2 when a search over a
REDUCED ring finds a violation (which no run has ever produced — treat
the inputs as precious if you see it); 64 for usage errors; 65 for
parse errors; 70 for an internal error (any other exception, reported
as one line on stderr instead of a traceback).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, TextIO

from .complexes import ChainMap, PerfectComplex
from .detline import det_trace_bridge
from .homotopy import are_homotopic, graded_trace
from .search import (
    DEFAULT_CEILING,
    CeilingExceededError,
    SearchConfig,
    build_counterexample,
    certify,
    search_violation,
    wrap_instance,
)
from .ses import check_triple, connecting_square, validate_ses
from .textio import (
    Document,
    ParseError,
    format_matrix,
    parse_document,
    parse_matrix,
    parse_ring,
    ses_file,
)

OK = 0
FAIL = 1
FALSIFIED = 2
USAGE = 64
PARSE = 65
INTERNAL = 70


class UsageError(Exception):
    """Bad arguments or flag/file mismatches; exits with code 64."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):          # argparse's default exits with 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _load(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


def _pick_endo(doc: Document, name: str) -> ChainMap:
    if name not in doc.endos:
        have = ", ".join(sorted(doc.endos)) or "none"
        raise UsageError(f"no endo named {name!r} in the file "
                         f"(file has: {have})")
    return doc.endos[name]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    print(f"ring {doc.ring}")
    ok = True
    for name, k in doc.complexes.items():
        v = k.validate()
        print(f"complex {name}: " + ("valid" if v else f"INVALID: {v.message}"))
        ok &= bool(v)
    ses = doc.ses()
    if ses is not None:
        v = validate_ses(ses)
        chain = " -> ".join(doc.complexes)
        print(f"sequence {chain}: " + ("exact" if v else f"NOT EXACT: "
                                                         f"{v.message}"))
        ok &= bool(v)
    for name, f in doc.endos.items():
        v = f.validate()
        print(f"endo {name}: " + ("chain map" if v
                                  else f"NOT A CHAIN MAP: {v.message}"))
        ok &= bool(v)
    print("result: " + ("ok" if ok else "FAIL"))
    return OK if ok else FAIL


def _cmd_ses_check(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    ses = doc.ses()
    if ses is None:
        print("file declares no short exact sequence "
              "(need three complexes plus `map j` and `map q` lines)")
        return FAIL
    print(f"ring {doc.ring}")
    v = validate_ses(ses)
    if v:
        print("exact: yes")
        return OK
    where = f" at degree {v.degree}" if v.degree is not None else ""
    print(f"exact: no ({v.kind}{where}: {v.message})")
    return FAIL


def _cmd_trace(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    f = _pick_endo(doc, args.endo)
    v = f.validate()
    if not v:
        print(f"endo {args.endo} is not a chain map: {v.message}")
        return FAIL
    print(graded_trace(f))
    return OK


def _cmd_homotopy(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    f = _pick_endo(doc, args.from_name)
    g = _pick_endo(doc, args.to_name)
    if f.source != g.source:
        print(f"endos {args.from_name} and {args.to_name} act on "
              f"different complexes")
        return FAIL
    for name, endo in ((args.from_name, f), (args.to_name, g)):
        v = endo.validate()
        if not v:
            print(f"endo {name} is not a chain map: {v.message}")
            return FAIL
    h = are_homotopic(f, g)
    if h is None:
        print("none")
        return FAIL
    lines = [f"h {n} {format_matrix(h.comp(n))}" for n in h.degrees()
             if h.comp(n).rows * h.comp(n).cols and not h.comp(n).is_zero()]
    print("homotopic: yes, via")
    for line in lines or ["h 0 []  # the zero homotopy: the endos are equal"]:
        print("  " + line)
    return OK


def _squares_block(report, conn) -> list[str]:
    return [f"left square: {report.left.describe()}",
            f"right square: {report.right.describe()}",
            f"connecting square: {conn.describe()}",
            f"Tr(u) = {report.sub_trace}",
            f"Tr(v) = {report.middle_trace}",
            f"Tr(w) = {report.quotient_trace}",
            f"defect = {report.defect}"]


def _cmd_additivity(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    ses, triple = doc.ses(), doc.triple()
    if ses is None or triple is None:
        print("file must declare a short exact sequence plus endos u, v, w")
        return FAIL
    v = validate_ses(ses)
    if not v:
        print(f"sequence is not exact: {v.message}")
        return FAIL
    try:
        report = check_triple(ses, triple)
    except ValueError as exc:
        print(f"invalid endomorphism triple: {exc}")
        return FAIL
    conn = connecting_square(ses, triple.on_sub, triple.on_quotient)
    print(f"ring {doc.ring}")
    for line in _squares_block(report, conn):
        print(line)
    if report.squares_hold and conn.holds:
        if report.defect:
            print("violation: yes (every square commutes up to homotopy, "
                  "defect nonzero)")
            return FAIL
        print("violation: no (defect is zero)")
        return OK
    print("violation: no (a square fails to commute up to homotopy, "
          "so additivity is not expected)")
    return OK


def _cmd_counterexample(args: argparse.Namespace) -> int:
    ring = parse_ring(args.ring)
    try:
        ses, triple, witness = build_counterexample(ring)
    except ValueError as exc:
        print(exc)
        return FAIL
    report = check_triple(ses, triple)
    conn = connecting_square(ses, triple.on_sub, triple.on_quotient)
    cert = certify(wrap_instance(ses, triple))
    print(f"ring {ring}")
    print("the minimal violating instance:")
    print()
    for line in ses_file(ses, triple=triple).rstrip().splitlines():
        print("  " + line if line else "")
    print()
    for line in _squares_block(report, conn):
        print(line)
    print(f"left-square witness: h 1 {format_matrix(witness.comp(1))}")
    print("independently certified: " + ("yes" if cert else
                                         f"NO ({cert.message})"))
    return OK if cert else FAIL


def _cmd_search(args: argparse.Namespace) -> int:
    ring = parse_ring(args.ring)
    try:
        cfg = SearchConfig(ring, max_window=args.max_window,
                           max_rank=args.max_rank, trials=args.trials,
                           seed=args.seed, mode=args.mode,
                           ceiling=args.ceiling)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # the log is opened at its first line, or after a run that logged
    # none, so a run refused from its counts leaves an old log as it was.
    # opening, writing and closing can each fail (a full device only
    # reports at the flush); all three are the caller's path problem
    log_handle: Optional[TextIO] = None

    def log_line(line: str) -> None:
        nonlocal log_handle
        if log_handle is None:
            log_handle = open(args.log, "w", encoding="utf-8")
        print(line, file=log_handle)

    try:
        try:
            outcome = search_violation(
                cfg, log=log_line if args.log else None)
            if args.log and log_handle is None:
                log_handle = open(args.log, "w", encoding="utf-8")
        finally:
            if log_handle is not None:
                log_handle.close()
    except OSError as exc:
        raise UsageError(f"cannot write {args.log}: {exc}") from exc
    print(f"ring {ring}")
    if cfg.mode == "exhaustive":
        print(f"mode: exhaustive (windows up to {cfg.max_window} degrees, "
              f"ranks up to {cfg.max_rank})")
    else:
        print(f"mode: randomized ({cfg.trials} trials, seed {cfg.seed}, "
              f"windows up to {cfg.max_window} degrees, ranks up to "
              f"{cfg.max_rank})")
    print(f"instances examined: {outcome.instances_examined}")
    print(f"violations: {outcome.violations_found}")
    if not outcome.violations_found:
        print("no violations at these bounds")
        return OK
    cert = certify(outcome)
    ses, triple, report = outcome.first_violation
    print("first violation:")
    print()
    for line in ses_file(ses, triple=triple).rstrip().splitlines():
        print("  " + line if line else "")
    print()
    print(f"defect = {report.defect}")
    print("certified: " + ("yes" if cert else f"NO ({cert.message})"))
    if ring.is_reduced():
        print("a violation over a reduced ring should be impossible; "
              "treat this run's inputs as precious and re-check by hand")
        return FALSIFIED
    return FAIL


def _cmd_bridge(args: argparse.Namespace) -> int:
    ring = parse_ring(args.ring)
    mat = parse_matrix(ring, args.matrix)
    if mat.rows != mat.cols:
        raise UsageError(f"the comparison needs a square matrix, "
                         f"got {mat.rows}x{mat.cols}")
    k = PerfectComplex.single(ring, 0, mat.rows)
    u = ChainMap.build(k, k, {0: mat} if mat.rows else {})
    try:
        rep = det_trace_bridge(u)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"det(1 + e*a) = {rep.det_side}")
    print(f"1 + e*tr(a)  = {rep.trace_side}")
    print("agree: " + ("yes" if rep.agree else "NO"))
    return OK if rep.agree else FAIL


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="chaintrace",
        description="Exact checks on bounded complexes over Z/m and "
                    "Z/m[e]: traces, homotopies, short exact sequences, "
                    "trace additivity and its violations.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate", help="check every object in a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ses-check",
                       help="check that a three-complex file is exact")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ses_check)

    p = sub.add_parser("trace", help="graded trace of a named endo")
    p.add_argument("file")
    p.add_argument("--endo", required=True, metavar="NAME")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("homotopy",
                       help="solve f - g = d h + h d for two named endos")
    p.add_argument("file")
    p.add_argument("--from", dest="from_name", required=True, metavar="NAME")
    p.add_argument("--to", dest="to_name", required=True, metavar="NAME")
    p.set_defaults(func=_cmd_homotopy)

    p = sub.add_parser("additivity",
                       help="trace-additivity report for a u/v/w triple")
    p.add_argument("file")
    p.set_defaults(func=_cmd_additivity)

    p = sub.add_parser("counterexample",
                       help="build and re-check the minimal violating "
                            "instance over a ring with a square-zero "
                            "element")
    p.add_argument("--ring", required=True, metavar="SPEC",
                   help="e.g. Z/3[e] or Z/4")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("search", help="sweep for additivity violations")
    p.add_argument("--ring", required=True, metavar="SPEC")
    p.add_argument("--mode", choices=("randomized", "exhaustive"),
                   default="randomized")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", default=0)
    p.add_argument("--max-rank", type=int, default=1)
    p.add_argument("--max-window", type=int, default=2)
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                   help="refuse exhaustive runs with more complexes or "
                        "sequences than this (with --log: sequences plus "
                        "their triples)")
    p.add_argument("--log", metavar="PATH",
                   help="write one tab-separated record per classified "
                        "triple (index, squares, defect)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bridge",
                       help="compare det(1 + e*a) with 1 + e*tr(a)")
    p.add_argument("--ring", required=True, metavar="SPEC",
                   help="a plain Z/m (the e is added internally)")
    p.add_argument("--matrix", required=True, metavar="[[...]]")
    p.set_defaults(func=_cmd_bridge)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the exit code (see module doc)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return USAGE
        return args.func(args)
    except (UsageError, CeilingExceededError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE
    except Exception as exc:
        # a bug, not a verdict: exit 1 would read as "violation found"
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
