"""Command-line front end.

Subcommands: build (emit a Bell graph as JSON/DOT), reconstruct (modes
full | upper-auto | lower), classify, find-partition, verify, conjecture.
Graphs are accepted as graph6 strings or as paths to files whose first
non-blank line is one.  Exit code 0 means every requested check passed.
Malformed graph6 text or a part bound below 1 is a usage error (exit code
2); an input outside a command's hypotheses gets a JSON error payload and
exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import lower, upper
from .bell import (
    FULL,
    EmptyInput,
    UnlabeledGraph,
    at_least,
    at_most,
    bell_to_json,
    build_bell,
    scramble,
    unlabeled_from_graph6,
)
from .classify import classify_pair, oracle_isomorphic
from .graphs import Graph6Error, from_graph6, to_graph6
from .lineroot import NotLineGraph
from .lower import (
    Attempt,
    NoCertifiedCandidate,
    PreconditionViolated,
    reconstruct_from_bk_report,
)
from .suites import SUITE_NAMES, conjecture_search, run_suite


def _read_graph_text(arg: str) -> str:
    if os.path.exists(arg):
        with open(arg, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    return line
        raise argparse.ArgumentTypeError(f"no graph6 line found in {arg}")
    return arg.strip()


def _graph6_type(decode):
    """An argparse type that reads a graph6 string or file with decode, so
    malformed text ends in argparse's usage error rather than a traceback."""

    def convert(arg: str):
        try:
            return decode(_read_graph_text(arg))
        except Graph6Error as exc:
            raise argparse.ArgumentTypeError(f"malformed graph6 {arg!r}: {exc}") from exc

    return convert


_graph = _graph6_type(from_graph6)
_unlabeled = _graph6_type(unlabeled_from_graph6)


def _part_bound(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"part bound must be at least 1, got {k}")
    return k


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(payload: dict, path: str | None) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _variant_from_args(args: argparse.Namespace):
    if args.variant == "full":
        return FULL
    if args.k is None:
        raise SystemExit(f"--k is required for variant {args.variant}")
    return at_most(args.k) if args.variant == "atmost" else at_least(args.k)


def _cmd_build(args: argparse.Namespace) -> int:
    b = build_bell(args.graph, _variant_from_args(args), cap=args.cap)
    payload = bell_to_json(b)
    if args.dot:
        _write(args.dot, b.as_unlabeled().to_dot())
    if args.graph6_out:
        _write(args.graph6_out, b.as_unlabeled().to_graph6() + "\n")
    _emit(payload, args.out)
    return 0


# What a reconstruction raises on input outside its hypotheses; reported as
# a JSON error payload with a non-zero exit rather than a traceback.
RECONSTRUCTION_ERRORS = (EmptyInput, upper.NoCandidate, NotLineGraph, NoCertifiedCandidate)


def _tried_json(tried: tuple[Attempt, ...]) -> list[dict]:
    return [
        {"pivot": a.pivot, "rule": a.rule, "edge_count": a.edge_count, "passed": a.passed}
        for a in tried
    ]


def _reconstruct_payload(mode: str, u: UnlabeledGraph) -> dict:
    if mode == "lower":
        info = reconstruct_from_bk_report(u)
        return {
            "mode": "lower",
            "rule": info.rule,
            "component_count": info.component_count,
            "pivot": info.pivot,
            "bound": info.bound,
            "tried": _tried_json(info.tried),
            "result_graph6": to_graph6(info.result),
        }
    if mode == "full":
        report = upper.reconstruct_prime_report(u)
    else:
        report = upper.reconstruct_upper_auto(u)
    payload = {
        "mode": mode,
        "regime": report.regime,
        "pivot": report.pivot,
        "result_graph6": to_graph6(report.result) if report.result is not None else None,
        "possibilities": [
            {"graph6": to_graph6(p.graph), "when": p.k_condition}
            for p in report.possibilities
        ],
    }
    sets = report.candidate_sets
    if sets is not None:
        payload["candidates"] = {
            "omega3": list(sets.omega3),
            "omega4": list(sets.omega4),
            "omega5": list(sets.omega5),
            "scanned": sets.scanned,
            "evaluated": sets.evaluated,
        }
    return payload


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    try:
        payload = _reconstruct_payload(args.mode, args.input)
    except RECONSTRUCTION_ERRORS as exc:
        payload = {"mode": args.mode, "error": type(exc).__name__, "message": str(exc)}
        if args.mode == "lower":
            tried = exc.tried if isinstance(exc, NoCertifiedCandidate) else ()
            payload["tried"] = _tried_json(tried)
        _emit(payload, args.out)
        return 1
    _emit(payload, args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    equivalent, conditions = classify_pair(args.g1, args.k1, args.g2, args.k2)
    payload = {"equivalent": equivalent, "conditions": conditions}
    if args.oracle:
        payload["oracle"] = oracle_isomorphic(args.g1, args.k1, args.g2, args.k2)
    _emit(payload, args.out)
    return 0


def _cmd_find_partition(args: argparse.Namespace) -> int:
    try:
        p, trace = lower.fat_partition_with_trace(args.graph)
    except PreconditionViolated as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.out)
        return 1
    payload = {
        "partition": p.to_text(),
        "parts": p.part_count,
        "min_part_size": min((len(b) for b in p.blocks), default=0),
        "improvement_steps": len(trace) - 1,
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, args.nmax, args.seeds)
    _emit(report.to_json(), args.out)
    counts = report.counts()
    sys.stderr.write(
        f"suite {args.suite}: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['info']} info\n"
    )
    return 0 if report.passed else 1


def _cmd_conjecture(args: argparse.Namespace) -> int:
    report = conjecture_search(args.nmax)
    _emit(report.to_json(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellgraphs",
        description="Bell colouring graphs: construction, reconstruction, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="materialize a Bell-type graph")
    p.add_argument("--graph", type=_graph, required=True,
                   help="host graph (graph6 string or file)")
    p.add_argument("--variant", choices=("full", "atmost", "atleast"), default="full")
    p.add_argument("--k", type=_part_bound, default=None,
                   help="part bound for bounded variants")
    p.add_argument("--cap", type=int, default=500_000)
    p.add_argument("--out", default=None, help="JSON output path (default stdout)")
    p.add_argument("--dot", default=None, help="also write DOT here")
    p.add_argument("--graph6-out", default=None, help="also write the unlabeled graph6 here")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("reconstruct", help="recover a host graph from an unlabeled input")
    p.add_argument("--mode", choices=("full", "upper-auto", "lower"), required=True)
    p.add_argument("--input", type=_unlabeled, required=True,
                   help="unlabeled graph (graph6 string or file)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("classify", help="decide equivalence of two (graph, k) pairs")
    p.add_argument("--g1", type=_graph, required=True)
    p.add_argument("--k1", type=_part_bound, required=True)
    p.add_argument("--g2", type=_graph, required=True)
    p.add_argument("--k2", type=_part_bound, required=True)
    p.add_argument("--oracle", action="store_true", help="also run the direct oracle")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("find-partition", help="partition into chi parts of size >= 4")
    p.add_argument("--graph", type=_graph, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_find_partition)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture", help="sweep bounded-variant pairs against the predicate")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
