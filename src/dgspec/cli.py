"""Command-line front end: edge-list parsing, JSON/text reports, subcommands.

Edge-list grammar: ``#`` starts a comment; an optional first directive
``n <count>`` fixes the vertex count (otherwise 1 + the largest label is
used); every other non-blank line is ``<u> <v>`` for an arc u -> v.

All reports are single JSON objects with stable key order and reals
rounded to 12 significant digits, so identical inputs produce identical
bytes.  Exit codes: 0 success, 1 sweep found a property failure, 2 bad
input or usage, or too little memory for the input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .classify import classify_lower_equality, classify_upper_equality
from .digraph import Digraph, degree_profile, gen_cycle, gen_kbip, gen_path, gen_random
from .energy import energy_report
from .errors import BadParameterError, DgspecError, DuplicateArcError, LoopArcError, OutOfRangeError, ParseError
from .hermitian import double
from .oracle import sweep
from .randic import bounds_certificate, randic_index

REPORT_KINDS = ("energy", "randic", "bounds", "double", "classify")


def parse_edge_list(text: str) -> Digraph:
    """Parse edge-list text into a digraph, reporting line-accurate errors."""
    declared_n: int | None = None
    seen: set[tuple[int, int]] = set()
    max_label = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if declared_n is not None:
                raise ParseError(lineno, "duplicate 'n' directive")
            if seen:
                raise ParseError(lineno, "'n' directive must precede all arcs")
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(lineno, "expected 'n <count>'")
            declared_n = int(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"labels must be integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(lineno, "labels must be nonnegative")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise OutOfRangeError(
                f"line {lineno}: label {max(u, v)} exceeds declared n {declared_n}"
            )
        if u == v:
            raise LoopArcError(f"line {lineno}: loop arc ({u}, {v})")
        if (u, v) in seen:
            raise DuplicateArcError(f"line {lineno}: duplicate arc ({u}, {v})")
        seen.add((u, v))
        max_label = max(max_label, u, v)
    n = declared_n if declared_n is not None else max_label + 1
    # every arc is checked above, so the graph needs no second validation pass
    return Digraph(n, tuple(sorted(seen)))


def serialize_edge_list(G: Digraph) -> str:
    """Canonical edge-list text: explicit n directive, arcs sorted."""
    lines = [f"n {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.arcs)
    return "\n".join(lines) + "\n"


def _round_reals(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_reals(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_reals(v) for v in obj]
    return obj


def report_data(G: Digraph, which: str, tol: float = 1e-9) -> dict:
    """Assemble the report for one subcommand as plain JSON-ready data."""
    deg = degree_profile(G)
    data: dict = {"n": G.n, "arc_count": deg.arc_count, "max_degree": deg.max_deg}
    if which == "energy":
        rep = energy_report(G)
        data["singular_values"] = [float(s) for s in rep.sigma]
        data["energy"] = rep.total
        data["vertex_energy_out"] = [float(x) for x in rep.vertex_out]
        data["vertex_energy_in"] = [float(x) for x in rep.vertex_in]
    elif which == "randic":
        data["randic"] = randic_index(G)
    elif which == "bounds":
        # the certificate's fields are in report order; max_deg is max_degree above
        data.update(asdict(bounds_certificate(G, tol)))
        del data["max_deg"]
    elif which == "double":
        data["double_edges"] = [[a, b] for a, b in double(G).graph.edges]
    elif which == "classify":
        splitting = classify_lower_equality(G)
        data["lower_equality"] = (
            None
            if splitting is None
            else [
                {
                    "sources": list(part.sources),
                    "sinks": list(part.sinks),
                    "arcs": [[u, v] for u, v in part.arcs],
                }
                for part in splitting.parts
            ]
        )
        kinds = classify_upper_equality(G)
        data["upper_equality"] = (
            None
            if kinds is None
            else [{"kind": k.tag.value, "vertices": list(k.vertices)} for k in kinds]
        )
    else:
        raise BadParameterError(f"unknown report kind {which!r}")
    return data


def _dump_json(data: dict) -> str:
    return json.dumps(_round_reals(data), indent=2)


def emit_report(G: Digraph, which: str, tol: float = 1e-9) -> str:
    """The report for one subcommand as deterministic JSON text."""
    return _dump_json(report_data(G, which, tol))


def render_text(data: dict) -> str:
    """Flat human-readable rendering of report data."""
    lines = []
    for key, value in data.items():
        lines.append(f"{key}: {json.dumps(_round_reals(value))}")
    return "\n".join(lines)


def _read_graph(path: str) -> Digraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_edge_list(text)


def _print_data(data: dict, fmt: str) -> None:
    print(_dump_json(data) if fmt == "json" else render_text(data))


def _cmd_report(args: argparse.Namespace) -> int:
    G = _read_graph(args.file)
    _print_data(report_data(G, args.which, args.tol), args.format)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    kind, params = args.kind, args.params
    try:
        if kind == "cycle":
            (count,) = params
            G = gen_cycle(int(count))
        elif kind == "path":
            (count,) = params
            G = gen_path(int(count))
        elif kind == "kbip":
            sources, sinks = params
            G = gen_kbip(int(sources), int(sinks))
        else:
            count, prob, seed = params
            G = gen_random(int(count), float(prob), int(seed))
    except ValueError:
        raise BadParameterError(
            f"gen {kind}: bad parameters {' '.join(params)!r}"
        ) from None
    sys.stdout.write(serialize_edge_list(G))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    summary = sweep(args.max_n, tol=args.tol, jobs=args.jobs)
    _print_data(summary.to_dict(), args.format)
    return 0 if summary.ok() else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    common.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="dgspec",
        description="Spectral and degree-based invariants of directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for which in REPORT_KINDS:
        p = sub.add_parser(which, parents=[common], help=f"{which} report for FILE")
        p.add_argument("file", help="edge-list file, or - for stdin")
        p.set_defaults(func=_cmd_report, which=which)

    p = sub.add_parser(
        "gen", parents=[common], help="emit a generated graph as an edge list"
    )
    p.add_argument("kind", choices=("cycle", "path", "kbip", "random"))
    p.add_argument("params", nargs="*", help="cycle/path: N; kbip: N M; random: N P SEED")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "sweep", parents=[common], help="exhaustive property check over small graphs"
    )
    p.add_argument("--max-n", type=int, required=True, help="largest vertex count")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise BadParameterError(f"--tol must be finite and >= 0, got {args.tol}")
        if getattr(args, "jobs", 1) < 1:
            raise BadParameterError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except (DgspecError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # str(MemoryError()) is empty, so the message is ours
        print("error: out of memory; the graph is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
