"""Command-line front end: edge-list parsing, JSON/text reports, subcommands.

Edge-list grammar: ``#`` starts a comment; an optional first directive
``n <count>`` fixes the vertex count (otherwise 1 + the largest label is
used); every other non-blank line is ``<u> <v>`` for an arc u -> v.
Counts and labels are runs of decimal digits (``str.isdecimal``).  A line
ends at ``\n`` only; files and stdin are read with universal newlines, so
``\r\n`` and ``\r`` arrive as ``\n``, and any other separator is space
between tokens.

All reports are single JSON objects with stable key order and reals
rounded to 12 significant digits, so identical inputs produce identical
bytes.  The layout is part of that byte contract: it is the one
``json.dumps(data, indent=2)`` gives (2-space indent, ``": "`` after keys,
``[]`` and ``{}`` for empty containers, ``NaN``/``Infinity`` for non-finite
reals), and dgspec's own writer produces it in one pass.  Exit codes:
0 success, 1 sweep found a property failure, 2 bad input or usage, or too
little memory for the input.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .classify import classify_lower_equality, classify_upper_equality
from .digraph import Digraph, degree_profile, gen_cycle, gen_kbip, gen_path, gen_random
from .energy import energy_report
from .errors import BadParameterError, DgspecError, DuplicateArcError, LoopArcError, OutOfRangeError, ParseError
from .hermitian import double
from .oracle import sweep
from .randic import DEFAULT_TOL, bounds_certificate, randic_index

REPORT_KINDS = ("energy", "randic", "bounds", "double", "classify")


# Plain text, the form ``serialize_edge_list`` writes: an optional ``n``
# line, then one ``<u> <v>`` line per arc, ASCII digits and single spaces,
# every line ended by "\n".  18 digits stay below 2**63.
_PLAIN_HEAD = re.compile(r"n ([0-9]{1,18})\n")
_PLAIN_ARC = re.compile(r"[0-9]{1,18} [0-9]{1,18}\n")
_KEY_MAX = int(np.iinfo(np.int64).max)


def parse_edge_list(text: str) -> Digraph:
    """Parse edge-list text into a digraph, reporting line-accurate errors.

    Tokens such as ``+3`` or ``1_0``, which ``int`` would take, are refused.
    Plain text is read in one vectorised pass; anything that pass refuses
    goes through the line-by-line reader, so both give the same graph and
    the same errors.
    """
    G = _parse_plain(text)
    return G if G is not None else _parse_lines(text)


def _parse_plain(text: str) -> Digraph | None:
    """The digraph of plain text (described above ``_PLAIN_HEAD``), or None
    when the text is not plain or holds a label outside 0..n-1, a loop or a
    repeated arc."""
    head = _PLAIN_HEAD.match(text)
    body = text[head.end() :] if head else text
    # the body is plain when its arc lines cover it: a match scan keeps no
    # per-line state, where one fullmatch of a repeated group stacks some
    if _PLAIN_ARC.sub("", body):
        return None
    labels = np.fromstring(body, dtype=np.int64, sep=" ")
    tails, heads = labels[0::2], labels[1::2]
    n = int(head[1]) if head else 1 + int(labels.max(initial=-1))
    if n * n > _KEY_MAX or np.any(tails == heads) or np.any(labels >= n):
        return None
    keys = np.sort(tails * n + heads)
    if np.any(keys[1:] == keys[:-1]):
        return None
    tails, heads = np.divmod(keys, n)
    return Digraph(n, tuple(zip(tails.tolist(), heads.tolist())))


def _parse_lines(text: str) -> Digraph:
    """``parse_edge_list`` one line at a time: any text, line-accurate errors."""
    declared_n: int | None = None
    # a dict keeps input order, so sorting an already sorted list is one pass
    seen: dict[tuple[int, int], None] = {}
    # a line ends at "\n" alone: str.splitlines would also break at form
    # feeds, vertical tabs and other separators that split() counts as spaces
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
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
            raise ParseError(lineno, f"expected '<u> <v>', got {line.strip()!r}")
        a, b = tokens
        if not (a.isdecimal() and b.isdecimal()):
            if a.removeprefix("-").isdecimal() and b.removeprefix("-").isdecimal():
                raise ParseError(lineno, "labels must be nonnegative")
            raise ParseError(lineno, f"labels must be integers, got {line.strip()!r}")
        arc = u, v = int(a), int(b)
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise OutOfRangeError(
                f"line {lineno}: label {max(u, v)} exceeds declared n {declared_n}"
            )
        if u == v:
            raise LoopArcError(f"line {lineno}: loop arc ({u}, {v})")
        if arc in seen:
            raise DuplicateArcError(f"line {lineno}: duplicate arc ({u}, {v})")
        seen[arc] = None
    n = declared_n if declared_n is not None else 1 + max(map(max, seen), default=-1)
    return Digraph(n, tuple(sorted(seen)))


def serialize_edge_list(G: Digraph) -> str:
    """Canonical edge-list text: explicit n directive, arcs sorted."""
    lines = [f"n {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.arcs)
    return "\n".join(lines) + "\n"


def report_data(G: Digraph, which: str) -> dict:
    """Assemble the report for one subcommand as plain JSON-ready data."""
    deg = degree_profile(G)
    data: dict = {"n": G.n, "arc_count": deg.arc_count, "max_degree": deg.max_deg}
    if which == "energy":
        rep = energy_report(G)
        data["singular_values"] = rep.sigma.tolist()
        data["energy"] = rep.total
        data["vertex_energy_out"] = rep.vertex_out.tolist()
        data["vertex_energy_in"] = rep.vertex_in.tolist()
    elif which == "randic":
        data["randic"] = randic_index(G)
    elif which == "bounds":
        data.update(asdict(bounds_certificate(G)))
    elif which == "double":
        data["double_edges"] = double(G).edges
    elif which == "classify":
        parts = classify_lower_equality(G)
        data["lower_equality"] = (
            None
            if parts is None
            else [{"sources": p.sources, "sinks": p.sinks, "arcs": p.arcs} for p in parts]
        )
        kinds = classify_upper_equality(G)
        data["upper_equality"] = (
            None
            if kinds is None
            else [{"kind": k.tag.value, "vertices": k.vertices} for k in kinds]
        )
    else:
        raise BadParameterError(f"unknown report kind {which!r}")
    return data


_INT, _FLOAT, _SEQUENCE = frozenset({int}), frozenset({float}), frozenset({list, tuple})


def _real(x: float) -> str:
    """A reported real as JSON text: rounded to 12 significant digits, then
    printed as json prints a float, with NaN and infinities spelled its way."""
    x = float(f"{x:.12g}")
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _ints(items, nl: str) -> str:
    """A sequence of plain ints as an indented JSON array opened on line ``nl``."""
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(int.__repr__, items)) + nl + "]"


def _write(obj, nl: str = "\n") -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, with reals rounded.

    ``nl`` is a newline plus the indent of the line ``obj`` starts on.  Lists
    of plain ints, of plain floats or of int sequences are joined in one pass.
    Dict keys must be str (``encode_basestring_ascii`` raises TypeError on any
    other key), and any other value json rejects raises TypeError too.
    """
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds <= _INT:
            return _ints(obj, nl)
        if kinds == _FLOAT:
            items = map(_real, obj)
        elif kinds <= _SEQUENCE and set(map(type, chain.from_iterable(obj))) == _INT:
            items = map(_ints, obj, repeat(inner))
        else:
            items = [_write(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _write(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _real(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit_report(G: Digraph, which: str) -> str:
    """The report for one subcommand as deterministic JSON text."""
    return _write(report_data(G, which))


def render_text(data: dict) -> str:
    """Flat human-readable rendering of report data."""
    lines = []
    for key, value in data.items():
        # the value as the report writes it, re-read and printed on one line
        lines.append(f"{key}: {json.dumps(json.loads(_write(value)))}")
    return "\n".join(lines)


def _read_graph(path: str) -> Digraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_edge_list(text)


def _print_data(data: dict, fmt: str) -> None:
    print(_write(data) if fmt == "json" else render_text(data))


def _cmd_report(args: argparse.Namespace) -> int:
    G = _read_graph(args.file)
    _print_data(report_data(G, args.which), args.format)
    return 0


# each generator with the types of its command-line parameters
_GENERATORS = {
    "cycle": (gen_cycle, (int,)),
    "path": (gen_path, (int,)),
    "kbip": (gen_kbip, (int, int)),
    "random": (gen_random, (int, float, int)),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    make, types = _GENERATORS[args.kind]
    bad = BadParameterError(f"gen {args.kind}: bad parameters {' '.join(args.params)!r}")
    if len(args.params) != len(types):
        raise bad
    # only the conversions are guarded: the generator's own BadParameterError
    # carries the reason a value is refused
    try:
        values = [convert(param) for convert, param in zip(types, args.params)]
    except ValueError:
        raise bad from None
    sys.stdout.write(serialize_edge_list(make(*values)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    summary = sweep(args.max_n, tol=args.tol, jobs=args.jobs)
    _print_data(summary.to_dict(), args.format)
    return 0 if summary.ok() else 1


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads: --tol only on sweep,
    # the one command whose verdicts are judged within a tolerance
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json", help="output format")

    parser = argparse.ArgumentParser(
        prog="dgspec",
        description="Spectral and degree-based invariants of directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for which in REPORT_KINDS:
        p = sub.add_parser(which, parents=[fmt], help=f"{which} report for FILE")
        p.add_argument("file", help="edge-list file, or - for stdin")
        p.set_defaults(func=_cmd_report, which=which)

    p = sub.add_parser("gen", help="emit a generated graph as an edge list")
    p.add_argument("kind", choices=tuple(_GENERATORS))
    p.add_argument("params", nargs="*", help="cycle/path: N; kbip: N M; random: N P SEED")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", parents=[fmt], help="exhaustive property check over small graphs")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="numeric tolerance")
    p.add_argument("--max-n", type=int, required=True, help="largest vertex count")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per CPU")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
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
