"""Inputs, the timed operation and the reference checks of each workload.

Every input is a pure function of ``(seed, index)``: the same pair always
gives byte-identical edge-list text, and distinct pairs give distinct graphs,
so no operation can be answered from a cache filled by an earlier one.

The checks compare the program's JSON reports with references the benchmark
computes itself (an SVD of its own matrix, its own degree arithmetic and the
generator's knowledge of the pieces it placed), always within a tolerance and
never by digest, so a more accurate kernel is not counted as a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

N_VERTICES = 600
DENSE_P = 0.05
REPORTS = ("energy", "bounds", "classify")
SWEEP_MAX_N = 4
SWEEP_TOL = 1e-9
# 1 + 4 + 64 + 4096 labelled digraphs on 1..4 vertices.
SWEEP_GRAPHS = 4165

# Relative tolerance on energies against the reference SVD.
ENERGY_RTOL = 1e-8

# Stream tags keep warm-up / set-up inputs apart from timed inputs.
TIMED, WARMUP = 1, 0


@dataclass(frozen=True)
class Case:
    """One generated input: edge-list text plus what the checks need."""

    text: str
    n: int
    arcs: np.ndarray  # (m, 2) int array, u -> v
    lower_equal: bool  # structural truth of E = 2R
    upper_equal: bool  # structural truth of E = 2 sqrt(D) R
    lower_parts: tuple | None  # sorted expected splitting, None when rejected
    upper_kinds: tuple | None  # sorted expected (kind, vertices), None when rejected


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def edge_text(n: int, arcs: np.ndarray) -> str:
    lines = [f"n {n}"]
    lines.extend(f"{u} {v}" for u, v in arcs.tolist())
    return "\n".join(lines) + "\n"


def dense_case(rng: np.random.Generator) -> Case:
    """G(600, 0.05): one giant B(G) component, both classifiers reject."""
    A = rng.random((N_VERTICES, N_VERTICES)) < DENSE_P
    np.fill_diagonal(A, False)
    arcs = np.argwhere(A)
    # A transitive triangle u->v->w, u->w joins v's two copies in B(G), and
    # a degree of 2 rules out the upper case; G(600, 0.05) has thousands.
    Af = A.astype(float)
    if not np.any((Af @ Af) * Af) or max(Af.sum(0).max(), Af.sum(1).max()) < 2:
        raise RuntimeError("dense input lacks the structure its checks assume")
    return Case(edge_text(N_VERTICES, arcs), N_VERTICES, arcs, False, False, None, None)


def _pieces(rng: np.random.Generator, upper_only: bool) -> list[tuple[str, int, int]]:
    """Random pieces (kind, a, b) whose vertex counts sum to N_VERTICES."""
    kinds = ("cycle", "path", "isolated") if upper_only else ("cycle", "path", "isolated", "kbip")
    pieces: list[tuple[str, int, int]] = []
    left = N_VERTICES
    while left:
        kind = kinds[rng.integers(len(kinds))]
        if kind == "kbip":
            a, b = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            size = a + b
        elif kind == "isolated":
            a, b, size = 1, 0, 1
        else:
            a, b = int(rng.integers(2, 13)), 0
            size = a
        if size > left:
            kind, a, b, size = "isolated", 1, 0, 1
        pieces.append((kind, a, b))
        left -= size
    return pieces


def blocks_case(rng: np.random.Generator, variant: str) -> Case:
    """Disjoint union of cycles, paths, K(a,b) pieces and isolated vertices.

    ``variant`` is ``"upper"`` (cycles, paths and isolated vertices only, so
    both bounds are attained), ``"kbip"`` (also complete source-to-sink
    pieces, so only the lower bound is attained) or ``"extra"`` (as
    ``"kbip"`` plus a chord and random arcs, so both classifiers reject).
    Labels are a random permutation, so blocks are never contiguous.
    """
    label = rng.permutation(N_VERTICES)
    arcs: list[tuple[int, int]] = []
    parts: set = set()
    kinds: set = set()
    cycles: list[list[int]] = []
    start = 0
    has_kbip = False
    for kind, a, b in _pieces(rng, upper_only=variant == "upper"):
        if kind == "kbip":
            src = [int(label[start + i]) for i in range(a)]
            dst = [int(label[start + a + j]) for j in range(b)]
            piece = [(u, v) for u in src for v in dst]
            parts.add((tuple(sorted(src)), tuple(sorted(dst)), tuple(sorted(piece))))
            start += a + b
            has_kbip = True
        else:
            verts = [int(label[start + i]) for i in range(a)]
            start += a
            if kind == "isolated":
                kinds.add(("isolated_vertex", tuple(verts)))
                continue
            piece = list(zip(verts, verts[1:]))
            if kind == "cycle":
                piece.append((verts[-1], verts[0]))
                cycles.append(verts)
                # the classifier walks a cycle from its smallest label
                k = verts.index(min(verts))
                kinds.add(("directed_cycle", tuple(verts[k:] + verts[:k])))
            else:
                kinds.add(("directed_path", tuple(verts)))
            parts.update(((u,), (v,), ((u, v),)) for u, v in piece)
        arcs.extend(piece)

    # Every K(a,b) piece has a, b >= 2, so any one of them lifts D to 2.
    lower_equal, upper_equal = True, not has_kbip
    lower_parts = tuple(sorted(parts))
    upper_kinds = tuple(sorted(kinds)) if upper_equal else None
    if variant == "extra":
        long_cycles = [c for c in cycles if len(c) > 2]
        if not long_cycles:
            raise RuntimeError("extra variant needs a cycle of length 3 or more")
        # A chord c0 -> c2 puts both copies of c1 in one B(G) component and
        # gives c0 out-degree 2, so both classifiers must reject; arcs added
        # afterwards only merge components and raise degrees.
        c = long_cycles[int(rng.integers(len(long_cycles)))]
        present = set(arcs)
        extra = [(c[0], c[2])]
        while len(extra) < 8:
            u, v = (int(x) for x in rng.integers(N_VERTICES, size=2))
            if u != v:
                extra.append((u, v))
        arcs.extend(e for e in dict.fromkeys(extra) if e not in present)
        lower_equal = upper_equal = False
        lower_parts = upper_kinds = None
    order = rng.permutation(len(arcs))
    arr = np.array(arcs, dtype=np.int64)[order]
    return Case(edge_text(N_VERTICES, arr), N_VERTICES, arr, lower_equal, upper_equal,
                lower_parts, upper_kinds)


# Eight timed blocks inputs in a row cover the variants in fixed shares, so
# every run times the same mix: 2 upper, 5 kbip, 1 extra.
BLOCKS_CYCLE = ("upper", "kbip", "kbip", "kbip", "upper", "kbip", "extra", "kbip")


def make_case(workload: str, seed: int, stream: int, index: int) -> Case:
    rng = rng_for(seed, stream, index)
    if workload == "dense":
        return dense_case(rng)
    if workload == "blocks":
        return blocks_case(rng, BLOCKS_CYCLE[index % len(BLOCKS_CYCLE)])
    raise ValueError(f"no generated input for workload {workload!r}")


def run_op(cli, text: str) -> dict[str, str]:
    """The timed operation: parse the edge list and emit three reports."""
    G = cli.parse_edge_list(text)
    return {which: cli.emit_report(G, which) for which in REPORTS}


@dataclass(frozen=True)
class Reference:
    energy: float
    vertex_out: np.ndarray
    vertex_in: np.ndarray
    randic: float
    max_deg: int


def reference(case: Case) -> Reference:
    """Energies from one SVD of the benchmark's own matrix, Randic from degrees."""
    A = np.zeros((case.n, case.n))
    A[case.arcs[:, 0], case.arcs[:, 1]] = 1.0
    U, sigma, Vt = np.linalg.svd(A)
    out_deg = A.sum(axis=1)
    in_deg = A.sum(axis=0)
    u, v = case.arcs[:, 0], case.arcs[:, 1]
    randic = 0.5 * float(np.sum(1.0 / np.sqrt(out_deg[u] * in_deg[v])))
    return Reference(float(sigma.sum()), (U**2) @ sigma, (Vt**2).T @ sigma, randic,
                     int(max(out_deg.max(), in_deg.max())))


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def check_reports(case: Case, ref: Reference, reports: dict[str, str]) -> list[str]:
    """Every way the three reports disagree with the reference; empty if none."""
    bad: list[str] = []
    energy = json.loads(reports["energy"])
    bounds = json.loads(reports["bounds"])
    classify = json.loads(reports["classify"])
    for rep in (energy, bounds, classify):
        if (rep["n"], rep["arc_count"], rep["max_degree"]) != (case.n, len(case.arcs), ref.max_deg):
            bad.append("n, arc_count or max_degree")
    if not _close(energy["energy"], ref.energy, ENERGY_RTOL):
        bad.append(f"energy {energy['energy']!r} vs reference {ref.energy!r}")
    for key, want in (("vertex_energy_out", ref.vertex_out), ("vertex_energy_in", ref.vertex_in)):
        got = np.asarray(energy[key], dtype=float)
        if got.shape != want.shape or np.any(np.abs(got - want) > ENERGY_RTOL * np.maximum(1.0, np.abs(want))):
            bad.append(f"{key} differs from reference")

    # Bound chain 2R <= E <= 2 sqrt(D) R within the report's tolerance, scaled
    # to E because the report rounds reals to 12 significant digits.
    E, R = bounds["energy"], ref.randic
    tol = bounds["tolerance"] * max(1.0, E)
    if not _close(E, ref.energy, ENERGY_RTOL) or not _close(bounds["randic"], R, 1e-9):
        bad.append("bounds energy or randic differs from reference")
    if not _close(bounds["lower"], 2.0 * R, 1e-9) or not _close(bounds["upper"], 2.0 * math.sqrt(ref.max_deg) * R, 1e-9):
        bad.append("bounds lower or upper differs from reference")
    if bounds["lower"] > E + tol or E > bounds["upper"] + tol:
        bad.append("bound chain does not hold")
    if (bounds["lower_equal"], bounds["upper_equal"]) != (case.lower_equal, case.upper_equal):
        bad.append("equality flags differ from the generated structure")

    lower = classify["lower_equality"]
    got_parts = None if lower is None else tuple(sorted(
        (tuple(p["sources"]), tuple(p["sinks"]), tuple(tuple(a) for a in p["arcs"])) for p in lower
    ))
    if got_parts != case.lower_parts:
        bad.append("lower-equality splitting differs from the generated pieces")
    upper = classify["upper_equality"]
    got_kinds = None if upper is None else tuple(sorted((k["kind"], tuple(k["vertices"])) for k in upper))
    if got_kinds != case.upper_kinds:
        bad.append("upper-equality components differ from the generated pieces")
    return bad


def check_sweep(summary: dict) -> list[str]:
    """The golden n <= 4 summary: 4165 graphs, no failures, all 12 pass everywhere."""
    bad = []
    if summary.get("total_graphs") != SWEEP_GRAPHS:
        bad.append(f"total_graphs {summary.get('total_graphs')!r}")
    if summary.get("failure_count") != 0 or summary.get("failures"):
        bad.append(f"failure_count {summary.get('failure_count')!r}")
    props = summary.get("properties", {})
    if len(props) != 12 or any(count != SWEEP_GRAPHS for count in props.values()):
        bad.append("a property did not pass on every graph")
    return bad
