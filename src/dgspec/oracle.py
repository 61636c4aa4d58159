"""Exhaustive small-digraph enumeration and the property harness.

Every simple digraph on up to 5 vertices is reachable by its arc-bitmask
code, and ``check_graph`` evaluates twelve proved properties on one graph
through the public operations of the other modules.  ``sweep`` runs the
harness over every graph up to a vertex count and merges the outcomes;
zero failures over n <= 4 is the repository's master correctness gate.

Property tolerances are scaled from the harness base tolerance ``tol``:
sum-accumulating identities (edge-energy sum, energy transfer, the two
equality cross-validations) get 10x headroom, while the Randic transfer,
which is exact degree arithmetic on both sides, is held 10x tighter.
All other properties use ``tol`` directly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool

from .classify import classify_lower_equality, classify_upper_equality, find_splitting, verify_splitting
from .digraph import Digraph, _count, degree_profile
from .energy import adjacent_pair_check, edge_energy, energy_report, mcclelland_bound, vertex_degree_bound_check
from .errors import BadParameterError
from .hermitian import double, undirected_energy, undirected_randic
from .randic import bounds_certificate

MAX_ENUM_N = 5

PROPERTY_NAMES = (
    "lower_bound",
    "upper_bound",
    "pair_product",
    "pair_sum",
    "vertex_degree_bound",
    "mcclelland",
    "edge_energy_sum",
    "transfer_energy",
    "transfer_randic",
    "lower_equality_iff",
    "upper_equality_iff",
    "trace_agreement",
)

_TOL_SCALE = {
    "edge_energy_sum": 10.0,
    "transfer_energy": 10.0,
    "lower_equality_iff": 10.0,
    "upper_equality_iff": 10.0,
    "transfer_randic": 0.1,
}


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property on one graph.

    For inequality properties ``slack`` is the worst margin above the bound
    (negative means violated); for identity properties it is the absolute
    deviation.  ``witness`` names the worst-case arc or vertex, or the
    whole graph; it is None only when the property is vacuous.
    """

    ok: bool
    slack: float | None
    witness: str | None


@dataclass(frozen=True)
class CheckOutcome:
    graph_code: int
    n: int
    results: dict[str, PropertyResult]

    def ok(self) -> bool:
        return all(r.ok for r in self.results.values())


@dataclass(frozen=True)
class SweepSummary:
    max_n: int
    tol: float
    total: int
    pass_counts: dict[str, int]
    failures: tuple[tuple[int, int, str, str], ...]  # (n, code, property, witness)
    min_pair_product: float
    min_lower_slack: float
    min_upper_slack: float

    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        def finite(x: float) -> float | None:
            return x if math.isfinite(x) else None

        return {
            "max_n": self.max_n,
            "tol": self.tol,
            "total_graphs": self.total,
            "failure_count": len(self.failures),
            "failures": [
                {"n": n, "code": code, "property": prop, "witness": witness}
                for n, code, prop, witness in self.failures
            ],
            "properties": {name: self.pass_counts[name] for name in PROPERTY_NAMES},
            "min_pair_product": finite(self.min_pair_product),
            "min_lower_slack": finite(self.min_lower_slack),
            "min_upper_slack": finite(self.min_upper_slack),
        }


@lru_cache(maxsize=MAX_ENUM_N)
def arc_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All ordered pairs (u, v), u != v, in lexicographic order (built once per n)."""
    return tuple((u, v) for u in range(n) for v in range(n) if u != v)


def code_of(G: Digraph) -> int:
    """The arc-bitmask code of a digraph (bit i = i-th lexicographic pair)."""
    code = 0
    for u, v in G.arcs:
        # the pairs (u, .) start at bit u * (G.n - 1), and (u, u) is skipped
        code |= 1 << (u * (G.n - 1) + v - (v > u))
    return code


def digraph_of_code(n: int, code: int) -> Digraph:
    pairs = arc_pairs(n)
    return Digraph(n, tuple(pairs[i] for i in range(len(pairs)) if code >> i & 1))


def enumerate_digraphs(n: int):
    """Yield every simple digraph on n vertices once, in increasing code order."""
    n = _count(n)
    if not 1 <= n <= MAX_ENUM_N:
        raise BadParameterError(f"enumeration supports 1..{MAX_ENUM_N} vertices, got {n}")
    pair_count = n * (n - 1)
    for code in range(1 << pair_count):
        yield digraph_of_code(n, code)


def check_graph(G: Digraph, tol: float = 1e-9) -> CheckOutcome:
    """Evaluate the twelve properties on one digraph.

    Failures are recorded in the outcome, never raised; every proved
    property must hold for every simple digraph, so a failure indicates
    an implementation bug somewhere in the pipeline.
    """
    rep = energy_report(G)
    cert = bounds_certificate(G, tol)
    results: dict[str, PropertyResult] = {}

    results["lower_bound"] = PropertyResult(
        cert.lower_slack >= -tol, cert.lower_slack, "graph"
    )
    results["upper_bound"] = PropertyResult(
        cert.upper_slack >= -tol, cert.upper_slack, "graph"
    )

    pair_checks = adjacent_pair_check(G)
    if pair_checks:
        worst_prod = min(pair_checks, key=lambda c: c.product)
        worst_sum = min(pair_checks, key=lambda c: c.sum)
        results["pair_product"] = PropertyResult(
            worst_prod.product >= 1.0 - tol,
            worst_prod.product - 1.0,
            f"arc {worst_prod.arc}",
        )
        results["pair_sum"] = PropertyResult(
            worst_sum.sum >= 2.0 - tol, worst_sum.sum - 2.0, f"arc {worst_sum.arc}"
        )
    else:
        results["pair_product"] = PropertyResult(True, None, None)
        results["pair_sum"] = PropertyResult(True, None, None)

    degree_checks = vertex_degree_bound_check(G)
    if degree_checks:
        worst = min(degree_checks, key=lambda c: min(c.out_slack, c.in_slack))
        slack = min(worst.out_slack, worst.in_slack)
        results["vertex_degree_bound"] = PropertyResult(
            slack >= -tol, slack, f"vertex {worst.vertex}"
        )
    else:
        results["vertex_degree_bound"] = PropertyResult(True, None, None)

    out_sum, in_sum, root_an = mcclelland_bound(G)
    mc_slack = min(min(out_sum, in_sum) - rep.total, root_an - max(out_sum, in_sum))
    results["mcclelland"] = PropertyResult(mc_slack >= -tol, mc_slack, "graph")

    edge_sum = sum(edge_energy(G, arc) for arc in G.arcs)
    edge_dev = abs(edge_sum - 2.0 * rep.total)
    results["edge_energy_sum"] = PropertyResult(
        edge_dev <= tol * _TOL_SCALE["edge_energy_sum"], edge_dev, "graph"
    )

    H = double(G)
    energy_dev = abs(2.0 * rep.total - undirected_energy(H))
    results["transfer_energy"] = PropertyResult(
        energy_dev <= tol * _TOL_SCALE["transfer_energy"], energy_dev, "graph"
    )
    randic_dev = abs(2.0 * cert.randic - undirected_randic(H))
    results["transfer_randic"] = PropertyResult(
        randic_dev <= tol * _TOL_SCALE["transfer_randic"], randic_dev, "graph"
    )

    splitting = find_splitting(G)
    splitting_valid = splitting is None or verify_splitting(G, splitting)
    lower_struct = classify_lower_equality(G) is not None
    lower_numeric = abs(cert.lower_slack) <= tol * _TOL_SCALE["lower_equality_iff"]
    results["lower_equality_iff"] = PropertyResult(
        splitting_valid and lower_struct == lower_numeric,
        cert.lower_slack,
        "graph" if splitting_valid else "splitting failed verification",
    )

    upper_struct = classify_upper_equality(G) is not None
    upper_numeric = abs(cert.upper_slack) <= tol * _TOL_SCALE["upper_equality_iff"]
    results["upper_equality_iff"] = PropertyResult(
        upper_struct == upper_numeric, cert.upper_slack, "graph"
    )

    trace_dev = abs(float(rep.vertex_out.sum()) - float(rep.vertex_in.sum()))
    results["trace_agreement"] = PropertyResult(trace_dev <= tol, trace_dev, "graph")

    return CheckOutcome(code_of(G), G.n, results)


def _sweep_chunk(task: tuple[int, int, int, float]) -> SweepSummary:
    """Partial summary of one contiguous code range for one vertex count."""
    n, start, stop, tol = task
    passes = dict.fromkeys(PROPERTY_NAMES, 0)
    failures = []
    min_product = math.inf
    min_lower = math.inf
    min_upper = math.inf
    for code in range(start, stop):
        outcome = check_graph(digraph_of_code(n, code), tol)
        for name, result in outcome.results.items():
            if result.ok:
                passes[name] += 1
            else:
                failures.append((n, code, name, result.witness or "graph"))
        prod = outcome.results["pair_product"].slack
        if prod is not None:
            min_product = min(min_product, prod + 1.0)
        min_lower = min(min_lower, outcome.results["lower_bound"].slack)
        min_upper = min(min_upper, outcome.results["upper_bound"].slack)
    return SweepSummary(n, tol, stop - start, passes, tuple(failures), min_product, min_lower, min_upper)


def _merge(max_n: int, tol: float, chunks: list[SweepSummary]) -> SweepSummary:
    return SweepSummary(
        max_n=max_n,
        tol=tol,
        total=sum(c.total for c in chunks),
        pass_counts={name: sum(c.pass_counts[name] for c in chunks) for name in PROPERTY_NAMES},
        failures=tuple(sorted(f for c in chunks for f in c.failures)),
        min_pair_product=min(c.min_pair_product for c in chunks),
        min_lower_slack=min(c.min_lower_slack for c in chunks),
        min_upper_slack=min(c.min_upper_slack for c in chunks),
    )


def sweep(max_n: int, tol: float = 1e-9, jobs: int = 1) -> SweepSummary:
    """Run check_graph over every digraph with 1..max_n vertices.

    ``jobs`` > 1 partitions the code space across worker processes, at most
    one per CPU and one per task; the merge is associative, so the summary
    is identical for any job count.
    """
    if not 1 <= max_n <= MAX_ENUM_N:
        raise BadParameterError(f"sweep supports 1..{MAX_ENUM_N} vertices, got {max_n}")
    workers = min(jobs, os.cpu_count() or 1)
    tasks = []
    for n in range(1, max_n + 1):
        count = 1 << (n * (n - 1))
        if workers > 1 and count > 4 * workers:
            step = -(-count // (4 * workers))
            tasks.extend((n, lo, min(lo + step, count), tol) for lo in range(0, count, step))
        else:
            tasks.append((n, 0, count, tol))
    workers = min(workers, len(tasks))
    if workers > 1:
        with Pool(workers) as pool:
            chunks = pool.map(_sweep_chunk, tasks)
    else:
        chunks = [_sweep_chunk(task) for task in tasks]
    return _merge(max_n, tol, chunks)
