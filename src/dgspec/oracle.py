"""Exhaustive small-digraph enumeration and the property harness.

Every simple digraph on up to 5 vertices is reachable by its arc-bitmask
code, and ``check_graph`` evaluates twelve proved properties on one graph
through the public operations of the other modules.  ``sweep`` runs the
harness over every graph up to a vertex count and merges the outcomes;
zero failures over n <= 4 is the repository's master correctness gate.
The sweep judges every labelled graph with the same ``check_graph`` but
builds the graphs ``_BATCH`` at a time and first fills each batch's lazy
energy reports and double energies, with one stacked eigensolve per block
shape and one per batch of doubles; each graph gets the bits it would get
alone.

Each property is judged within ``tol`` times its own multiple from the one
table ``_TOL_SCALE``: an inequality holds when its margin is at least
``-tol * scale``, an identity when its deviation is at most ``tol * scale``.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool

import numpy as np

from .classify import find_splitting, verify_splitting
from .digraph import Digraph, _count
from .energy import _decompose, adjacent_pair_check, edge_energy, energy_report, mcclelland_bound, vertex_degree_bound_check
from .errors import BadParameterError
from .hermitian import _energies, double, undirected_energy, undirected_randic
from .randic import DEFAULT_TOL, bounds_certificate

MAX_ENUM_N = 5

# graphs per batch of the sweep: enough to amortise a stacked solve's fixed
# cost, few enough to keep a worker's memory flat
_BATCH = 64

# each property's tolerance as a multiple of ``tol``, in report order: the
# identities that accumulate sums over arcs or spectra (edge-energy sum,
# energy transfer, the two equality cross-validations) get 10x headroom,
# while the Randic transfer, exact degree arithmetic on both sides, is held
# 10x tighter
_TOL_SCALE = {
    "lower_bound": 1.0,
    "upper_bound": 1.0,
    "pair_product": 1.0,
    "pair_sum": 1.0,
    "vertex_degree_bound": 1.0,
    "mcclelland": 1.0,
    "edge_energy_sum": 10.0,
    "transfer_energy": 10.0,
    "transfer_randic": 0.1,
    "lower_equality_iff": 10.0,
    "upper_equality_iff": 10.0,
    "trace_agreement": 1.0,
}
PROPERTY_NAMES = tuple(_TOL_SCALE)


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


def digraph_of_code(n: int, code: int) -> Digraph:
    pairs = arc_pairs(n)
    return Digraph(n, tuple(pairs[i] for i in range(len(pairs)) if code >> i & 1))


def enumerate_digraphs(n: int):
    """Every simple digraph on n vertices once, lazily, in increasing code order."""
    n = _count(n)
    if not 1 <= n <= MAX_ENUM_N:
        raise BadParameterError(f"enumeration supports 1..{MAX_ENUM_N} vertices, got {n}")
    return (digraph_of_code(n, code) for code in range(1 << (n * (n - 1))))


def _check_tol(tol) -> None:
    """Refuse a ``tol`` that is not a finite real number >= 0."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0.0):
        raise BadParameterError(f"tol must be finite and >= 0, got {tol!r}")


def check_graph(G: Digraph, tol: float = DEFAULT_TOL) -> CheckOutcome:
    """Evaluate the twelve properties on one digraph.

    Failures are recorded in the outcome, never raised; every proved
    property must hold for every simple digraph, so a failure indicates
    an implementation bug somewhere in the pipeline.  A ``tol`` that is not
    a finite real number >= 0 raises BadParameterError.
    """
    _check_tol(tol)
    rep = energy_report(G)
    cert = bounds_certificate(G)
    results: dict[str, PropertyResult] = {}

    def bound(name: str, margin: float, witness: str = "graph") -> None:
        results[name] = PropertyResult(margin >= -tol * _TOL_SCALE[name], margin, witness)

    def identity(name: str, deviation: float) -> None:
        results[name] = PropertyResult(deviation <= tol * _TOL_SCALE[name], deviation, "graph")

    bound("lower_bound", cert.lower_slack)
    bound("upper_bound", cert.upper_slack)

    products, sums = adjacent_pair_check(G)
    if G.arcs:
        i, j = int(products.argmin()), int(sums.argmin())
        bound("pair_product", float(products[i]) - 1.0, f"arc {G.arcs[i]}")
        bound("pair_sum", float(sums[j]) - 2.0, f"arc {G.arcs[j]}")
    else:
        results["pair_product"] = PropertyResult(True, None, None)
        results["pair_sum"] = PropertyResult(True, None, None)

    vertex_slack = np.minimum(*vertex_degree_bound_check(G))
    if G.n:
        v = int(vertex_slack.argmin())
        bound("vertex_degree_bound", float(vertex_slack[v]), f"vertex {v}")
    else:
        results["vertex_degree_bound"] = PropertyResult(True, None, None)

    out_sum, in_sum, root_an = mcclelland_bound(G)
    bound("mcclelland", min(min(out_sum, in_sum) - rep.total, root_an - max(out_sum, in_sum)))

    # left to right: np.sum adds pairwise and would move the slack's last bits
    edge_sum = sum(edge_energy(G).tolist())
    identity("edge_energy_sum", abs(edge_sum - 2.0 * rep.total))

    H = double(G)
    identity("transfer_energy", abs(2.0 * rep.total - undirected_energy(H)))
    identity("transfer_randic", abs(2.0 * cert.randic - undirected_randic(H)))

    # the certificate's structural flags against its numeric slacks
    splitting = find_splitting(G)
    splitting_valid = splitting is None or verify_splitting(G, splitting)
    lower_numeric = abs(cert.lower_slack) <= tol * _TOL_SCALE["lower_equality_iff"]
    results["lower_equality_iff"] = PropertyResult(
        splitting_valid and cert.lower_equal == lower_numeric,
        cert.lower_slack,
        "graph" if splitting_valid else "splitting failed verification",
    )
    upper_numeric = abs(cert.upper_slack) <= tol * _TOL_SCALE["upper_equality_iff"]
    results["upper_equality_iff"] = PropertyResult(
        cert.upper_equal == upper_numeric, cert.upper_slack, "graph"
    )

    identity("trace_agreement", abs(float(rep.vertex_out.sum()) - float(rep.vertex_in.sum())))

    return CheckOutcome(results)


def _primed_digraphs(n: int, start: int, stop: int):
    """The digraphs of codes start..stop-1 on n vertices, in order, built
    ``_BATCH`` at a time with their energy reports and the energies of their
    doubles already kept on them."""
    for lo in range(start, stop, _BATCH):
        batch = [digraph_of_code(n, code) for code in range(lo, min(lo + _BATCH, stop))]
        # a cached_property reads the instance dict first, so these entries
        # are what ``energy_report`` and ``undirected_energy`` return
        for G, rep in zip(batch, _decompose(batch)):
            vars(G)["_energy"] = rep
        doubles = [G._double for G in batch]
        for H, energy in zip(doubles, _energies(doubles)):
            vars(H)["_energy"] = energy
        yield from batch


def _sweep_chunk(task: tuple[int, int, int, float]) -> SweepSummary:
    """Partial summary of one contiguous code range for one vertex count."""
    n, start, stop, tol = task
    passes = dict.fromkeys(PROPERTY_NAMES, 0)
    failures = []
    min_product = math.inf
    min_lower = math.inf
    min_upper = math.inf
    for code, G in zip(range(start, stop), _primed_digraphs(n, start, stop)):
        outcome = check_graph(G, tol)
        for name, result in outcome.results.items():
            if result.ok:
                passes[name] += 1
            else:
                failures.append((n, code, name, result.witness))
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


def sweep(max_n: int, tol: float = DEFAULT_TOL, jobs: int = 1) -> SweepSummary:
    """Run check_graph over every digraph with 1..max_n vertices.

    ``jobs`` > 1 partitions the code space across worker processes, at most
    one per CPU and one per task; the merge is associative, so the summary
    is identical for any job count.  A count that is not an integer, a
    ``jobs`` below 1 and a ``tol`` that is not a finite real number >= 0
    raise BadParameterError.
    """
    max_n, jobs = _count(max_n), _count(jobs, "jobs")
    if not 1 <= max_n <= MAX_ENUM_N:
        raise BadParameterError(f"sweep supports 1..{MAX_ENUM_N} vertices, got {max_n}")
    if jobs < 1:
        raise BadParameterError(f"jobs must be >= 1, got {jobs}")
    _check_tol(tol)
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
