"""dgspec benchmark: closed loop, one client, one operation in flight.

    python3 perfbench/run.py --workload sweep|dense|blocks --seed N --seconds S --trace 0|1

Run from the root of a checkout; dgspec is imported from its ``src``.
Workload and metric names come from ``BENCHMARK.json`` at that root.

* ``sweep``: one op is ``oracle.sweep(4)`` in a freshly spawned worker.
* ``dense``: one op parses a fresh G(600, 0.05) edge list and emits the
  energy, bounds and classify reports.
* ``blocks``: the same op on a fresh disjoint union of cycles, paths,
  K(a,b) pieces and isolated vertices with permuted labels.

Every op's output is checked against the benchmark's own reference.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every other op runs under the layer tracer and the line carries
the per-layer metrics.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import benchenv

benchenv.pin_threads()  # before numpy loads BLAS

import numpy as np  # noqa: E402
import ops  # noqa: E402
from layers import LayerTracer  # noqa: E402

SETUP_PROBES = 5
BRACKET_SPINS = 3
WORKER_TIMEOUT_S = 120


def run_worker(*argv: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(benchenv.HERE / "worker.py"), *argv],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Workload:
    """Set-up probes and one timed, checked op of a generated-input workload."""

    graphs_per_op = 1

    def __init__(self, name: str, seed: int, cli):
        self.name, self.seed, self.cli = name, seed, cli
        self.setups: list[tuple[float, float]] = []  # (set-up seconds, host ref ms)
        self.rss: list[float] = []
        self._ref_ms = 0.0

    def set_up(self) -> None:
        for k in range(SETUP_PROBES):
            res = run_worker("setup", "--workload", self.name, "--seed", str(self.seed), "--index", str(k))
            self.setups.append((res["setup_s"], res["ref_ms"]))
            self.rss.append(res["rss_mb"])
        warm = ops.make_case(self.name, self.seed, ops.WARMUP, SETUP_PROBES)
        ops.run_op(self.cli, warm.text)
        self._ref_ms = benchenv.host_ref_ms(BRACKET_SPINS)

    def op(self, index: int, traced: bool) -> dict:
        """Time one op between two sets of host spins, then check it."""
        case = ops.make_case(self.name, self.seed, ops.TIMED, index)
        tracer = LayerTracer()
        with tracer.traced() if traced else nullcontext():
            t = time.perf_counter()
            out = ops.run_op(self.cli, case.text)
            op_ms = (time.perf_counter() - t) * 1e3
        ref_before, self._ref_ms = self._ref_ms, benchenv.host_ref_ms(BRACKET_SPINS)
        bad = ops.check_reports(case, ops.reference(case), out)
        return {"op_ms": op_ms, "ref_ms": (ref_before + self._ref_ms) / 2, "bad": bad,
                "layers": tracer.metrics() if traced else None}


class Sweep(Workload):
    """Exhaustive, so the seed is unused; each op's worker import is its set-up."""

    graphs_per_op = ops.SWEEP_GRAPHS

    def set_up(self) -> None:
        pass

    def op(self, index: int, traced: bool) -> dict:
        res = run_worker("sweep", "--trace", str(int(traced)))
        self.setups.append((res["setup_s"], res["ref_ms"]))
        self.rss.append(res["rss_mb"])
        return {"op_ms": res["op_s"] * 1e3, "ref_ms": res["ref_ms"],
                "bad": ops.check_sweep(res["summary"]), "layers": res.get("layers")}


def measure(work: Workload, seconds: float, trace: bool) -> list[dict]:
    """Closed loop: one op in flight, new ops started until ``seconds`` pass
    (and, when tracing, until one traced and one untraced op have run)."""
    samples = []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < 1 + trace:
        # Over 16 ops each position of the 8-input blocks cycle is traced
        # once and untraced once.
        traced = trace and (index + index // len(ops.BLOCKS_CYCLE)) % 2 == 0
        try:
            sample = work.op(index, traced)
        except Exception:
            sample = {"op_ms": None, "ref_ms": None, "bad": [traceback.format_exc()], "layers": None}
        sample["traced"] = traced
        for line in sample["bad"]:
            print(f"op {index} failed: {line}", file=sys.stderr)
        samples.append(sample)
        index += 1
    return samples


def _summary(work: Workload, samples: list[dict], scale) -> dict[str, float]:
    done = [s for s in samples if s["op_ms"] is not None and not s["traced"]]
    ms = [scale(s["op_ms"], s["ref_ms"]) for s in done]
    return {
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "graphs_per_s": work.graphs_per_op * len(ms) / (sum(ms) / 1e3),
        "setup_s": float(np.median([scale(t, r) for t, r in work.setups])),
        "peak_rss_mb": max(work.rss),
    }


def end_to_end(work: Workload, samples: list[dict]) -> tuple[dict, dict]:
    """Host-normalised metrics, and the same metrics from raw wall times."""
    return _summary(work, samples, benchenv.normalised), _summary(work, samples, lambda t, r: t)


def per_layer(samples: list[dict]) -> dict[str, float]:
    """Mean per traced op of every layer metric, plus host speed and tracing cost."""
    traced = [s for s in samples if s["traced"] and s["layers"]]
    plain = [s for s in samples if not s["traced"] and s["op_ms"] is not None]
    out = {name: statistics.fmean(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
    out["host_ref_ms"] = statistics.median(s["ref_ms"] for s in samples if s["ref_ms"])
    out["trace_overhead"] = (
        statistics.median(benchenv.normalised(s["op_ms"], s["ref_ms"]) for s in traced)
        / statistics.median(benchenv.normalised(s["op_ms"], s["ref_ms"]) for s in plain)
    )
    return out


def main(argv=None) -> int:
    spec = json.loads((benchenv.HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchenv.use_source()
    from dgspec import cli

    work = (Sweep if args.workload == "sweep" else Workload)(args.workload, args.seed, cli)
    work.set_up()
    samples = measure(work, args.seconds, bool(args.trace))

    failed = sum(1 for s in samples if s["bad"])
    raw = {}
    if args.trace:
        computed = per_layer(samples)
    else:
        computed, raw = end_to_end(work, samples)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    env = benchenv.environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               ops=len(samples), fail_ratio=failed / len(samples), ref_nominal_ms=benchenv.REF_NOMINAL_MS,
               host_ref_ms=statistics.median(s["ref_ms"] for s in samples if s["ref_ms"]),
               computed=computed, raw=raw)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
