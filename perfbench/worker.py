"""One fresh process: import dgspec, run one operation, report as JSON.

    python3 perfbench/worker.py sweep --trace 0|1
    python3 perfbench/worker.py setup --workload dense|blocks --seed N --index K

``sweep`` runs ``oracle.sweep(4, tol=1e-9, jobs=1)`` the way ``dgspec sweep
--max-n 4`` does, so no result cached by an earlier operation survives.
``setup`` times the import plus one warm-up operation, the set-up cost a
user pays before the first report.  Both time host spins in this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import time

import benchenv

SETUP_SPINS = 5
TICK_S = 0.1


class Ticker:
    """Time one spin unit every ``TICK_S`` while an op runs.

    A sweep op lasts seconds, longer than the host keeps one speed, so spins
    at its two ends miss the drift in between.  The handler runs between
    bytecodes of this process, on the op's own core; the time it takes is
    recorded so the caller can subtract it from the op.
    """

    def __init__(self):
        self.spins: list[float] = []

    def _tick(self, signum, frame):
        self.spins.append(benchenv.spin_ms())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("sweep", "setup"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", default="dense")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args()
    benchenv.pin_threads()
    benchenv.use_source()

    t0 = time.perf_counter()
    from dgspec import cli, oracle

    import_s = time.perf_counter() - t0
    import ops
    from layers import LayerTracer

    result: dict = {}
    if args.mode == "sweep":
        # A traced op runs without ticks, so no spin lands in a layer's time.
        tracer, ticker = LayerTracer(), Ticker()
        with tracer.traced() if args.trace else ticker:
            t1 = time.perf_counter()
            summary = oracle.sweep(ops.SWEEP_MAX_N, tol=ops.SWEEP_TOL, jobs=1)
            op_s = time.perf_counter() - t1 - sum(ticker.spins) / 1e3
        ref_ms = statistics.median(ticker.spins) if ticker.spins else benchenv.host_ref_ms(SETUP_SPINS)
        result.update(summary=summary.to_dict(), setup_s=import_s, ref_ms=ref_ms)
        if args.trace:
            result["layers"] = tracer.metrics()
    else:
        case = ops.make_case(args.workload, args.seed, ops.WARMUP, args.index)
        t1 = time.perf_counter()
        ops.run_op(cli, case.text)
        op_s = time.perf_counter() - t1
        result.update(setup_s=import_s + op_s, ref_ms=benchenv.host_ref_ms(SETUP_SPINS))
    result["op_s"] = op_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
