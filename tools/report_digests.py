"""Print digests of dgspec's report bytes, to check that a change keeps them.

Usage, from anywhere:  python3 tools/report_digests.py

Each line is a set name and the first 8 hex digits of the sha256 of every
report of that set, each ``emit_report(G, kind)`` plus a newline, over the
graphs in order and the kinds in ``REPORT_KINDS`` order.  The ``check_graph``
line hashes ``name ok repr(slack) witness`` of every property of every n <= 4
graph, so it shows a changed witness or slack that the sweep's minima hide;
the ``check_graph(batched)`` line hashes the same fields of the same graphs
as the sweep primes them, a batch of reports and double energies at a time.
The two must be equal: when they differ the script says so on stderr and
exits 1, after printing every line.
The last line hashes the stdout of ``dgspec sweep --max-n 4``.  Run it on two
checkouts and compare the lines.  BLAS runs on one thread, since a threaded
reduction may change the last bit.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

# before numpy loads
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dgspec import check_graph, enumerate_digraphs, gen_cycle, gen_path, gen_random  # noqa: E402
from dgspec.cli import REPORT_KINDS, emit_report, parse_edge_list  # noqa: E402
from dgspec.oracle import _primed_digraphs  # noqa: E402
from perfbench.ops import TIMED, make_case  # noqa: E402


def report_digest(graphs) -> str:
    h = hashlib.sha256()
    for G in graphs:
        for kind in REPORT_KINDS:
            h.update((emit_report(G, kind) + "\n").encode())
    return h.hexdigest()[:8]


def bench_inputs(workload: str, ops: int):
    for seed in (1, 2):
        for op in range(ops):
            yield parse_edge_list(make_case(workload, seed, TIMED, op).text)


def check_digest(graphs) -> str:
    h = hashlib.sha256()
    for G in graphs:
        for name, r in check_graph(G).results.items():
            h.update(f"{name} {r.ok} {r.slack!r} {r.witness}\n".encode())
    return h.hexdigest()[:8]


SETS = {
    "n<=4": lambda: (G for n in range(1, 5) for G in enumerate_digraphs(n)),
    "gen_random": lambda: (
        gen_random(n, p, seed) for n in (10, 50, 120) for p in (0.05, 0.2, 0.6) for seed in range(4)
    ),
    "cycle+path": lambda: (gen_cycle(300), gen_path(200)),
    "dense": lambda: bench_inputs("dense", 2),
    "blocks": lambda: bench_inputs("blocks", 8),
}


def main() -> int:
    for name, graphs in SETS.items():
        print(f"{name} {report_digest(graphs())}", flush=True)
    alone = check_digest(SETS["n<=4"]())
    print(f"check_graph {alone}", flush=True)
    primed = (G for n in range(1, 5) for G in _primed_digraphs(n, 0, 1 << n * (n - 1)))
    batched = check_digest(primed)
    print(f"check_graph(batched) {batched}", flush=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "dgspec", "sweep", "--max-n", "4"], env=env, capture_output=True, check=True
    ).stdout
    print(f"sweep {hashlib.sha256(out).hexdigest()[:8]}")
    if batched != alone:
        print(f"check_graph(batched) {batched} differs from check_graph {alone}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
