"""Time and peak RSS of the protocol-2 reveal set: its dense operator, the
operator's solves, and its r x r Gram matrix.

    python3 tools/probe_reveal.py --ms 1024,2048,4095 --r 3

Each case is a codebook ``generate_certified_codebook(m, 1.0, k, seed)``
(its first attempt) and a cheat set of ``r`` indices drawn with
``numpy.random.default_rng(seed)``.  Every figure is taken in a fresh
Python process that imports ``qbsc`` from ``--src``, builds the codebook
and the cheat set, then times one call, with the growth of the process's
peak RSS across it (``resource.getrusage``, so Unix only):

- ``q_operator``: ``protocol2.q_operator``, the dense dim x dim matrix;
- ``eigvalsh``: ``np.linalg.eigvalsh`` of that matrix, built beforehand;
- ``strategy``: ``adversary.top_eigenvector_strategy`` of that matrix
  with its cap, the solve behind ``qbsc cheat --protocol 2``;
- ``gram``: the one batch ``protocol2.cheat_set_grams`` yields for the
  one cheat set, the r x r matrix the audit solves; that function alone
  decides what a batch holds.

Each figure is ``<name>_s`` (wall seconds) and ``<name>_growth_mb``; the
process's whole peak is ``<name>_peak_rss_mb``.  Each case runs
``--repeats`` times per figure, every time in a new process, and one JSON
object per m gives the median of each figure.
"""

import argparse
import json
import statistics
import subprocess
import sys

FIGURES = ("q_operator", "eigvalsh", "strategy", "gram")

CHILD = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from qbsc import adversary, codebook, protocol2

figure = sys.argv[2]
m, k, r, seed = (int(a) for a in sys.argv[3:7])


def peak_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


cb = codebook.generate_certified_codebook(m, 1.0, k, seed)
indices = np.random.default_rng(seed).choice(cb.size, size=r, replace=False).tolist()
cheat_set = protocol2.cheat_set_for(cb, indices)
bound = protocol2.binding_bound2(r, cb.epsilon_certified)
if figure in ("eigvalsh", "strategy"):
    q = protocol2.q_operator(cb, cheat_set)
call = {
    "q_operator": lambda: protocol2.q_operator(cb, cheat_set),
    "eigvalsh": lambda: np.linalg.eigvalsh(q.mat),
    "strategy": lambda: adversary.top_eigenvector_strategy(q, bound=bound),
    "gram": lambda: list(protocol2.cheat_set_grams(cb, [indices])),
}[figure]
before = peak_mb()
start = time.perf_counter()
call()
wall = time.perf_counter() - start
after = peak_mb()
print(json.dumps({f"{figure}_s": wall, f"{figure}_growth_mb": after - before,
                  f"{figure}_peak_rss_mb": after}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--ms", default="1024,2048,4095")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--r", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    for m in args.ms.split(","):
        medians = {"m": int(m), "k": args.k, "r": args.r, "seed": args.seed,
                   "repeats": args.repeats}
        for figure in FIGURES:
            runs = []
            for _ in range(args.repeats):
                argv = [args.src, figure, m, str(args.k), str(args.r), str(args.seed)]
                done = subprocess.run([sys.executable, "-c", CHILD, *argv],
                                      capture_output=True, text=True, timeout=600)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                runs.append(json.loads(done.stdout))
            for key in runs[0]:
                medians[key] = round(statistics.median(run[key] for run in runs), 6)
        print(json.dumps(medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
