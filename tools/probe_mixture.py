"""Time and peak RSS of the protocol-1 mixture: its build and two solves.

    python3 tools/probe_mixture.py --ns 8,10,11,12 --theta 0.3

Each case runs in a fresh Python process that imports ``qbsc`` from
``--src``.  The process first times one ``uniform_commitment_state(n,
theta)`` call, the library's whole path (build, validation and spectrum),
with the growth of the process's peak RSS across it
(``resource.getrusage``, so Unix only).  Then it times on their own:

- ``build_s``: the dense 2^n x 2^n matrix in the pair basis and its
  labels (``protocol1._pair_basis_mixture``);
- ``full_solve_s``: ``np.linalg.eigvalsh`` of that matrix;
- ``block_solve_s``: ``linalg._labelled_spectrum`` of it over those
  labels, with its per-block Hermiticity and coupling checks;
- ``hermiticity_s``: ``linalg._max_asymmetry`` of the whole matrix, the
  pass that a labelled density matrix no longer makes;
- ``solves``: how many blocks ``_labelled_spectrum`` hands to the
  eigensolver (``linalg._eigvalsh``).

Each n runs ``--repeats`` times, every time in a new process, and one JSON
object per n gives the median of each figure.
"""

import argparse
import json
import statistics
import subprocess
import sys

CHILD = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from qbsc import linalg, protocol1

n, theta = int(sys.argv[2]), float(sys.argv[3])


def peak_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


before = peak_mb()
wall, _ = timed(lambda: protocol1.uniform_commitment_state(n, theta))
after = peak_mb()
build_s, (mat, labels) = timed(lambda: protocol1._pair_basis_mixture(n, theta))
full_s, _ = timed(lambda: np.linalg.eigvalsh(mat))
block_s, _ = timed(lambda: linalg._labelled_spectrum(mat, labels))
hermiticity_s, _ = timed(lambda: linalg._max_asymmetry(mat))
solves, solve = [], linalg._eigvalsh
linalg._eigvalsh = lambda block: solves.append(block.shape[0]) or solve(block)
linalg._labelled_spectrum(mat, labels)
print(json.dumps({"wall_s": wall, "growth_mb": after - before, "peak_rss_mb": after,
                  "build_s": build_s, "full_solve_s": full_s, "block_solve_s": block_s,
                  "hermiticity_s": hermiticity_s, "solves": len(solves)}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--ns", default="8,10,11,12")
    parser.add_argument("--theta", type=float, default=0.3)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    for n in args.ns.split(","):
        runs = []
        for _ in range(args.repeats):
            done = subprocess.run([sys.executable, "-c", CHILD, args.src, n, str(args.theta)],
                                  capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout))
        medians = {"n": int(n), "theta": args.theta, "repeats": args.repeats}
        for key in runs[0]:
            medians[key] = round(statistics.median(run[key] for run in runs), 6)
        print(json.dumps(medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
