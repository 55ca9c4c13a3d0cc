"""Time and memory of the cheat-set row of a bound sweep, the sampled audit
of the codebook cap 1 + (r - 1) * epsilon.

    python3 tools/probe_audit.py --cases audit,grid,large_r --repeats 20

Each case is one codebook and a number of cheat-set samples:

- ``audit``: ``generate_certified_codebook(1024, 0.25, 10, 3)``, the
  benchmark's certification audit (k = 10, m = 1024, epsilon 0.088, so r
  up to 12), with 20 samples;
- ``grid``: ``generate_certified_codebook(32, 0.5, 6, 1)``, the codebook of
  the README's ``qbsc bounds`` line (k = 6, m = 32, r up to 3), with the
  default 200 samples;
- ``large_r``: the epsilon = 0 first-order Reed-Muller code at k = 10,
  m = 1024, whose columns are all 10-bit integers, so r runs up to 1024,
  with 12 samples.

Every case runs in a fresh Python process that imports ``qbsc`` from
``--src``, builds its codebook and takes one untimed row.  It then times
``harness._cheat_set_row(cb, samples, seed)`` ``--repeats`` times, on the
sweep seeds ``--seed`` plus the repeat number, and traces one more row
with ``tracemalloc``.  One JSON object per case gives ``case``, ``k``,
``m``, ``epsilon``, ``samples``, ``seed`` and ``repeats``; ``row_s``, the
median wall seconds of one row; ``row_traced_kib``, the peak of the
traced allocations during the traced row; ``peak_rss_mb``, the process's
peak RSS at the end (``resource.getrusage``, so Unix only); and ``gap``
and ``violations`` of the row on seed ``--seed``, so two source trees can
be seen to agree.
"""

import argparse
import json
import subprocess
import sys

CASES = {"audit": 20, "grid": 200, "large_r": 12}  # case -> samples

CHILD = r"""
import json, resource, statistics, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import numpy as np
from qbsc import codebook, harness

case = sys.argv[2]
samples, seed, repeats = (int(a) for a in sys.argv[3:6])
if case == "audit":
    cb = codebook.generate_certified_codebook(1024, 0.25, 10, 3)
elif case == "grid":
    cb = codebook.generate_certified_codebook(32, 0.5, 6, 1)
else:
    columns = np.arange(1024) >> np.arange(9, -1, -1)[:, None] & 1
    cb = codebook.fingerprint_states(codebook.BinaryCode(columns.astype(np.uint8)), 0)
row, _, _ = harness._cheat_set_row(cb, samples, seed)
seconds = []
for repeat in range(repeats):
    start = time.perf_counter()
    harness._cheat_set_row(cb, samples, seed + repeat)
    seconds.append(time.perf_counter() - start)
tracemalloc.start()
harness._cheat_set_row(cb, samples, seed)
traced = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "case": case, "k": cb.code.k, "m": cb.code.m, "epsilon": cb.epsilon_certified,
    "samples": samples, "seed": seed, "repeats": repeats,
    "row_s": round(statistics.median(seconds), 6),
    "row_traced_kib": round(traced / 1024, 1),
    "peak_rss_mb": round(peak / 2**20 if sys.platform == "darwin" else peak / 2**10, 2),
    "gap": row["gap"], "violations": row["violations"],
}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--cases", default=",".join(CASES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    for case in args.cases.split(","):
        if case not in CASES:
            parser.error(f"unknown case {case!r}; known: {', '.join(CASES)}")
        argv = [args.src, case, CASES[case], args.seed, args.repeats]
        done = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)],
                              capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        print(done.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
