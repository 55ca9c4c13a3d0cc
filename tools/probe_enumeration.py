"""Time and peak RSS of one weight enumeration plus its certificate at large k.

    python3 tools/probe_enumeration.py --ks 18,20,22 --m 1024

Each k runs in a fresh Python process that imports ``qbsc`` from ``--src``,
draws a full-rank k x m generator from ``make_rng(seed)``, builds its
``BinaryCode`` and then times one certificate, ``BinaryCode._epsilon``: the
enumeration of all 2^k - 1 nonzero codeword weights and the maximum overlap
read from them.  The certificate refuses k above
``codebook.MAX_EXHAUSTIVE_K``, so the child process lifts that limit to k
first.
Prints one JSON object per k with the seconds and the peak RSS of the
process before and after the certificate (``resource.getrusage``, so Unix
only).
"""

import argparse
import json
import subprocess
import sys

CHILD = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from qbsc import codebook

k, m, seed = (int(a) for a in sys.argv[2:5])
gen = codebook.make_rng(seed).integers(0, 2, size=(k, m), dtype=np.uint8)
code = codebook.BinaryCode(generator=gen)
codebook.MAX_EXHAUSTIVE_K = max(codebook.MAX_EXHAUSTIVE_K, k)


def peak_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


before = peak_mb()
start = time.perf_counter()
epsilon = code._epsilon
seconds = time.perf_counter() - start
after = peak_mb()
print(json.dumps({"k": k, "m": m, "seed": seed, "epsilon": epsilon, "s": round(seconds, 6),
                  "peak_before_mb": round(before, 2), "peak_rss_mb": round(after, 2),
                  "growth_mb": round(after - before, 2)}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--ks", default="18,20,22")
    parser.add_argument("--m", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for k in args.ks.split(","):
        done = subprocess.run([sys.executable, "-c", CHILD, args.src, k, str(args.m), str(args.seed)],
                              capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        print(done.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
