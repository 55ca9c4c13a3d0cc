"""Time and minor page faults of the codebook pair check at k = 16, m = 1024.

    python3 tools/probe_crosscheck.py --k 16 --m 1024 --repeats 20

Runs in a fresh Python process that imports ``qbsc`` from ``--src``.  One
operation is the ``codebook gen`` -> save -> load -> ``codebook verify``
path as the benchmark's ``certify_s`` times it: ``generate_certified_codebook``
(target ``--epsilon``), ``to_json``, ``Codebook.from_json``,
``verify_epsilon`` and the regeneration of the accepted code with
``generate_code``, each operation on its own root seed (``--seed`` plus the
repeat number).  Both pair checks of an operation, the one at generation
and the one at load, are timed by a wrapper around
``codebook._crosscheck_pairs``.  Three warm-up operations run first, so
that the figures leave out the first touch of the process's own memory.

Prints one JSON object: the median seconds of one pair check
(``crosscheck_s``) and of one whole operation (``certify_s``), the number
of pair checks per operation (``crosschecks_per_op``), and the median
growth of ``ru_minflt``, the process's minor page faults
(``resource.getrusage``, so Unix only), over one pair check
(``crosscheck_minflt``) and over one operation (``certify_minflt``).
"""

import argparse
import json
import subprocess
import sys

CHILD = r"""
import json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from qbsc import codebook

k, m, seed, repeats = (int(a) for a in sys.argv[2:6])
epsilon = float(sys.argv[6])
checks = []  # (seconds, minor faults) of each pair check
original = codebook._crosscheck_pairs


def timed_crosscheck(cb):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    original(cb)
    checks.append((time.perf_counter() - start,
                   resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))


codebook._crosscheck_pairs = timed_crosscheck


def operation(root):
    cb = codebook.generate_certified_codebook(m, epsilon, k, root)
    loaded = codebook.Codebook.from_json(cb.to_json())
    codebook.verify_epsilon(loaded)
    codebook.generate_code(k, m, codebook.derive_seed(loaded.seed, loaded.attempts - 1))


for warm in range(3):
    operation(seed + repeats + warm)
checks.clear()
seconds, faults = [], []
for repeat in range(repeats):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    operation(seed + repeat)
    seconds.append(time.perf_counter() - start)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({
    "k": k, "m": m, "epsilon": epsilon, "seed": seed, "repeats": repeats,
    "crosschecks_per_op": len(checks) / repeats,
    "crosscheck_s": round(statistics.median(s for s, _ in checks), 6),
    "crosscheck_minflt": statistics.median(f for _, f in checks),
    "certify_s": round(statistics.median(seconds), 6),
    "certify_minflt": statistics.median(faults),
}))
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src")
    parser.add_argument("--k", type=int, default=16)
    parser.add_argument("--m", type=int, default=1024)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    argv = [args.src, args.k, args.m, args.seed, args.repeats, args.epsilon]
    done = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)],
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return 1
    print(done.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
