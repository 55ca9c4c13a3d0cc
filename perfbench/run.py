"""Run one workload of the qbsc benchmark and print its result.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It imports ``qbsc`` from ``src/`` next
to this directory, caps BLAS and OpenMP threads at the number of usable
cores, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  It exits 1 when an
output check fails and 2 when the library cannot be imported.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """At most one BLAS thread per usable core; set before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for name in THREAD_VARIABLES:
        value = os.environ.get(name, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[name] = str(cores)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "sessions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    cap_threads()
    sys.path.insert(0, str(SRC))
    try:
        import qbsc
    except ImportError as exc:
        print(f"perfbench: cannot import qbsc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(qbsc.__file__).resolve().parents:
        print(f"perfbench: qbsc was imported from {qbsc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import checks
    import stages

    import_s = time.perf_counter() - STARTED
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        f"perfbench: workload={args.workload} seed={args.seed} python={sys.version.split()[0]} "
        f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')} "
        f"threads={os.environ['OPENBLAS_NUM_THREADS']} cores={len(os.sched_getaffinity(0))}",
        file=sys.stderr,
    )
    try:
        result, measured = stages.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s
        )
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    if args.trace:
        print(f"perfbench: end-to-end metrics of this traced run: {json.dumps(measured)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
