"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/set1.json
    python3 perfbench/spread.py --seeds 11-20 --against perfbench/results/set1.json

Runs ``run.py`` once per workload and seed, one run at a time, for the
``run_seconds`` that BENCHMARK.json sets, and prints for each metric the
median, the quartiles and the spread (third minus first quartile, as a share
of the median), next to the bound in BENCHMARK.json.  With ``--against`` it
also prints how far each median has moved, in the worse direction, from the
median of an earlier set saved with ``--out``: the comparison a regression
check makes between two commits, or between two sets of one commit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = ",".join(w["name"] for w in benchmark["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=workloads)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        results[workload] = runs
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{workload}: {len(runs)} runs, failed shares {sorted(shares)}")
        for name in runs[0]["metrics"]:
            median = statistics.median(run["metrics"][name]["value"] for run in runs)
            line = f"  {name:16s} median {median:<12.6g}"
            if len(runs) > 1:
                q1, _, q3 = statistics.quantiles([run["metrics"][name]["value"] for run in runs], n=4)
                line += f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {(q3 - q1) / median:.4f}"
            if workload in earlier:
                before = statistics.median(run["metrics"][name]["value"] for run in earlier[workload])
                worse = (median - before) / before * (1 if metrics[name]["better"] == "lower" else -1)
                line += f" worse by {worse:+.4f}"
            print(f"{line} bound {metrics[name]['bound']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
