"""The probe scripts behind the committed ``BENCH_*.json`` figures run at toy
size and print every key their docstrings document.

They reach private names of the library, so a rename there fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FIGURES = ("q_operator", "eigvalsh", "strategy", "gram")


@pytest.mark.parametrize(
    "script, args, keys",
    [
        (
            "probe_mixture.py",
            ("--ns", "4", "--repeats", "1"),
            {"n", "theta", "repeats", "wall_s", "growth_mb", "peak_rss_mb",
             "build_s", "full_solve_s", "block_solve_s", "hermiticity_s", "solves"},
        ),
        (
            "probe_enumeration.py",
            ("--ks", "4", "--m", "16"),
            {"k", "m", "seed", "epsilon", "s", "peak_before_mb", "peak_rss_mb",
             "growth_mb"},
        ),
        (
            "probe_crosscheck.py",
            ("--k", "4", "--m", "16", "--epsilon", "1.0", "--repeats", "2"),
            {"k", "m", "epsilon", "seed", "repeats", "crosschecks_per_op",
             "crosscheck_s", "crosscheck_minflt", "certify_s", "certify_minflt"},
        ),
        (
            "probe_audit.py",
            ("--cases", "grid", "--repeats", "1"),
            {"case", "k", "m", "epsilon", "samples", "seed", "repeats", "row_s",
             "row_traced_kib", "peak_rss_mb", "gap", "violations"},
        ),
        (
            "probe_reveal.py",
            ("--ms", "16", "--k", "3", "--r", "2", "--repeats", "1"),
            {"m", "k", "r", "seed", "repeats"}
            | {f"{figure}_{unit}" for figure in FIGURES
               for unit in ("s", "growth_mb", "peak_rss_mb")},
        ),
    ],
    ids=["mixture", "enumeration", "crosscheck", "audit", "reveal"],
)
def test_probe_prints_documented_keys(script, args, keys):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), "--src", str(ROOT / "src"), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == keys
