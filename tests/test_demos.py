"""The demos run end to end and write what they say they write."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bound_report_demo_keeps_dots_in_the_output_name(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "bound_report_demo.py"), "run.v2"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2.csv", "run.v2.json"]
    assert "wrote run.v2.json and run.v2.csv" in done.stdout
