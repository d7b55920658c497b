"""The benchmark at its small size: it runs against this checkout and its outputs match.

``bench/run.py`` wraps and calls package functions by name and checks every
output against ``bench/reference.json``; renaming what it uses or moving a
single output bit fails it here rather than only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["build-density", "train-5k", "score-online"])
def test_small_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--size", "small",
         "--seconds", "1", "--trace", "0"],
        cwd=RUN.parents[1], capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr[-2000:]
