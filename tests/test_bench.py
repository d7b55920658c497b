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


def _run_small(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--size", "small",
         "--seconds", "1", "--trace", str(trace)],
        cwd=RUN.parents[1], capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr[-2000:]


@pytest.mark.parametrize("workload", ["build-density", "train-5k", "score-online"])
def test_small_run_is_correct(workload):
    _run_small(workload, 0)


def test_small_traced_run_is_correct():
    # a traced run also traces the other workloads' small passes, checks the
    # traced counts against those derived from the outputs and fails if a
    # layer metric goes unreached
    _run_small("build-density", 1)
