"""Reduced-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at the small size (20-pair tables, 12 requests per
cycle, 5 trees), untraced and traced: the ones BENCHMARK.json names and the
ones kept for runs by hand.  Checks that

* every metric named in BENCHMARK.json appears with its unit, and BENCHMARK.json
  gives it a direction; score-online also reports its request latencies;
* the output checks ran and passed;
* a deliberately wrong reference makes the run fail;
* without the package sources next to it, the benchmark exits non-zero and
  prints no result.

Exits 0 when all of that holds.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
SCRATCH = ROOT / ".bench_work" / "selftest"
TIMEOUT_S = 300
#: workloads not in BENCHMARK.json, with the end-to-end metrics they add
BY_HAND = {"score-online": {"score_p50_ms", "score_p99_ms"}}


def _run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return None, None
    return json.loads(lines[-2])["facts"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        names = [w["name"] for w in spec["workloads"]] + sorted(BY_HAND)
        for workload in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                label = f"{workload} --trace {trace}"
                proc = _run(["--workload", workload, "--size", "small",
                             "--seconds", "1", "--trace", str(trace)])
                facts, result = _result(proc)
                if proc.returncode != 0 or result is None:
                    problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    continue
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{label}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label}: outputs did not check out\n{proc.stderr[-2000:]}")
                if facts["checks"] < 1:
                    problems.append(f"{label}: no output check ran")
                want = {m["name"]: m for m in spec[key]}
                got = result["metrics"]
                extra = BY_HAND.get(workload, set()) if trace == 0 else set()
                if set(got) != set(want) | extra:
                    problems.append(f"{label}: metrics differ: {sorted(set(got) ^ set(want))}")
                for name, m in want.items():
                    if name in got and got[name]["unit"] != m["unit"]:
                        problems.append(f"{label}: {name} has unit {got[name]['unit']}")
                    if m.get("better") not in ("lower", "higher"):
                        problems.append(f"{label}: {name} has no direction")
                print(f"ok  {label}: {len(got)} metrics, {facts['checks']} checks")

        wrong = json.loads((BENCH / "reference.json").read_text())
        entry = wrong["build-density"]["small"]["0"]
        entry["balanced_accuracy"]["low"] += 0.01
        entry["files"]["low-train.pairs.jsonl"] = "0" * 64
        wrong_path = SCRATCH / "wrong-reference.json"
        wrong_path.write_text(json.dumps(wrong))
        proc = _run(["--workload", "build-density", "--size", "small", "--seconds", "1",
                     "--reference", str(wrong_path)])
        _, result = _result(proc)
        if proc.returncode == 0 or result is None or result["correct"] or result["failed"] != 2:
            problems.append(f"wrong reference not caught: exit {proc.returncode}, {result}")
        else:
            print("ok  a wrong reference fails the run with 2 failed checks")

        bare = SCRATCH / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "build-density",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("ok  without the package sources the run exits non-zero, printing nothing")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
