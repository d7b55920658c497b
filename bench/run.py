"""wifiprox benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload build-density --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
spends half the time untraced and half traced, and reports the per-layer
metrics plus the tracing overhead.  ``--size small`` runs the reduced sizes
that ``selftest.py`` uses.  ``--record`` writes this run's outputs into
``reference.json`` instead of checking them.  The last line of standard
output is the result object; the line before it holds the machine facts.
See README.md for what each workload does.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"


def _import_package():
    """Make ``import wifiprox`` load this checkout's src/, never another copy."""
    if not (SRC / "wifiprox" / "__init__.py").is_file():
        sys.exit(f"error: no wifiprox package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import wifiprox

    if Path(wifiprox.__file__).resolve().parent != (SRC / "wifiprox").resolve():
        sys.exit(f"error: imported wifiprox from {wifiprox.__file__}, not {SRC}")


_import_package()

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metric -> unit, in report order
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "balanced_accuracy": "fraction",
}
#: reported too by a workload whose steps are requests (score-online)
REQUEST_METRICS = {"score_p50_ms": "ms", "score_p99_ms": "ms"}


def _commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Tally:
    """Operations and checks attempted and failed, with the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.errors: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks += 1
        if not ok:
            self.fail(f"check failed: {name}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


#: fewest timed iterations a measured run (or half of a traced run) makes,
#: so that ``wall_s`` is a median of several
MIN_ITERATIONS = 3


def measure(workload, run, state, seconds, tally, tracer=None, min_iterations=1,
            min_samples=0):
    """Repeat the workload's iteration for about ``seconds`` of timed work.

    Another iteration starts while at least half of one still fits, and
    always while there are fewer than ``min_iterations`` iterations or
    ``min_samples`` step samples.  Each iteration's outputs must equal
    the first iteration's.  Returns the iteration times and, per iteration,
    the duration of each of its steps.
    """
    times, samples, first_digest = [], [], None
    while True:
        i = len(times)
        tags = tracer.tagged(phase="timed", iteration=i) if tracer else contextlib.nullcontext()
        with tags:
            t0 = perf_counter()
            samples.append(workload.iteration(run, state))
            times.append(perf_counter() - t0)
        digest = workload.digest(run, state)
        if first_digest is None:
            first_digest = digest
        else:
            tally.check(f"iteration {i} repeats iteration 0", digest == first_digest)
        if (sum(times) + times[-1] / 2 >= seconds and len(times) >= min_iterations
                and sum(map(len, samples)) >= min_samples):
            return times, samples


def _reference(path: Path, workload: str, size: str, seed_index: int) -> dict:
    return json.loads(path.read_text())[workload][size][str(seed_index)]


# ---------------------------------------------------------------------------
# Timed run
# ---------------------------------------------------------------------------

def timed_run(workload, run, ref, seconds, tally, facts) -> dict:
    setup_s = []
    for _ in range(workload.setup_repeats):
        t0 = perf_counter()
        state = workload.setup(run)
        setup_s.append(perf_counter() - t0)
    times, samples = measure(workload, run, state, seconds, tally,
                             min_iterations=MIN_ITERATIONS,
                             min_samples=workload.min_samples(run.size))
    obs = workload.observe(run, state)
    for name, ok in workloads.compare(obs, ref):
        tally.check(name, ok)
    # every iteration runs the same steps; a step's time is the median of its
    # timings, so a host stall during one iteration drops out, and wall_s is
    # one iteration made of those medians
    per_step = [statistics.median(t) for t in zip(*samples)]
    metrics = {
        "wall_s": math.fsum(per_step),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "balanced_accuracy": statistics.fmean(obs["balanced_accuracy"].values()),
    }
    if workload.requests:
        metrics["score_p50_ms"] = 1e3 * tracing.nearest_rank(per_step, 0.50)
        metrics["score_p99_ms"] = 1e3 * tracing.nearest_rank(per_step, 0.99)
    facts["setup_s"] = setup_s
    facts["iteration_s"] = times
    facts["step_samples"] = sum(map(len, samples))
    facts["steps"] = len(per_step)
    return metrics


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

@dataclass
class Flow:
    """One traced pass of a workload: set-up plus timed iterations."""

    workload: str
    size: str
    seed_index: int
    tracer: tracing.Tracer
    observed: dict
    iterations: int

    def phase(self, name: str) -> list:
        return [s for s in self.tracer.spans if dict(s.tags).get("phase") == name]

    @functools.cached_property
    def layers(self) -> list[tuple[str, dict]]:
        """(source, layer metrics) of the timed phase, then of the set-up.

        The source is ``timed`` or ``setup``, prefixed with ``small:<workload>:``
        for a small-size pass of another workload.
        """
        prefix = f"small:{self.workload}:" if self.size == "small" else ""
        return [(prefix + p, tracing.layer_metrics(self.phase(p), 0))
                for p in ("timed", "setup")]

    def counts(self) -> dict:
        out = {}
        for name in tracing.COUNT_METRICS:
            value = next((g[name] for _, g in self.layers if g[name] is not None), None)
            if value is not None:
                out[name] = value
        return out


def traced_flow(workload, run, size, seed_index, seconds, tally, untraced_too=False):
    """Traced set-up and timed iterations; optionally untraced ones first.

    Returns the flow and the untraced and traced iteration times.
    """
    tracer = tracing.Tracer()
    run.tracer = tracer
    with tracer, tracer.tagged(phase="setup", iteration=0):
        state = workload.setup(run)
    untraced = []
    # full-size halves get as many iterations and requests as a timed run
    floors = ({"min_iterations": MIN_ITERATIONS, "min_samples": workload.min_samples(run.size)}
              if untraced_too else {})
    if untraced_too:
        run.tracer = None
        untraced, _ = measure(workload, run, state, seconds, tally, **floors)
        run.tracer = tracer
    with tracer:
        traced, _ = measure(workload, run, state, seconds, tally, tracer, **floors)
    run.tracer = None
    flow = Flow(workload.name, size, seed_index, tracer, workload.observe(run, state),
                len(traced))
    return flow, untraced, traced


def check_flow(flow: Flow, reference: Path, tally, record=False) -> None:
    """Counts repeat across iterations and match the output-derived ones and
    the reference; outputs match the reference."""
    counts = flow.counts()
    for name, value in flow.observed["counts"].items():
        tally.check(f"{flow.workload}: traced {name} equals the output-derived one",
                    counts.get(name) == value)
    repeats = tracing.count_repeats(flow.phase("timed"), range(flow.iterations))
    for it, got in repeats.items():
        tally.check(f"{flow.workload}: counts of iteration {it} repeat iteration 0",
                    got == repeats[0])
    flow.observed = dict(flow.observed, counts=counts)
    if record:
        return
    ref = _reference(reference, flow.workload, flow.size, flow.seed_index)
    for name, ok in workloads.compare(flow.observed, ref):
        tally.check(f"{flow.workload} ({flow.size}): {name}", ok)


def traced_run(workload, run, args, seed_index, tally, facts) -> dict:
    flow, untraced, traced = traced_flow(workload, run, args.size, seed_index,
                                         args.seconds / 2, tally, untraced_too=True)
    flows = [flow]
    # the other workloads at the small size, for layers this one does not reach
    for other in workloads.WORKLOADS.values():
        if other is not workload:
            small = workloads.Run(run.dir / other.name, 0, workloads.SIZES["small"])
            small.dir.mkdir()
            flows.append(traced_flow(other, small, "small", 0, 0, tally)[0])
            tally.attempted += small.attempted
    for f in flows:
        check_flow(f, args.reference, tally)

    groups = [g for f in flows for g in f.layers]
    metrics, sources = {}, {}
    for name in tracing.LAYER_METRICS:
        source, value = next(((src, g[name]) for src, g in groups if g[name] is not None),
                             (None, None))
        if value is None:
            tally.fail(f"no traced pass reached layer metric {name}")
        else:
            metrics[name], sources[name] = value, source
    facts["layer_sources"] = sources
    facts["iteration_s"] = {"untraced": untraced, "traced": traced}
    facts["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    flow.tracer.dump(out / f"{args.workload}-seed{args.seed}.jsonl")
    return metrics


def record(workload, run, args, seed_index, tally) -> None:
    """Write one traced iteration's outputs and counts into the reference file."""
    flow, _, _ = traced_flow(workload, run, args.size, seed_index, 0, tally)
    check_flow(flow, args.reference, tally, record=True)
    if tally.failed:
        raise RuntimeError("counts did not repeat; nothing recorded")
    doc = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    doc.setdefault(args.workload, {}).setdefault(args.size, {})[str(seed_index)] = flow.observed
    args.reference.write_text(_dump_reference(doc))


def _dump_reference(doc: dict) -> str:
    """One line per workload, size and seed set, so diffs stay readable."""
    lines = []
    for w in sorted(doc):
        sizes = []
        for size in sorted(doc[w]):
            entries = [f'   "{k}": {json.dumps(v, sort_keys=True, separators=(",", ":"))}'
                       for k, v in sorted(doc[w][size].items())]
            sizes.append(f'  "{size}": {{\n' + ",\n".join(entries) + "\n  }")
        lines.append(f' "{w}": {{\n' + ",\n".join(sizes) + "\n }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help=f"selects seed set seed %% {workloads.SEED_SETS}; "
                        "set 0 is acceptance criterion 8's")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--held-out", action="store_true",
                   help="use the held-out seed set, which --seed never selects")
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--reference", type=Path, default=REFERENCE)
    p.add_argument("--record", action="store_true",
                   help="write this run's outputs and counts into the reference file")
    args = p.parse_args(argv)

    seed_index = workloads.HELD_OUT if args.held_out else args.seed % workloads.SEED_SETS
    workload = workloads.WORKLOADS[args.workload]
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seed_set": seed_index,
        "sites": workloads.SITE_SEEDS,
        "pair_seeds": {d: [workloads.pair_seed(s, seed_index) for s in sites]
                       for d, sites in workloads.SITE_SEEDS.items()},
    }
    tally = Tally()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(workdir, seed_index, workloads.SIZES[args.size])
    metrics: dict = {}
    try:
        if args.record:
            record(workload, run, args, seed_index, tally)
        elif args.trace:
            metrics = traced_run(workload, run, args, seed_index, tally, facts)
        else:
            ref = _reference(args.reference, args.workload, args.size, seed_index)
            metrics = timed_run(workload, run, ref, args.seconds, tally, facts)
    except Exception as e:  # a failing step ends the run; it is reported, not raised
        traceback.print_exc()
        tally.fail(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally.attempted += run.attempted
    facts["checks"] = tally.checks
    for message in tally.errors:
        print(message, file=sys.stderr)
    if args.record:
        print(f"recorded {args.workload} {args.size} seed set {seed_index}: "
              f"{'ok' if not tally.failed else 'FAILED'}", file=sys.stderr)
        return 1 if tally.failed else 0

    if args.trace:
        units = {n: u for n, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        units = dict(END_TO_END, **(REQUEST_METRICS if workload.requests else {}))
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()
                    if n in metrics},
    }
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] and len(result["metrics"]) == len(units) else 1


if __name__ == "__main__":
    sys.exit(main())
