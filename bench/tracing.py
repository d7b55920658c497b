"""Spans around the package's public functions, recorded from outside.

The traced run replaces selected module attributes of ``wifiprox`` with
timing wrappers for the duration of a ``with Tracer(...)`` block.  This only
sees calls that go through a module global or a class attribute, which is
how the CLI and the package call each other (``cli`` calls
``features.extract_many``, ``extract_many`` calls the global ``extract``,
``train_ensemble`` calls the global ``train_tree``).  Spans stay in memory
and are written out once, after the run.

A span records its name, start, end, parent span, the benchmark operation
it belongs to (one CLI step or one scoring request) and the tags that were
current when it opened: phase (``setup`` or ``timed``), iteration and
density.  Self time is a span's duration minus the durations of its direct
children; the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from wifiprox import cli, features, ingest, model, pairing, selection_metrics, synth

DENSITIES = ("low", "medium", "high")

#: from this many shared APs on (more than 64), the Kendall correlation of
#: the shared RSSIs takes scipy's path instead of direct pair enumeration
KENDALL_LONG_MIN = 65


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tags", "child_s", "counts")

    def __init__(self, name, parent, op, tags):
        self.name = name
        self.parent = parent
        self.op = op
        self.tags = tags
        self.child_s = 0.0
        self.counts = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _combinations(args, kwargs, result):
    per_floor = Counter(fp.floor_key for fp in args[0] if fp.readings)
    return {"combinations": sum(n * (n - 1) // 2 for n in per_floor.values()),
            "kept": len(result)}


def _shared(args, kwargs, result):
    pair = args[0]
    return {"shared": len(pair.a.ap_set & pair.b.ap_set)}


def _file_bytes(path_arg):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return count


#: (owner, attribute, span name, count function or None)
TARGETS = (
    (synth, "generate_site", "synth.generate_site", None),
    (ingest, "load_canonical", "ingest.load_canonical", None),
    (ingest, "save_canonical", "ingest.save_canonical", None),
    (pairing, "enumerate_pairs", "pairing.enumerate_pairs", _combinations),
    (pairing, "load_pairs", "pairing.load_pairs", None),
    (features, "extract_many", "features.extract_many",
     lambda a, k, r: {"pairs": len(r)}),
    (features, "extract", "features.extract", _shared),
    (features, "write_feature_table", "features.write_feature_table", _file_bytes(1)),
    (features, "read_feature_table", "features.read_feature_table", None),
    (model, "train_ensemble", "model.train_ensemble", None),
    (model, "train_tree", "model.train_tree", lambda a, k, r: {"nodes": r.n_nodes}),
    (model, "save_model", "model.save_model", _file_bytes(1)),
    (model, "load_model", "model.load_model", None),
    (model.BaggedEnsemble, "predict_scores", "model.predict_scores",
     lambda a, k, r: {"rows": len(r)}),
    (model.BaggedEnsemble, "predict_score", "model.predict_score", None),
    (selection_metrics, "mrmr_select", "selection_metrics.mrmr_select", None),
    (selection_metrics, "evaluate", "selection_metrics.evaluate", None),
    (cli, "main", "cli.main", None),
    (cli, "_sha256_file", "cli.sha256_file", _file_bytes(0)),
)


class Tracer:
    """Records spans while active; restores every wrapped attribute on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._tags: tuple = ()
        self._op = None
        self._op_ids = itertools.count()
        self._originals = []

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        return False

    @contextmanager
    def tagged(self, **tags):
        """Tag every span opened inside the block (phase, iteration, density)."""
        saved = self._tags
        self._tags = tuple(sorted({**dict(saved), **tags}.items()))
        try:
            yield
        finally:
            self._tags = saved

    @contextmanager
    def op(self, name: str):
        """One benchmark operation: a CLI step or a scoring request."""
        span = Span(f"bench.{name}", None, next(self._op_ids), self._tags)
        saved_op, self._op = self._op, span.op
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self._op = saved_op
            self.spans.append(span)

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(name, parent, tracer._op, tracer._tags)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "i": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else index.get(id(s.parent)),
                    "op": s.op,
                    "tags": dict(s.tags),
                }
                if s.counts:
                    rec["counts"] = s.counts
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------

#: per-layer metric name -> (unit, better); the order is the report order
LAYER_METRICS = {
    **{f"features.extract_us_per_pair.{d}": ("us", "lower") for d in DENSITIES},
    **{f"features.shared_ap_pairs.{d}": ("count", "lower") for d in DENSITIES},
    "features.kendall_long_pairs.high": ("count", "lower"),
    "features.extract_p50_us": ("us", "lower"),
    "features.extract_p99_us": ("us", "lower"),
    "features.csv_write_ms": ("ms", "lower"),
    "features.csv_read_ms": ("ms", "lower"),
    "features.csv_bytes": ("bytes", "lower"),
    "model.train_ms_per_tree": ("ms", "lower"),
    "model.train_ensemble_ms": ("ms", "lower"),
    "model.nodes_per_tree_mean": ("count", "lower"),
    "model.predict_single_p50_us": ("us", "lower"),
    "model.predict_single_p99_us": ("us", "lower"),
    "model.predict_batch_us_per_row": ("us", "lower"),
    "model.save_ms": ("ms", "lower"),
    "model.load_ms": ("ms", "lower"),
    "model.json_bytes": ("bytes", "lower"),
    "pairing.enumerate_ms": ("ms", "lower"),
    "pairing.combinations": ("count", "lower"),
    "pairing.pairs_kept": ("count", "higher"),
    "pairing.kept_ratio": ("fraction", "higher"),
    "pairing.load_pairs_ms": ("ms", "lower"),
    "ingest.load_canonical_ms": ("ms", "lower"),
    "ingest.save_canonical_ms": ("ms", "lower"),
    "selection_metrics.mrmr_ms": ("ms", "lower"),
    "selection_metrics.evaluate_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.hashed_bytes": ("bytes", "lower"),
    "synth.generate_ms": ("ms", "lower"),
}

#: metrics that are deterministic counts: they must repeat exactly
COUNT_METRICS = tuple(
    n for n, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes", "fraction")
)


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: for q=0.99 and n=1000 samples, ten lie above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean_ms(spans):
    return 1e3 * sum(s.dur for s in spans) / len(spans) if spans else None


def layer_metrics(spans, first_iteration) -> dict:
    """Every layer metric computable from ``spans``; None where a layer is absent.

    Times average over all spans given.  Counts sum over the spans of
    ``first_iteration`` only, so they do not depend on how many iterations
    the time budget allowed.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, density=None, first=False):
        out = by_name.get(name, [])
        if density is not None:
            out = [s for s in out if dict(s.tags).get("density") == density]
        if first:
            out = [s for s in out if dict(s.tags).get("iteration") == first_iteration]
        return out

    def total(spans_, key):
        return sum(s.counts[key] for s in spans_) if spans_ else None

    m: dict = {}
    for d in DENSITIES:
        many = named("features.extract_many", d)
        pairs = total(many, "pairs")
        m[f"features.extract_us_per_pair.{d}"] = (
            1e6 * sum(s.dur for s in many) / pairs if pairs else None
        )
        first = named("features.extract", d, first=True)
        m[f"features.shared_ap_pairs.{d}"] = (
            sum(s.counts["shared"] * (s.counts["shared"] - 1) // 2 for s in first)
            if first else None
        )
        if d == "high":
            m["features.kendall_long_pairs.high"] = (
                sum(s.counts["shared"] >= KENDALL_LONG_MIN for s in first) if first else None
            )
    extract_us = [1e6 * s.dur for s in named("features.extract")]
    m["features.extract_p50_us"] = nearest_rank(extract_us, 0.50) if extract_us else None
    m["features.extract_p99_us"] = nearest_rank(extract_us, 0.99) if extract_us else None
    m["features.csv_write_ms"] = _mean_ms(named("features.write_feature_table"))
    m["features.csv_read_ms"] = _mean_ms(named("features.read_feature_table"))
    m["features.csv_bytes"] = total(named("features.write_feature_table", first=True), "bytes")

    m["model.train_ms_per_tree"] = _mean_ms(named("model.train_tree"))
    m["model.train_ensemble_ms"] = _mean_ms(named("model.train_ensemble"))
    trees = named("model.train_tree", first=True)
    m["model.nodes_per_tree_mean"] = total(trees, "nodes") / len(trees) if trees else None
    single_us = [1e6 * s.dur for s in named("model.predict_score")]
    m["model.predict_single_p50_us"] = nearest_rank(single_us, 0.50) if single_us else None
    m["model.predict_single_p99_us"] = nearest_rank(single_us, 0.99) if single_us else None
    batch = [s for s in named("model.predict_scores")
             if s.parent is None or s.parent.name != "model.predict_score"]
    rows = total(batch, "rows")
    m["model.predict_batch_us_per_row"] = (
        1e6 * sum(s.dur for s in batch) / rows if rows else None
    )
    m["model.save_ms"] = _mean_ms(named("model.save_model"))
    m["model.load_ms"] = _mean_ms(named("model.load_model"))
    m["model.json_bytes"] = total(named("model.save_model", first=True), "bytes")

    m["pairing.enumerate_ms"] = _mean_ms(named("pairing.enumerate_pairs"))
    first = named("pairing.enumerate_pairs", first=True)
    combos = total(first, "combinations")
    kept = total(first, "kept")
    m["pairing.combinations"] = combos
    m["pairing.pairs_kept"] = kept
    m["pairing.kept_ratio"] = kept / combos if combos else None
    m["pairing.load_pairs_ms"] = _mean_ms(named("pairing.load_pairs"))

    m["ingest.load_canonical_ms"] = _mean_ms(named("ingest.load_canonical"))
    m["ingest.save_canonical_ms"] = _mean_ms(named("ingest.save_canonical"))
    m["selection_metrics.mrmr_ms"] = _mean_ms(named("selection_metrics.mrmr_select"))
    m["selection_metrics.evaluate_ms"] = _mean_ms(named("selection_metrics.evaluate"))

    mains = named("cli.main")
    m["cli.self_ms"] = 1e3 * sum(s.self_s for s in mains) / len(mains) if mains else None
    m["cli.hashed_bytes"] = total(named("cli.sha256_file", first=True), "bytes")
    m["synth.generate_ms"] = _mean_ms(named("synth.generate_site"))
    return m


def count_repeats(spans, iterations) -> dict:
    """Count metrics of each listed iteration, for the determinism check."""
    per = {}
    for it in iterations:
        got = layer_metrics(spans, it)
        per[it] = {n: got[n] for n in COUNT_METRICS if got[n] is not None}
    return per
