"""The workloads, their inputs, and what each one checks.

Every workload has a set-up, an iteration (the timed unit) and two ways of
looking at its outputs: ``digest`` (cheap, exact, taken after every
iteration to catch nondeterminism) and ``observe`` (everything the
reference file holds, taken once per run).  An iteration is a fixed
sequence of steps (CLI calls, or requests) and returns each step's
duration in seconds, so that a run can take every step's median.

* ``build-density`` -- the specialized-model pipeline of acceptance
  criterion 8, scaled down and run in-process through ``cli.main``.
* ``train-5k`` -- ``cli.main(["train", ...])`` on a 5000-row feature table.
* ``score-online`` -- one client scoring raw fingerprint pairs one at a time.
  Not in BENCHMARK.json: on a shared host its times drift past the bound
  between runs (see README.md), so it is for runs by hand.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from wifiprox import cli, features, model, pairing, selection_metrics, synth
from wifiprox.core import ProximityClass

from tracing import DENSITIES

#: acceptance criterion 8's DENSITY_SEEDS: (train site, eval site) per density
SITE_SEEDS = {"low": (1101, 1201), "medium": (2101, 2201), "high": (3101, 3201)}
#: ``--seed n`` selects seed set ``n % SEED_SETS``
SEED_SETS = 4
#: named but never selected by ``--seed``: for checking a claim on unseen inputs
HELD_OUT = SEED_SETS
TRAIN_SEED = 42
#: relative tolerance on the per-group feature sums (see ``feature_sums``)
FEATURE_RTOL = 1e-9


def pair_seed(site_seed: int, seed_index: int) -> int:
    """Seed for sampling pairs from a site; set 0 gives criterion 8's site seed + 7.

    Seed sets share the sites and differ only in which pairs they sample, so
    that the work per run varies little between seeds.
    """
    return site_seed + 7 + 1000 * seed_index


@dataclass(frozen=True)
class Size:
    clusters: int  # survey clusters per synthetic site (criterion 8 uses 70)
    density_clusters: int  # build-density's sites: same area and APs, fewer clusters
    trees: Optional[int]  # trees per model; None means the CLI default (300)
    density_train: int  # build-density: Close pairs (= Far pairs) to train on
    density_eval: int  # build-density: Close pairs (= Far pairs) to evaluate on
    select_top_k: int
    score_train: int  # score-online: Close (= Far) training pairs per density
    score_requests: int  # score-online: requests per density in one cycle
    t5k_train: int  # train-5k: Close (= Far) training rows
    t5k_eval: int
    t5k_trees: int
    workers: int  # extraction workers, set-up only
    score_min_samples: int  # score-online: fewest latency samples per measured half


SIZES = {
    "full": Size(clusters=70, density_clusters=30, trees=None, density_train=25,
                 density_eval=25, select_top_k=50, score_train=80, score_requests=112,
                 t5k_train=2500, t5k_eval=250, t5k_trees=20, workers=2,
                 score_min_samples=1000),
    "small": Size(clusters=20, density_clusters=20, trees=5, density_train=10,
                  density_eval=5, select_top_k=10, score_train=10, score_requests=4,
                  t5k_train=20, t5k_eval=10, t5k_trees=5, workers=1,
                  score_min_samples=0),
}


class StepFailed(Exception):
    """A CLI step exited with a non-zero code."""


class Run:
    """Per-run state: work directory, inputs, size, tracer and operation tally."""

    def __init__(self, workdir: Path, seed_index: int, size: Size):
        self.dir = workdir
        self.seed_index = seed_index
        self.size = size
        self.tracer = None
        self.attempted = 0

    @contextlib.contextmanager
    def op(self, name: str, density: Optional[str] = None):
        self.attempted += 1
        if self.tracer is None:
            yield
        else:
            with self.tracer.tagged(density=density), self.tracer.op(name):
                yield

    def cli(self, *argv, density: Optional[str] = None) -> float:
        """Run one CLI step in-process; returns its duration in seconds."""
        args = [str(a) for a in argv]
        t0 = perf_counter()
        with self.op(f"cli.{args[0]}", density):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(args)
        elapsed = perf_counter() - t0
        if rc != 0:
            raise StepFailed(f"wifiprox {' '.join(args)} exited with {rc}")
        return elapsed

    def path(self, name: str) -> Path:
        return self.dir / name

    def pair_seed(self, site_seed: int) -> int:
        return pair_seed(site_seed, self.seed_index)


# ---------------------------------------------------------------------------
# Output digests shared by the workloads
# ---------------------------------------------------------------------------

def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _groups() -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for j, name in enumerate(features.FEATURE_NAMES):
        parts = name.split(".")
        out.setdefault(f"{parts[0]}.{parts[-1]}", []).append(j)
    return out


def feature_sums(matrices) -> dict[str, list[float]]:
    """Per (family, variant) group: [sum of its columns, sum of (k+1) * column k].

    The second entry catches values moved between columns of one group.
    Column sums use ``math.fsum``, so they do not depend on summation order.
    """
    m = np.vstack(matrices)
    colsum = [math.fsum(m[:, j]) for j in range(m.shape[1])]
    return {
        g: [float(f"{math.fsum(colsum[j] for j in cols):.12g}"),
            float(f"{math.fsum((k + 1) * colsum[j] for k, j in enumerate(cols)):.12g}")]
        for g, cols in _groups().items()
    }


def read_csv(path: Path) -> tuple[np.ndarray, str]:
    """Feature matrix and C/F label string of a feature CSV, parsed independently
    of the package."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0][3:]) != features.FEATURE_NAMES:
        raise ValueError(f"{path.name}: unexpected feature columns")
    matrix = np.array([[float(c) for c in r[3:]] for r in rows[1:]], dtype=np.float64)
    return matrix, "".join(r[2][0] for r in rows[1:])


def decisions(ens, matrix: np.ndarray) -> str:
    """Close/Far decision per row at the 0.5 threshold, as a C/F string."""
    return "".join("C" if c else "F" for c in ens.predict_labels(matrix))


def trees_nodes(doc_trees) -> tuple[int, int]:
    return sum(len(t["feature"]) for t in doc_trees), len(doc_trees)


def balanced_accuracy(decided: str, labels: str) -> float:
    tp = sum(d == "C" and t == "C" for d, t in zip(decided, labels))
    tn = sum(d == "F" and t == "F" for d, t in zip(decided, labels))
    return selection_metrics.balanced_accuracy(tp / labels.count("C"), tn / labels.count("F"))


def sample_pairs(fps, n_each: int, rng: random.Random):
    """``n_each`` Close and ``n_each`` Far raw pairs drawn uniformly, in seeded order.

    Labels follow the default pairing gates (Close <= 2.25 m, Far 3.25-20 m).
    """
    gates = pairing.PairingConfig()
    got = {ProximityClass.CLOSE: [], ProximityClass.FAR: []}
    seen = set()
    for _ in range(1000 * n_each + 100000):
        if all(len(v) == n_each for v in got.values()):
            out = got[ProximityClass.CLOSE] + got[ProximityClass.FAR]
            rng.shuffle(out)
            return out
        i, j = sorted(rng.sample(range(len(fps)), 2))
        if (i, j) in seen:
            continue
        seen.add((i, j))
        dist = pairing.pair_distance(fps[i], fps[j])
        label = gates.classify(dist)
        if label is not None and len(got[label]) < n_each:
            got[label].append((fps[i], fps[j], dist, label))
    raise ValueError(f"site has too few Close or Far pairs for {n_each} of each")


class Workload:
    name = ""
    #: set-ups per untraced run; setup_s is their median
    setup_repeats: int
    #: whether an iteration's steps are requests, whose latencies give ``score_*``
    requests = False

    def min_samples(self, size: Size) -> int:
        """Fewest request latency samples a measured run collects."""
        return 0


def _pairs(run: Run, stem: str, site_seed: int, n: int, density: str) -> float:
    return run.cli("pairs", "--in", run.path(f"{stem}.jsonl"),
                   "--out", run.path(f"{stem}.pairs.jsonl"), "--n-close", n, "--n-far", n,
                   "--seed", run.pair_seed(site_seed), density=density)


def _featurize(run: Run, stem: str, density: str, *flags) -> float:
    return run.cli("featurize", "--pairs", run.path(f"{stem}.pairs.jsonl"),
                   "--fingerprints", run.path(f"{stem}.jsonl"),
                   "--out", run.path(f"{stem}.csv"), *flags, density=density)


# ---------------------------------------------------------------------------
# build-density
# ---------------------------------------------------------------------------

class BuildDensity(Workload):
    """Criterion 8's specialized pipeline per density, plus one mRMR ranking."""

    name = "build-density"
    #: a set-up only synthesizes six small sites (about a quarter of a second)
    setup_repeats = 10

    def setup(self, run: Run):
        for d in DENSITIES:
            for role, seed in zip(("train", "eval"), SITE_SEEDS[d]):
                run.cli("synth", "--density", d, "--site-id", f"{d}-{role}",
                        "--seed", seed, "--clusters", run.size.density_clusters,
                        "--out", run.path(f"{d}-{role}.jsonl"), density=d)
        return {}

    def iteration(self, run: Run, state) -> list[float]:
        """One pipeline pass: the duration of each of its 19 CLI steps."""
        size = run.size
        trees = [] if size.trees is None else ["--trees", size.trees]
        steps = []
        for d in DENSITIES:
            train_site, eval_site = SITE_SEEDS[d]
            steps.append(_pairs(run, f"{d}-train", train_site, size.density_train, d))
            steps.append(_featurize(run, f"{d}-train", d))
            steps.append(run.cli("train", "--features", run.path(f"{d}-train.csv"),
                                 "--model-out", run.path(f"{d}.model.json"),
                                 "--seed", TRAIN_SEED, *trees, density=d))
            steps.append(_pairs(run, f"{d}-eval", eval_site, size.density_eval, d))
            steps.append(_featurize(run, f"{d}-eval", d))
            steps.append(run.cli("evaluate", "--model", run.path(f"{d}.model.json"),
                                 "--features", run.path(f"{d}-eval.csv"),
                                 "--report-out", run.path(f"{d}.report.json"), density=d))
        steps.append(run.cli("select", "--features", run.path("medium-train.csv"),
                             "--top-k", size.select_top_k, "--out", run.path("ranking.txt"),
                             density="medium"))
        return steps

    def _files(self, run: Run):
        sites = [f"{d}-{r}.jsonl" for d in DENSITIES for r in ("train", "eval")]
        pairs = [f"{d}-{r}.pairs.jsonl" for d in DENSITIES for r in ("train", "eval")]
        tables = [f"{d}-{r}.csv" for d in DENSITIES for r in ("train", "eval")]
        models = [f"{d}.model.json" for d in DENSITIES]
        return sites + pairs, tables, models

    def digest(self, run: Run, state) -> dict:
        exact, tables, models = self._files(run)
        out = {n: sha256_file(run.path(n)) for n in exact + tables + models + ["ranking.txt"]}
        for d in DENSITIES:
            out[f"ba.{d}"] = json.loads(run.path(f"{d}.report.json").read_text())[
                "balanced_accuracy"]
        return out

    def observe(self, run: Run, state) -> dict:
        exact, tables, models = self._files(run)
        obs = _empty_observation()
        obs["files"] = {n: sha256_file(run.path(n)) for n in exact}
        obs["tables"] = {n: sha256_file(run.path(n)) for n in tables}
        obs["models"] = {n: sha256_file(run.path(n)) for n in models}
        obs["derived"] = {"ranking.txt": sha256_file(run.path("ranking.txt"))}
        nodes = n_trees = 0
        for d in DENSITIES:
            train_x, _ = read_csv(run.path(f"{d}-train.csv"))
            eval_x, labels = read_csv(run.path(f"{d}-eval.csv"))
            obs["features"][d] = feature_sums([train_x, eval_x])
            decided = decisions(model.load_model(run.path(f"{d}.model.json")), eval_x)
            obs["decisions"][d] = sha256_text(decided)
            obs["balanced_accuracy"][d] = balanced_accuracy(decided, labels)
            doc = json.loads(run.path(f"{d}.model.json").read_text())
            n, t = trees_nodes(doc["trees"])
            nodes, n_trees = nodes + n, n_trees + t
        obs["counts"] = {
            "features.csv_bytes": sum(run.path(n).stat().st_size for n in tables),
            "model.json_bytes": sum(run.path(n).stat().st_size for n in models),
            "model.nodes_per_tree_mean": nodes / n_trees,
        }
        return obs


# ---------------------------------------------------------------------------
# train-5k
# ---------------------------------------------------------------------------

class TrainFiveK(Workload):
    """Train on criterion 8's 5000-row low-density specialized table."""

    name = "train-5k"
    #: one set-up extracts 5000 pairs (about 20 s on two cores); repeating it
    #: would not fit the run budget
    setup_repeats = 1

    def setup(self, run: Run):
        size = run.size
        workers = [] if size.workers <= 1 else ["--workers", size.workers]
        for role, seed, n in zip(("train", "eval"), SITE_SEEDS["low"],
                                 (size.t5k_train, size.t5k_eval)):
            stem = f"low-{role}"
            run.cli("synth", "--density", "low", "--site-id", stem, "--seed", seed,
                    "--clusters", size.clusters, "--out", run.path(f"{stem}.jsonl"),
                    density="low")
            _pairs(run, stem, seed, n, "low")
            _featurize(run, stem, "low", *workers)
        with run.op("read_eval_table", "low"):
            return {"eval": features.read_feature_table(run.path("low-eval.csv"))}

    def iteration(self, run: Run, state) -> list[float]:
        """Train, load, evaluate: the duration of each."""
        steps = [run.cli("train", "--features", run.path("low-train.csv"),
                         "--model-out", run.path("low.model.json"), "--seed", TRAIN_SEED,
                         "--trees", run.size.t5k_trees, density="low")]
        t0 = perf_counter()
        with run.op("load_model", "low"):
            ens = model.load_model(run.path("low.model.json"))
        t1 = perf_counter()
        with run.op("evaluate", "low"):
            state["report"] = selection_metrics.evaluate(ens, state["eval"])
        return steps + [t1 - t0, perf_counter() - t1]

    _exact = ["low-train.jsonl", "low-eval.jsonl", "low-train.pairs.jsonl", "low-eval.pairs.jsonl"]
    _tables = ["low-train.csv", "low-eval.csv"]

    def digest(self, run: Run, state) -> dict:
        return {"model": sha256_file(run.path("low.model.json")),
                "ba.low": state["report"].balanced_accuracy}

    def observe(self, run: Run, state) -> dict:
        obs = _empty_observation()
        obs["files"] = {n: sha256_file(run.path(n)) for n in self._exact}
        obs["tables"] = {n: sha256_file(run.path(n)) for n in self._tables}
        obs["models"] = {"low.model.json": sha256_file(run.path("low.model.json"))}
        (train_x, _), (eval_x, labels) = (read_csv(run.path(n)) for n in self._tables)
        obs["features"]["low"] = feature_sums([train_x, eval_x])
        decided = decisions(model.load_model(run.path("low.model.json")), eval_x)
        obs["decisions"]["low"] = sha256_text(decided)
        obs["balanced_accuracy"]["low"] = balanced_accuracy(decided, labels)
        nodes, n_trees = trees_nodes(
            json.loads(run.path("low.model.json").read_text())["trees"])
        obs["counts"] = {
            "features.csv_bytes": sum(run.path(n).stat().st_size for n in self._tables),
            "model.json_bytes": run.path("low.model.json").stat().st_size,
            "model.nodes_per_tree_mean": nodes / n_trees,
        }
        return obs


# ---------------------------------------------------------------------------
# score-online
# ---------------------------------------------------------------------------

class ScoreOnline(Workload):
    """One closed-loop client: raw pair -> make_pair -> extract -> predict_score."""

    name = "score-online"
    #: a set-up extracts 480 training pairs and trains three 300-tree models
    #: (about 6 s); a second one would not fit the run budget
    setup_repeats = 1
    requests = True

    def min_samples(self, size: Size) -> int:
        return size.score_min_samples

    def setup(self, run: Run):
        size = run.size
        cfg = model.EnsembleConfig() if size.trees is None else model.EnsembleConfig(
            n_estimators=size.trees)
        models, train_x, per_density = {}, {}, {}
        for d in DENSITIES:
            train_seed, eval_seed = SITE_SEEDS[d]
            with run.op("make_sites", d):
                train_fps = synth.generate_site(synth.site_config_for_density(
                    d, site_id=f"{d}-train", seed=train_seed, n_clusters=size.clusters))
                eval_fps = synth.generate_site(synth.site_config_for_density(
                    d, site_id=f"{d}-eval", seed=eval_seed, n_clusters=size.clusters))
            raw = sample_pairs(train_fps, size.score_train, random.Random(run.pair_seed(train_seed)))
            pairs = [pairing.make_pair(*p) for p in raw]
            with run.op("featurize", d):
                vectors = features.extract_many(pairs, workers=size.workers)
            train_x[d] = np.stack([v.values for v in vectors])
            labels = np.array([p.label is ProximityClass.CLOSE for p in pairs])
            with run.op("train", d):
                models[d] = model.train_ensemble(
                    train_x[d], labels, features.FEATURE_NAMES, cfg, seed=TRAIN_SEED)
            per_density[d] = sample_pairs(
                eval_fps, size.score_requests // 2, random.Random(run.pair_seed(eval_seed)))
        requests = [(d, per_density[d][k])
                    for k in range(size.score_requests) for d in DENSITIES]
        return {"models": models, "train_x": train_x, "requests": requests,
                "first_cycle": None}

    def iteration(self, run: Run, state) -> list[float]:
        """One cycle of requests: the latency of each, in seconds."""
        latencies, scores, vectors = [], [], []
        models = state["models"]
        for d, (a, b, dist, label) in state["requests"]:
            with run.op("request", d):
                t0 = perf_counter()
                pair = pairing.make_pair(a, b, dist, label)
                vec = features.extract(pair)
                score = models[d].predict_score(vec.values)
                latencies.append(perf_counter() - t0)
            scores.append(score)
            vectors.append(vec.values)
        state["scores"] = scores
        if state["first_cycle"] is None:
            state["first_cycle"] = (scores, vectors)
        return latencies

    def digest(self, run: Run, state) -> dict:
        return {"scores": sha256_text(repr(state["scores"]))}

    def observe(self, run: Run, state) -> dict:
        obs = _empty_observation()
        scores, vectors = state["first_cycle"]
        nodes = n_trees = 0
        for d in DENSITIES:
            idx = [i for i, (dd, _) in enumerate(state["requests"]) if dd == d]
            req_x = np.stack([vectors[i] for i in idx])
            obs["tables"][f"{d}-train"] = hashlib.sha256(state["train_x"][d].tobytes()).hexdigest()
            obs["tables"][f"{d}-requests"] = hashlib.sha256(req_x.tobytes()).hexdigest()
            obs["features"][d] = feature_sums([state["train_x"][d], req_x])
            path = run.path(f"{d}.model.json")
            model.save_model(state["models"][d], path)
            obs["models"][path.name] = sha256_file(path)
            decided = "".join("C" if scores[i] >= 0.5 else "F" for i in idx)
            labels = "".join("C" if state["requests"][i][1][3] is ProximityClass.CLOSE
                             else "F" for i in idx)
            obs["decisions"][d] = sha256_text(decided)
            obs["balanced_accuracy"][d] = balanced_accuracy(decided, labels)
            nodes += sum(t.n_nodes for t in state["models"][d].trees)
            n_trees += len(state["models"][d].trees)
        obs["derived"] = {"scores": sha256_text(repr(scores))}
        obs["counts"] = {"model.nodes_per_tree_mean": nodes / n_trees}
        return obs


WORKLOADS = {w.name: w for w in (BuildDensity(), TrainFiveK(), ScoreOnline())}


def _empty_observation() -> dict:
    return {"files": {}, "tables": {}, "features": {}, "models": {}, "derived": {},
            "decisions": {}, "balanced_accuracy": {}, "counts": {}}


# ---------------------------------------------------------------------------
# Comparing an observation with the reference
# ---------------------------------------------------------------------------

def _close(got: float, want: float) -> bool:
    return abs(got - want) <= FEATURE_RTOL * max(1.0, abs(want))


def compare(obs: dict, ref: dict) -> list[tuple[str, bool]]:
    """One (check, passed) entry per reference value.

    Exact: input files, Close/Far decisions, balanced accuracy and counts.
    Within FEATURE_RTOL: the per-group feature sums.  Model hashes and
    ``derived`` outputs (the mRMR ranking, the request scores) are exact only
    when every feature table is bit-identical to the reference's, since a
    last-bit change in a feature may legitimately move a split threshold.
    """
    checks = []
    for name, want in ref["files"].items():
        checks.append((f"file {name}", obs["files"].get(name) == want))
    for d, groups in ref["features"].items():
        got = obs["features"].get(d, {})
        ok = got.keys() == groups.keys() and all(
            _close(got[g][0], s) and _close(got[g][1], w) for g, (s, w) in groups.items())
        checks.append((f"feature sums {d}", ok))
    if obs["tables"] == ref["tables"]:
        for kind in ("models", "derived"):
            for name, want in ref[kind].items():
                checks.append((f"{kind} {name}", obs[kind].get(name) == want))
    for d, want in ref["decisions"].items():
        checks.append((f"decisions {d}", obs["decisions"].get(d) == want))
    for d, want in ref["balanced_accuracy"].items():
        checks.append((f"balanced_accuracy {d}", obs["balanced_accuracy"].get(d) == want))
    for name, got in obs["counts"].items():
        checks.append((f"count {name}", ref["counts"].get(name) == got))
    return checks
