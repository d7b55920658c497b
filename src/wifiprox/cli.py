"""Command-line pipeline: synth -> ingest -> pairs -> featurize -> train -> evaluate.

Commands are pure pipeline stages communicating via files, so experiments
are plain shell scripts.  Every randomized stage takes an explicit ``--seed``
(there is no wall-clock seeding anywhere), every command prints a
reproducibility header (seed, config hash, input digests), and every output
file gets a ``<name>.meta.json`` sidecar recording the exact configuration
and input digests that produced it.  Reruns with identical inputs and flags
are byte-identical, sidecars included.

Exit codes: 2 for I/O problems, 3 for validation problems in the data,
4 for configuration problems (bad flags, bad manifest).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import features, ingest, model, pairing, selection_metrics, synth
from .core import ProximityClass

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 4


class ConfigError(Exception):
    """Bad flag combination or otherwise unusable configuration."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route those to the config family
    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_digest(config: dict) -> str:
    return _sha256_text(json.dumps(config, sort_keys=True, separators=(",", ":")))


def _print_header(command: str, seed: Optional[int], config: dict, inputs: Sequence[Path]) -> dict:
    """Print the reproducibility header; return the sidecar document."""
    digests = {str(p): _sha256_file(p) for p in inputs}
    cfg_hash = _config_digest(config)
    parts = [f"# {command}", f"seed={'-' if seed is None else seed}", f"config=sha256:{cfg_hash[:12]}"]
    if digests:
        joined = ",".join(f"{p}:{d[:12]}" for p, d in digests.items())
        parts.append(f"inputs={joined}")
    print(" ".join(parts))
    return {
        "command": command,
        "seed": seed,
        "config": config,
        "config_sha256": cfg_hash,
        "inputs": digests,
    }


def _write_meta(out_path: Path, doc: dict) -> None:
    meta = Path(str(out_path) + ".meta.json")
    with open(meta, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _require_exists(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SYNTH_OVERRIDES = (
    "ap_count",
    "area_w_m",
    "area_h_m",
    "cluster_radius_m",
    "noise_sigma_db",
    "detect_threshold_dbm",
    "path_loss_exponent",
    "tx_power_dbm",
)


def cmd_synth(args: argparse.Namespace) -> int:
    overrides = {
        name: getattr(args, name)
        for name in _SYNTH_OVERRIDES
        if getattr(args, name) is not None
    }
    if args.dropout is not None:
        overrides["dropout_prob"] = args.dropout
    overrides.update(
        n_clusters=args.clusters,
        positions_per_cluster=args.positions_per_cluster,
        devices_per_position=args.devices_per_position,
        bursts=args.bursts,
    )
    if args.density is not None:
        cfg = synth.site_config_for_density(
            args.density, site_id=args.site_id, seed=args.seed, **overrides
        )
    elif "ap_count" in overrides:
        cfg = synth.SiteConfig(site_id=args.site_id, seed=args.seed, **overrides)
    else:
        raise ConfigError("one of --density or --ap-count is required")
    doc = _print_header("synth", args.seed, _dataclass_dict(cfg), [])
    fps = synth.generate_site(cfg)
    ingest.save_canonical(fps, args.out)
    _write_meta(args.out, doc)
    print(f"site={cfg.site_id} fingerprints={len(fps)} ap_count={cfg.ap_count}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.manifest is not None:
        manifest = ingest.load_manifest(_require_exists(args.manifest))
        config = {"manifest": str(args.manifest), "format": manifest.format}
        doc = _print_header("ingest", None, config, [args.manifest, Path(manifest.path)])
        fps, report = ingest.load_dataset(manifest)
    else:
        _require_exists(args.canonical)
        config = {"canonical": str(args.canonical)}
        doc = _print_header("ingest", None, config, [args.canonical])
        fps = ingest.load_canonical(args.canonical)
        report = ingest.SkipReport(rows_read=len(fps), loaded=len(fps))
    ingest.save_canonical(fps, args.out)
    doc["skip_report"] = report.as_dict()
    _write_meta(args.out, doc)
    print(
        f"loaded={report.loaded} skipped_empty={report.skipped_empty} "
        f"rows_read={report.rows_read}"
    )
    return EXIT_OK


def cmd_pairs(args: argparse.Namespace) -> int:
    sampling = args.n_close is not None or args.n_far is not None
    if sampling and (args.n_close is None or args.n_far is None):
        raise ConfigError("--n-close and --n-far must be given together")
    if sampling and args.seed is None:
        raise ConfigError("sampling pairs requires --seed")
    if args.sub_bursts and args.pseudo_out is None:
        raise ConfigError("--sub-bursts requires --pseudo-out for the pseudo-fingerprints")
    pair_cfg = pairing.PairingConfig(
        close_max_m=args.close_max_m,
        far_min_m=args.far_min_m,
        far_max_m=args.far_max_m,
        include_same_burst=not args.exclude_same_burst,
    )
    config = {
        "close_max_m": pair_cfg.close_max_m,
        "far_min_m": pair_cfg.far_min_m,
        "far_max_m": pair_cfg.far_max_m,
        "include_same_burst": pair_cfg.include_same_burst,
        "sub_bursts": args.sub_bursts,
        "n_close": args.n_close,
        "n_far": args.n_far,
    }
    doc = _print_header("pairs", args.seed, config, [_require_exists(args.input)])
    fps = ingest.load_canonical(args.input)
    if args.sub_bursts:
        pseudos, burst_report = ingest.split_all_sub_bursts(ingest.group_bursts(fps))
        ingest.save_canonical(pseudos, args.pseudo_out)
        _write_meta(args.pseudo_out, doc)
        print(
            f"bursts={burst_report.bursts_seen} "
            f"too_short={burst_report.bursts_too_short} "
            f"pseudo_fingerprints={len(pseudos)}"
        )
        fps = pseudos
    pairs = pairing.enumerate_pairs(fps, pair_cfg)
    if sampling:
        selected = pairing.sample_training_set(pairs, args.n_close, args.n_far, args.seed)
        if args.remainder_out is not None:
            rest = pairing.holdout(pairs, selected)
            pairing.save_pairs(rest, args.remainder_out)
            _write_meta(args.remainder_out, doc)
        pairs = selected
    elif args.remainder_out is not None:
        raise ConfigError("--remainder-out only makes sense with --n-close/--n-far")
    pairing.save_pairs(pairs, args.out)
    _write_meta(args.out, doc)
    n_close = sum(p.label is ProximityClass.CLOSE for p in pairs)
    print(f"close={n_close} far={len(pairs) - n_close} total={len(pairs)}")
    return EXIT_OK


def cmd_featurize(args: argparse.Namespace) -> int:
    config = {"workers": args.workers}
    doc = _print_header(
        "featurize",
        None,
        config,
        [_require_exists(args.pairs), _require_exists(args.fingerprints)],
    )
    fps = ingest.load_canonical(args.fingerprints)
    pairs = pairing.load_pairs(args.pairs, fps)
    vectors = features.extract_many(pairs, workers=args.workers)
    table = features.table_from_vectors(pairs, vectors)
    features.write_feature_table(table, args.out)
    _write_meta(args.out, doc)
    print(f"pairs={len(table)} features={len(table.names)}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    cfg = selection_metrics.MrmrConfig(
        k=args.top_k,
        discretization=args.discretization,
        alpha=args.alpha,
        n_bins=args.bins,
    )
    config = {
        "top_k": cfg.k,
        "discretization": cfg.discretization,
        "alpha": cfg.alpha,
        "n_bins": cfg.n_bins,
    }
    doc = _print_header("select", None, config, [_require_exists(args.features)])
    table = features.read_feature_table(args.features)
    ranked = selection_metrics.mrmr_select(
        table.matrix, table.names, table.label_array(), cfg
    )
    selection_metrics.write_ranking(ranked, args.out)
    _write_meta(args.out, doc)
    for i, name in enumerate(ranked, start=1):
        print(f"{i:2d}. {name}")
    return EXIT_OK


def _load_training_tables(
    args: argparse.Namespace,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Load one or more feature tables as (matrix, is_close, names).

    Each table is optionally restricted to the ``--feature-list`` columns and
    subsampled per class.
    """
    sampling = args.n_close is not None or args.n_far is not None
    if sampling and (args.n_close is None or args.n_far is None):
        raise ConfigError("--n-close and --n-far must be given together")
    tables = [features.read_feature_table(_require_exists(p)) for p in args.features]
    names = tables[0].names
    for path, table in zip(args.features[1:], tables[1:]):
        if table.names != names:
            raise ConfigError(f"{path}: feature columns differ from {args.features[0]}")
    if args.feature_list is not None:
        names = tuple(selection_metrics.read_ranking(args.feature_list))
        tables = [table.project(names) for table in tables]
    mats, labels_all = [], []
    for file_index, (path, table) in enumerate(zip(args.features, tables)):
        is_close = table.label_array()
        matrix = table.matrix
        if sampling:
            rng = np.random.default_rng([args.seed, file_index])
            rows = []
            for want, mask in ((args.n_close, is_close), (args.n_far, ~is_close)):
                avail = np.nonzero(mask)[0]
                if want > len(avail):
                    raise ValueError(
                        f"{path}: requested {want} rows of one class, have {len(avail)}"
                    )
                rows.append(rng.choice(avail, size=want, replace=False))
            keep = np.sort(np.concatenate(rows))
            matrix = matrix[keep]
            is_close = is_close[keep]
        mats.append(matrix)
        labels_all.append(is_close)
    return np.vstack(mats), np.concatenate(labels_all), names


def cmd_train(args: argparse.Namespace) -> int:
    ens_cfg = model.EnsembleConfig(
        n_estimators=args.trees,
        max_features=args.max_features,
        bootstrap=not args.no_bootstrap,
    )
    config = {
        "n_estimators": ens_cfg.n_estimators,
        "max_features": ens_cfg.max_features,
        "bootstrap": ens_cfg.bootstrap,
        "n_close": args.n_close,
        "n_far": args.n_far,
        "feature_list": None if args.feature_list is None else str(args.feature_list),
    }
    inputs = [_require_exists(p) for p in args.features]
    if args.feature_list is not None:
        inputs.append(_require_exists(args.feature_list))
    doc = _print_header("train", args.seed, config, inputs)
    matrix, is_close, names = _load_training_tables(args)
    trained = model.train_ensemble(matrix, is_close, names, ens_cfg, seed=args.seed)
    model.save_model(trained, args.model_out)
    _write_meta(args.model_out, doc)
    n_close, n_far = trained.class_balance
    print(
        f"trees={len(trained.trees)} features_per_tree<={ens_cfg.max_features} "
        f"train_close={n_close} train_far={n_far}"
    )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = {"threshold": args.threshold, "with_pr_curve": args.with_pr_curve}
    doc = _print_header(
        "evaluate", None, config, [_require_exists(args.model), _require_exists(args.features)]
    )
    trained = model.load_model(args.model)
    table = features.read_feature_table(args.features)
    report = selection_metrics.evaluate(trained, table, threshold=args.threshold)
    if args.with_pr_curve:
        curve = selection_metrics.pr_curve(trained, table)
        report = dataclasses.replace(report, pr_curve=curve)
    with open(args.report_out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _write_meta(args.report_out, doc)
    print(report.summary())
    return EXIT_OK


def cmd_pr_curve(args: argparse.Namespace) -> int:
    config = {"n_thresholds": args.n_thresholds}
    doc = _print_header(
        "pr-curve", None, config, [_require_exists(args.model), _require_exists(args.features)]
    )
    trained = model.load_model(args.model)
    table = features.read_feature_table(args.features)
    curve = selection_metrics.pr_curve(trained, table, n_thresholds=args.n_thresholds)
    selection_metrics.write_pr_points(curve, args.out)
    _write_meta(args.out, doc)
    print(f"points={len(curve)}")
    return EXIT_OK


def _dataclass_dict(obj) -> dict:
    d = dataclasses.asdict(obj)
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in d.items()}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wifiprox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic survey site")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--site-id", required=True)
    p.add_argument("--density", choices=sorted(synth.DENSITY_PRESETS),
                   help="use a bundled environment preset")
    p.add_argument("--ap-count", type=int)
    p.add_argument("--clusters", type=int, default=70)
    p.add_argument("--positions-per-cluster", type=int, default=5)
    p.add_argument("--devices-per-position", type=int, default=2)
    p.add_argument("--cluster-radius-m", type=float)
    p.add_argument("--area-w-m", type=float)
    p.add_argument("--area-h-m", type=float)
    p.add_argument("--noise-sigma-db", type=float)
    p.add_argument("--detect-threshold-dbm", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--path-loss-exponent", type=float)
    p.add_argument("--tx-power-dbm", type=float)
    p.add_argument("--bursts", action="store_true", help="emit 9-scan bursts")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load a dataset into canonical form")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--manifest", type=Path)
    g.add_argument("--canonical", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pairs", help="enumerate and label fingerprint pairs")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--close-max-m", type=float, default=2.25)
    p.add_argument("--far-min-m", type=float, default=3.25)
    p.add_argument("--far-max-m", type=float, default=20.0)
    p.add_argument("--sub-bursts", action="store_true",
                   help="aggregate 9-scan bursts into 4-scan pseudo-fingerprints first")
    p.add_argument("--pseudo-out", type=Path,
                   help="where to write the pseudo-fingerprints (with --sub-bursts)")
    p.add_argument("--exclude-same-burst", action="store_true")
    p.add_argument("--n-close", type=int)
    p.add_argument("--n-far", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--remainder-out", type=Path,
                   help="where to write the non-sampled pairs (the evaluation pool)")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("featurize", help="extract feature vectors for pairs")
    p.add_argument("--pairs", type=Path, required=True)
    p.add_argument("--fingerprints", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("select", help="rank features with mRMR")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--top-k", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--discretization", choices=["mean_pm_sigma", "equal_frequency"],
                   default="mean_pm_sigma")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=3)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="train the bagged-tree ensemble")
    p.add_argument("--features", type=Path, action="append", required=True,
                   help="training feature table; repeat to concatenate")
    p.add_argument("--model-out", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trees", type=int, default=300)
    p.add_argument("--max-features", type=int, default=3)
    p.add_argument("--no-bootstrap", action="store_true")
    p.add_argument("--n-close", type=int,
                   help="per input table: sample this many Close rows")
    p.add_argument("--n-far", type=int,
                   help="per input table: sample this many Far rows")
    p.add_argument("--feature-list", type=Path,
                   help="train only on the features listed in this file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a feature table with a model")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--report-out", type=Path, required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--with-pr-curve", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pr-curve", help="write precision-recall points")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n-thresholds", type=int)
    p.set_defaults(func=cmd_pr_curve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ingest.ManifestError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
