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


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_digest(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def count(text: str) -> int:
    """argparse ``type=`` for a count flag: an integer of at least 1."""
    value = int(text)  # argparse reports a ValueError as "invalid count value"
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _sampling(args: argparse.Namespace) -> bool:
    """Whether ``--n-close``/``--n-far`` ask for sampling; they come together."""
    if (args.n_close is None) != (args.n_far is None):
        raise ConfigError("--n-close and --n-far must be given together")
    return args.n_close is not None


def _require_exists(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return path


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    cfg = synth.SiteConfig(
        args.density, args.site_id, args.seed, n_clusters=args.clusters, bursts=args.bursts
    )
    doc = _print_header("synth", args.seed, dataclasses.asdict(cfg), [])
    fps = synth.generate_site(cfg)
    ingest.save_canonical(fps, args.out)
    _write_meta(args.out, doc)
    ap_count = synth.DENSITY_PRESETS[cfg.density]["ap_count"]
    print(f"site={cfg.site_id} fingerprints={len(fps)} ap_count={ap_count}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    manifest = ingest.load_manifest(_require_exists(args.manifest))
    config = {"manifest": str(args.manifest), "format": manifest.format}
    doc = _print_header("ingest", None, config, [args.manifest, Path(manifest.path)])
    fps, report = ingest.load_wide_csv(manifest)
    ingest.save_canonical(fps, args.out)
    doc["skip_report"] = dataclasses.asdict(report)
    _write_meta(args.out, doc)
    print(
        f"loaded={report.loaded} skipped_empty={report.skipped_empty} "
        f"rows_read={report.rows_read}"
    )
    return EXIT_OK


def cmd_pairs(args: argparse.Namespace) -> int:
    sampling = _sampling(args)
    if sampling and args.seed is None:
        raise ConfigError("sampling pairs requires --seed")
    if args.remainder_out is not None and not sampling:
        raise ConfigError("--remainder-out only makes sense with --n-close/--n-far")
    sub_bursts = args.pseudo_out is not None
    config = {
        "sub_bursts": sub_bursts,
        "n_close": args.n_close,
        "n_far": args.n_far,
    }
    doc = _print_header("pairs", args.seed, config, [_require_exists(args.input)])
    fps = ingest.load_canonical(args.input)
    if sub_bursts:
        fps, burst_report = ingest.split_all_sub_bursts(fps)
        doc["skip_report"] = dataclasses.asdict(burst_report)
        print(
            f"bursts={burst_report.bursts_seen} "
            f"too_short={burst_report.bursts_too_short} "
            f"pseudo_fingerprints={len(fps)}"
        )
    pairs = pairing.enumerate_pairs(fps)
    n_close = int(pairs.is_close.sum())
    doc["enumerated"] = {
        "combinations": pairs.combinations, "close": n_close, "far": len(pairs) - n_close,
    }
    # sample before writing anything, so a failed sample leaves no files behind
    selected = (
        pairing.sample_training_set(pairs, args.n_close, args.n_far, args.seed)
        if sampling else pairs
    )
    if sub_bursts:
        ingest.save_canonical(fps, args.pseudo_out)
        _write_meta(args.pseudo_out, doc)
    if args.remainder_out is not None:  # only with sampling, checked above
        pairing.save_pairs(pairing.holdout(pairs, selected), args.remainder_out)
        _write_meta(args.remainder_out, doc)
    pairing.save_pairs(selected, args.out)
    _write_meta(args.out, doc)
    n_close = int(selected.is_close.sum())
    print(f"close={n_close} far={len(selected) - n_close} total={len(selected)}")
    return EXIT_OK


def cmd_featurize(args: argparse.Namespace) -> int:
    config = {"workers": args.workers}
    doc = _print_header("featurize", None, config,
                        [_require_exists(args.pairs), _require_exists(args.fingerprints)])
    fps = ingest.load_canonical(args.fingerprints)
    pairs = pairing.load_pairs(args.pairs, fps)
    vectors = features.extract_many(pairs, workers=args.workers)
    table = features.table_from_vectors(pairs, vectors)
    features.write_feature_table(table, args.out, workers=args.workers)
    shared = table.matrix[:, table.names.index("ap.shared_count.none")].astype(int).tolist()
    doc["table"] = {
        "no_shared_ap_pairs": shared.count(0),
        "constant_columns": (
            int(np.all(table.matrix == table.matrix[:1], axis=0).sum()) if shared else 0
        ),
        "shared_ap_count": _spread(shared) if shared else None,
    }
    _write_meta(args.out, doc)
    print(f"pairs={len(table)} features={len(table.names)}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    config = {"top_k": args.top_k}
    doc = _print_header("select", None, config, [_require_exists(args.features)])
    table = features.read_feature_table(args.features)
    ranked = selection_metrics.mrmr_select(
        table.matrix, table.names, table.label_array(), args.top_k
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
    tables = [features.read_feature_table(_require_exists(p)) for p in args.features]
    names = tables[0].names
    for path, table in zip(args.features[1:], tables[1:]):
        if table.names != names:
            raise ConfigError(f"{path}: feature columns differ from {args.features[0]}")
    if args.feature_list is not None:
        line_of = selection_metrics.read_ranking(args.feature_list)
        for name, line in line_of.items():
            if name not in names:
                raise ValueError(
                    f"{args.feature_list}:{line}: {name!r} is not a column of {args.features[0]}"
                )
        names = tuple(line_of)
        tables = [table.project(names) for table in tables]
    mats, labels_all = [], []
    for file_index, (path, table) in enumerate(zip(args.features, tables)):
        is_close = table.label_array()
        matrix = table.matrix
        if args.n_close is not None:  # cmd_train checked that --n-far comes with it
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
    _sampling(args)
    ens_cfg = model.EnsembleConfig(n_estimators=args.trees)
    config = {
        "n_estimators": ens_cfg.n_estimators,
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
    doc["trees"] = {
        "nodes": _spread([t.n_nodes for t in trained.trees]),
        "depth": _spread([t.depth for t in trained.trees]),
    }
    _write_meta(args.model_out, doc)
    n_close, n_far = trained.class_balance
    print(
        f"trees={len(trained.trees)} features_per_tree<={model.MAX_FEATURES} "
        f"train_close={n_close} train_far={n_far}"
    )
    return EXIT_OK


def _scoring_inputs(command: str, args: argparse.Namespace):
    """Print the header, then load ``--model`` and the ``--features`` table it scores.

    The table must hold every column the model reads; the command takes no settings.
    """
    doc = _print_header(
        command, None, {}, [_require_exists(args.model), _require_exists(args.features)]
    )
    trained = model.load_model(args.model)
    table = features.read_feature_table(args.features)
    missing = [n for n in trained.feature_names if n not in table.names]
    if missing:
        raise ValueError(f"{args.features}: lacks the model's feature columns {missing}")
    return doc, trained, table


def cmd_evaluate(args: argparse.Namespace) -> int:
    doc, trained, table = _scoring_inputs("evaluate", args)
    report = selection_metrics.evaluate(trained, table)
    with open(args.report_out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _write_meta(args.report_out, doc)
    print(report.summary())
    return EXIT_OK


def cmd_pr_curve(args: argparse.Namespace) -> int:
    doc, trained, table = _scoring_inputs("pr-curve", args)
    curve = selection_metrics.pr_points_from_scores(
        *selection_metrics.table_scores(trained, table)
    )
    selection_metrics.write_pr_points(curve, args.out)
    _write_meta(args.out, doc)
    print(f"points={len(curve)}")
    return EXIT_OK


def _spread(counts: Sequence[int]) -> dict:
    return {"min": min(counts), "median": float(np.median(counts)), "max": max(counts)}


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
    p.add_argument("--density", choices=sorted(synth.DENSITY_PRESETS), required=True,
                   help="the site physics preset")
    p.add_argument("--clusters", type=count, default=70)
    p.add_argument("--bursts", action="store_true", help="emit 9-scan bursts")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load a dataset into canonical form")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pairs", help="enumerate and label fingerprint pairs")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--pseudo-out", type=Path,
                   help="aggregate 9-scan bursts into 4-scan pseudo-fingerprints first, "
                        "and write them here")
    p.add_argument("--n-close", type=count)
    p.add_argument("--n-far", type=count)
    p.add_argument("--seed", type=int)
    p.add_argument("--remainder-out", type=Path,
                   help="where to write the non-sampled pairs (the evaluation pool)")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("featurize", help="extract feature vectors for pairs")
    p.add_argument("--pairs", type=Path, required=True)
    p.add_argument("--fingerprints", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workers", type=count, default=1)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("select", help="rank features with mRMR")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--top-k", type=count, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="train the bagged-tree ensemble")
    p.add_argument("--features", type=Path, action="append", required=True,
                   help="training feature table; repeat to concatenate")
    p.add_argument("--model-out", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trees", type=count, default=300)
    p.add_argument("--n-close", type=count,
                   help="per input table: sample this many Close rows")
    p.add_argument("--n-far", type=count,
                   help="per input table: sample this many Far rows")
    p.add_argument("--feature-list", type=Path,
                   help="train only on the features listed in this file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a feature table with a model")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--report-out", type=Path, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pr-curve", help="write precision-recall points")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
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
