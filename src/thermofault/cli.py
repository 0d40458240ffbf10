"""Batch pipeline front end: synth, extract, train, classify, eval.

Each stage reads the previous stage's JSON output, so intermediates stay
inspectable. Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .density import DEFAULT_GRID, FeatureGrid, PdfFeature, feature_vector
from .embedding import (
    KIND_IDENTITY,
    KIND_MLP,
    TrainConfig,
    embed_many,
    embedder_from_dict,
    embedder_to_dict,
    identity_embedder,
)
from .harness import (
    MODE_SUPERVISED,
    MODE_WEAK,
    SPLITS,
    SWEEP_PARAMS,
    ExperimentConfig,
    compare,
    compare_table,
    extract_features,
    fit_embedder,
    fit_model,
    replicate,
    report_table,
    report_to_dict,
    run_both,
    run_experiment,
    sweep,
    sweep_table,
)
from .images import InputFormatError, ManifestError, RegionAnnotation
from .prototypes import model_from_dict, model_to_dict, posterior
from .synthetic import SynthConfig, default_synth_config, synthesize, write_dataset

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this project reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _given(args, *names) -> dict:
    """The flags among names that were given on the command line."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def cmd_synth(args) -> int:
    if args.config is not None:
        cfg = SynthConfig.from_dict(_read_json(Path(args.config)))
    else:
        cfg = default_synth_config()
    cfg = dataclasses.replace(cfg, **_given(args, "seed"))
    images, manifest = synthesize(cfg)
    manifest_path = write_dataset(images, manifest, Path(args.out))
    print(f"wrote {len(images)} images and {manifest_path}")
    print(
        f"splits: labeled={len(manifest.labeled)}"
        f" unlabeled={len(manifest.unlabeled)} test={len(manifest.test)}"
    )
    tally: dict[str, list[int]] = {}
    for split_idx, split in enumerate((manifest.labeled, manifest.test)):
        for region in split:
            row = tally.setdefault(region.subcategory.label, [0, 0])
            row[split_idx] += 1
    for label in sorted(tally):
        lab, tst = tally[label]
        print(f"  {label}: labeled={lab} test={tst}")
    return EXIT_OK


def _region_record(region: RegionAnnotation, split: str, feature: PdfFeature) -> dict:
    return {**region.to_dict(), "split": split, "feature": feature.to_dict()}


def cmd_extract(args) -> int:
    cfg = ExperimentConfig(
        manifest_path=args.manifest,
        grid=FeatureGrid(args.t_lo, args.t_hi, args.grid_points),
        bandwidth="auto" if args.bandwidth == "auto" else float(args.bandwidth),
    )
    manifest, features = extract_features(cfg, feature_vector)
    records = [
        _region_record(region, split, feature)
        for split in SPLITS
        for region, feature in zip(getattr(manifest, split), features[split])
    ]
    _write_json(Path(args.out), {"records": records})
    print(f"wrote {len(records)} feature records to {args.out}")
    return EXIT_OK


def _load_records(path: Path) -> list[dict]:
    payload = _read_json(path)
    if not isinstance(payload, dict) or "records" not in payload:
        raise ValueError(f"{path}: not a feature file (missing 'records')")
    return payload["records"]


def _grid_text(grid: FeatureGrid) -> str:
    return f"[{grid.t_lo}, {grid.t_hi}] x {grid.n_points} points"


def _record_features(records: list[dict]) -> list[PdfFeature]:
    """The feature of each record; every record must share one grid."""
    features = [PdfFeature.from_dict(rec["feature"]) for rec in records]
    grids = list(dict.fromkeys(f.grid for f in features))
    if len(grids) > 1:
        raise ValueError(
            f"feature records mix grids {_grid_text(grids[0])} and {_grid_text(grids[1])}"
        )
    return features


def cmd_train(args) -> int:
    mlp_flags = _given(args, "hidden", "out_dim", "episodes", "lr")
    if args.embedder != KIND_MLP and mlp_flags:
        flags = ", ".join("--" + k.replace("_", "-") for k in mlp_flags)
        raise ValueError(f"{flags}: only used with --embedder mlp")
    records = [
        rec
        for rec in _load_records(Path(args.features))
        if rec["split"] in ("labeled", "unlabeled")
    ]
    features = _record_features(records)
    labeled = []
    unlabeled = []
    for rec, feature in zip(records, features):
        if rec["split"] == "labeled":
            subcat = RegionAnnotation.from_dict(rec).subcategory
            if subcat is None:
                raise ValueError("labeled record without a status")
            labeled.append((subcat, feature.values))
        else:
            unlabeled.append(feature.values)
    if not labeled:
        raise ValueError("no labeled records in the feature file")

    train_cfg = TrainConfig(**mlp_flags) if args.embedder == KIND_MLP else None
    emb = fit_embedder(labeled, train_cfg, args.seed)
    if train_cfg is not None:
        embedder_path = Path(str(args.out) + ".embedder.json")
        _write_json(embedder_path, embedder_to_dict(emb))
        print(f"wrote embedder to {embedder_path}")
    lab = embed_many(emb, [v for _, v in labeled])
    model = fit_model(
        list(zip((c for c, _ in labeled), lab)),
        embed_many(emb, unlabeled),
        args.mode,
        args.alpha,
        args.refine_iters,
    )
    _write_json(Path(args.out), model_to_dict(model))
    print(
        f"wrote model to {args.out} (mode={args.mode}, alpha={model.alpha},"
        f" classes={model.n_classes}, dim={model.feature_dim})"
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    model = model_from_dict(_read_json(Path(args.model)))
    records = _load_records(Path(args.features))
    features = _record_features(records)
    emb = identity_embedder()
    if args.embedder_file is not None:
        emb = embedder_from_dict(_read_json(Path(args.embedder_file)))
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    vectors = embed_many(emb, [f.values for f in features])
    if not records:  # the identity embedder cannot know the width of no rows
        vectors = vectors.reshape(0, model.feature_dim)
    if vectors.shape[1] != model.feature_dim:
        source = f"embedder {args.embedder_file}" if args.embedder_file else "no --embedder-file"
        raise ValueError(
            f"model {args.model} takes {model.feature_dim}-wide vectors, but the features"
            f" with {source} are {vectors.shape[1]} wide"
        )
    post = posterior(vectors, model)
    class_dicts = [c.to_dict() for c in post.classes]
    predicted_dicts = dict(zip(post.classes, class_dicts))
    lines = [
        json.dumps(
            {
                **RegionAnnotation.from_dict(rec).to_dict(),
                "split": rec["split"],
                "predicted": predicted_dicts[predicted],
                "posterior": [
                    {**c, "distance": d, "prob": p}
                    for c, d, p in zip(class_dicts, distances, probs)
                ],
            },
            sort_keys=True,
        )
        for rec, predicted, distances, probs in zip(
            records, post.predicted, post.distances.tolist(), post.probs.tolist()
        )
    ]
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    print(f"wrote {len(lines)} predictions to {args.out}")
    return EXIT_OK


def _eval_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = ExperimentConfig.from_dict(_read_json(Path(args.config)))
    else:
        cfg = ExperimentConfig(synth=default_synth_config())
    return dataclasses.replace(cfg, **_given(args, "seed", "alpha", "repeats"))


def cmd_eval(args) -> int:
    if (args.sweep is None) != (args.values is None):
        raise ValueError("--sweep and --values must be given together")
    cfg = _eval_config(args)
    if cfg.repeats > 1 and (args.sweep is not None or args.mode == "both"):
        raise ValueError(
            f"--repeats {cfg.repeats} (flag or config) needs --mode supervised or weak, no --sweep"
        )
    out_dir = Path(args.out)

    def emit(name: str, report) -> None:
        _write_json(out_dir / f"{name}.json", report_to_dict(report))
        _write_text(out_dir / f"{name}.txt", report_table(report))

    if args.sweep is not None:
        values = [float(v) for v in args.values.split(",")]
        reports = sweep(cfg, args.sweep, values)
        for v, rep in zip(values, reports):
            tag = f"{v:g}".replace(".", "p").replace("-", "m")
            emit(f"report_sweep_{args.sweep}_{tag}", rep)
        table = sweep_table(args.sweep, values, reports)
        _write_text(out_dir / f"sweep_{args.sweep}.txt", table)
        print(table)
        return EXIT_OK

    if args.mode == "both":
        sup, weak = run_both(cfg)
        emit("report_supervised", sup)
        emit("report_weak", weak)
        deltas = compare(sup, weak)
        table = compare_table(deltas)
        _write_text(out_dir / "compare.txt", table)
        print(report_table(sup))
        print(report_table(weak))
        print(table)
        return EXIT_OK

    if cfg.repeats > 1:
        reports = replicate(cfg, args.mode)
        for rep in reports:
            emit(f"report_{args.mode}_seed{rep.seed}", rep)
        mean = float(np.mean([r.overall.acc_average for r in reports]))
        summary = f"mean overall accuracy over {len(reports)} seeds: {mean:.3f}"
        _write_text(out_dir / f"summary_{args.mode}.txt", summary)
        print(summary)
        return EXIT_OK

    report = run_experiment(cfg, args.mode)
    emit(f"report_{args.mode}", report)
    print(report_table(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thermofault", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic thermal dataset")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--config", help="SynthConfig JSON path (default: built-in config)")
    p_synth.add_argument("--seed", type=int, help="override the config seed")
    p_synth.set_defaults(run=cmd_synth)

    p_extract = sub.add_parser("extract", help="extract density features per region")
    p_extract.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p_extract.add_argument("--out", required=True, help="output feature file")
    p_extract.add_argument("--t-lo", type=float, default=DEFAULT_GRID.t_lo)
    p_extract.add_argument("--t-hi", type=float, default=DEFAULT_GRID.t_hi)
    p_extract.add_argument("--grid-points", type=int, default=DEFAULT_GRID.n_points)
    p_extract.add_argument("--bandwidth", default="auto", help='"auto" or a positive float')
    p_extract.set_defaults(run=cmd_extract)

    p_train = sub.add_parser("train", help="build a prototype model from features")
    p_train.add_argument("--features", required=True)
    p_train.add_argument("--out", required=True, help="output model JSON")
    p_train.add_argument("--alpha", type=float, default=ExperimentConfig.alpha)
    p_train.add_argument("--mode", choices=[MODE_SUPERVISED, MODE_WEAK], default=MODE_WEAK)
    p_train.add_argument("--refine-iters", type=int, default=ExperimentConfig.refine_iters)
    p_train.add_argument("--embedder", choices=[KIND_IDENTITY, KIND_MLP], default=KIND_IDENTITY)
    p_train.add_argument("--hidden", type=int)
    p_train.add_argument("--out-dim", type=int)
    p_train.add_argument("--episodes", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p_train.set_defaults(run=cmd_train)

    p_classify = sub.add_parser("classify", help="classify feature records with a model")
    p_classify.add_argument("--model", required=True)
    p_classify.add_argument("--features", required=True)
    p_classify.add_argument("--out", required=True, help="output predictions (JSON lines)")
    p_classify.add_argument("--embedder-file", help="embedder JSON written by train")
    p_classify.set_defaults(run=cmd_classify)

    p_eval = sub.add_parser("eval", help="run the evaluation harness")
    p_eval.add_argument("--out", required=True, help="output report directory")
    p_eval.add_argument("--config", help="ExperimentConfig JSON (default: built-in synthetic)")
    p_eval.add_argument("--mode", choices=[MODE_SUPERVISED, MODE_WEAK, "both"], default="both")
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--repeats", type=int)
    p_eval.add_argument("--sweep", choices=list(SWEEP_PARAMS))
    p_eval.add_argument("--values", help="comma-separated sweep values")
    p_eval.set_defaults(run=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION
    except (InputFormatError, OSError, json.JSONDecodeError) as exc:
        if isinstance(exc, ManifestError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
