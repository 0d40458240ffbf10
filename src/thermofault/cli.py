"""Batch pipeline front end: synth, extract, train, classify, eval.

Each stage reads the previous stage's JSON output, so intermediates stay
inspectable. Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .density import DEFAULT_GRID, FeatureGrid, PdfFeature, feature_vector, read_features
from .embedding import (
    EMBEDDER_KINDS,
    KIND_MLP,
    TrainConfig,
    embed_many,
    embedder_from_dict,
    embedder_to_dict,
)
from .harness import (
    MODE_SUPERVISED,
    MODE_WEAK,
    SPLITS,
    SWEEP_PARAMS,
    ExperimentConfig,
    compare_table,
    extract_features,
    fit_model,
    fit_splits,
    report_table,
    report_to_dict,
    run_both,
    run_experiment,
    sweep,
    sweep_table,
)
from .images import DatasetManifest, ManifestError, RegionAnnotation
from .prototypes import DistanceOverflow, Posterior, model_from_dict, model_to_dict, posterior
from .synthetic import SynthConfig, default_synth_config, synthesize, write_dataset
from .taxonomy import (
    INT64,
    InputFormatError,
    check_keys,
    quote,
    read_json,
    read_scalar,
    write_json,
    write_lines,
    write_records,
    write_text,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this project reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def int64(text: str) -> int:
    """An integer flag's value, one that every artifact can hold."""
    if (value := int(text)) not in INT64:
        raise ValueError(f"{text} is not a 64-bit integer")
    return value


def _given(args, *names) -> dict:
    """The flags among names that were given on the command line."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def cmd_synth(args) -> int:
    if args.config is not None:
        cfg = SynthConfig.from_dict(read_json(args.config))
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


def cmd_extract(args) -> int:
    cfg = ExperimentConfig(
        manifest_path=args.manifest,
        grid=FeatureGrid(args.t_lo, args.t_hi, args.grid_points),
        bandwidth="auto" if args.bandwidth == "auto" else float(args.bandwidth),
    )
    manifest, features = extract_features(cfg, feature_vector)
    n = write_records(
        Path(args.out),
        {"grid": cfg.grid.to_dict()},
        (
            {**region.to_dict(), "split": split, "feature": PdfFeature(cfg.grid, row, w).to_dict()}
            for split in SPLITS
            for region, row, w in zip(getattr(manifest, split), *features[split])
        ),
    )
    print(f"wrote {n} feature records to {args.out}")
    return EXIT_OK


def _load_records(path: Path) -> tuple[list[RegionAnnotation], list[str], FeatureGrid, np.ndarray]:
    """The regions and splits of a feature file's records, the file's grid
    and the records' feature values on it, one row per record. An error
    names the file and, for one record's fault, the record."""
    payload = read_json(path)
    check_keys(payload, None, f"feature file {path}", ("grid", "records"))
    try:
        grid = FeatureGrid.from_dict(payload["grid"])
    except ValueError as exc:
        raise ValueError(f"feature file {path}: {exc}") from None
    records = read_scalar(payload, "records", list, f"feature file {path}:")
    regions = []
    for i, rec in enumerate(records):
        check_keys(rec, None, f"feature file {path}: record {i}", ("split", "feature"))
        if rec["split"] not in SPLITS:
            raise ValueError(
                f"feature file {path}: record {i} has split {quote(rec['split'])};"
                f" expected one of: {', '.join(SPLITS)}"
            )
        try:
            regions.append(RegionAnnotation.from_dict(rec))
        except ValueError as exc:
            raise ValueError(f"feature file {path}: record {i}: {exc}") from None
    values = read_features([r["feature"] for r in records], grid, f"feature file {path}: record")
    return regions, [rec["split"] for rec in records], grid, values


def cmd_train(args) -> int:
    mlp_flags = _given(args, "hidden", "out_dim", "episodes", "lr")
    if args.embedder != KIND_MLP and mlp_flags:
        flags = ", ".join("--" + k.replace("_", "-") for k in mlp_flags)
        raise ValueError(f"{flags}: only used with --embedder mlp")
    regions, splits, grid, values = _load_records(Path(args.features))
    rows = {split: [i for i, s in enumerate(splits) if s == split] for split in SPLITS}
    try:
        manifest = DatasetManifest(*([regions[i] for i in rows[split]] for split in SPLITS))
    except ManifestError as exc:
        raise ManifestError(f"feature file {args.features}: {exc}") from None
    if not manifest.labeled:
        raise ValueError(f"feature file {args.features}: no labeled records")

    train_cfg = TrainConfig(**mlp_flags) if args.embedder == KIND_MLP else None
    vectors = {split: values[rows[split]] for split in SPLITS}
    emb, data = fit_splits(manifest, vectors, train_cfg, args.seed)
    digest = None
    if emb is not None:
        embedder_path = Path(str(args.out) + ".embedder.json")
        digest = hashlib.sha256(write_json(embedder_path, embedder_to_dict(emb))).hexdigest()
        print(f"wrote embedder to {embedder_path}")
    try:
        model = fit_model(data.labeled, data.unlabeled, args.mode, args.alpha, args.refine_iters)
    except DistanceOverflow as exc:  # a row of the unlabeled vectors, which refining scores
        raise ValueError(
            f"feature file {args.features}: record {rows['unlabeled'][exc.row]}:"
            " a squared distance to a center is not finite"
        ) from None
    write_json(Path(args.out), model_to_dict(model, grid, digest))
    print(
        f"wrote model to {args.out} (mode={args.mode}, alpha={model.alpha},"
        f" classes={model.n_classes}, dim={model.feature_dim})"
    )
    return EXIT_OK


def _predictions(regions: list, splits: list[str], post: Posterior) -> Iterator[dict]:
    """Each record's prediction: its region plus "split", "predicted" and
    "posterior" (the model's class objects with "distance" and "prob")."""
    classes = [c.to_dict() for c in post.classes]
    rows = zip(post.predicted, post.distances.tolist(), post.probs.tolist())
    for region, split, (pred, ds, ps) in zip(regions, splits, rows):
        scores = [{**c, "distance": d, "prob": p} for c, d, p in zip(classes, ds, ps)]
        yield {**region.to_dict(), "split": split, "predicted": pred.to_dict(), "posterior": scores}


def cmd_classify(args) -> int:
    model, model_grid, model_embedder = model_from_dict(read_json(args.model))
    regions, splits, grid, vectors = _load_records(Path(args.features))
    if grid != model_grid:
        raise ValueError(
            f"feature file {args.features} is on grid {grid}, but model {args.model}"
            f" was trained on grid {model_grid}"
        )
    # the embedder file's stamp is checked before the file is parsed or run
    data = None if args.embedder_file is None else Path(args.embedder_file).read_bytes()
    digest = None if data is None else hashlib.sha256(data).hexdigest()
    if digest != model_embedder:
        trained, given = "without an embedder", "no --embedder-file"
        if model_embedder is not None:
            trained = f"through the embedder with sha256 {model_embedder}"
        if digest is not None:
            given = f"--embedder-file {args.embedder_file} with sha256 {digest}"
        raise ValueError(f"model {args.model} was trained {trained}, but classify got {given}")
    if data is not None:
        vectors = embed_many(embedder_from_dict(read_json(args.embedder_file, data)), vectors)
    if vectors.shape[1] != model.feature_dim:
        source = f"embedder {args.embedder_file}" if args.embedder_file else "no --embedder-file"
        raise ValueError(
            f"model {args.model} takes {model.feature_dim}-wide vectors, but the features"
            f" with {source} are {vectors.shape[1]} wide"
        )
    n = write_lines(args.out, _predictions(regions, splits, posterior(vectors, model)))
    print(f"wrote {n} predictions to {args.out}")
    return EXIT_OK


def _eval_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = ExperimentConfig.from_dict(read_json(args.config))
    else:
        cfg = ExperimentConfig(synth=default_synth_config())
    return dataclasses.replace(cfg, **_given(args, "seed", "alpha", "repeats"))


def cmd_eval(args) -> int:
    if (args.sweep is None) != (args.values is None):
        raise ValueError("--sweep and --values must be given together")
    cfg = _eval_config(args)
    if cfg.repeats > 1 and args.sweep is not None:
        raise ValueError(f"--repeats {cfg.repeats} (flag or config) does not combine with --sweep")
    if args.mode not in (None, MODE_WEAK) and args.sweep is not None:
        raise ValueError(f"--mode {args.mode} does not combine with --sweep, which runs weak")
    out_dir = Path(args.out)

    def emit(name: str, report) -> None:
        write_json(out_dir / f"{name}.json", report_to_dict(report))
        write_text(out_dir / f"{name}.txt", report_table(report))

    if args.sweep is not None:
        values = [float(v) for v in args.values.split(",")]
        reports = sweep(cfg, args.sweep, values)
        for v, rep in zip(values, reports):
            tag = f"{v:g}".replace(".", "p").replace("-", "m")
            emit(f"report_sweep_{args.sweep}_{tag}", rep)
        table = sweep_table(args.sweep, values, reports)
        write_text(out_dir / f"sweep_{args.sweep}.txt", table)
        print(table)
        return EXIT_OK

    mode = args.mode or "both"
    runs = [  # per seed, the supervised and weak reports, or the one mode's report
        run_both(c) if mode == "both" else (run_experiment(c, mode),)
        for c in (dataclasses.replace(cfg, seed=cfg.seed + r) for r in range(cfg.repeats))
    ]
    for reports in runs:
        for rep in reports:
            emit(f"report_{rep.mode}" + (f"_seed{rep.seed}" if cfg.repeats > 1 else ""), rep)

    if cfg.repeats == 1:
        tables = [report_table(rep) for rep in runs[0]]
        if mode == "both":
            tables.append(compare_table(*runs[0]))
            write_text(out_dir / "compare.txt", tables[-1])
        print("\n".join(tables))
        return EXIT_OK

    accs = [np.array([rep.overall.acc_average for rep in col]) for col in zip(*runs)]
    if mode == "both":
        sup, weak = accs
        summary = (
            f"mean supervised {sup.mean():.4f}  mean weak {weak.mean():.4f}"
            f"  mean delta {weak.mean() - sup.mean():+.4f}"
            f"  weak >= supervised in {int((weak >= sup).sum())}/{len(runs)} seeds"
        )
    else:
        summary = f"mean overall accuracy over {len(runs)} seeds: {accs[0].mean():.3f}"
    write_text(out_dir / f"summary_{mode}.txt", summary)
    print(summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thermofault", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic thermal dataset")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--config", help="SynthConfig JSON path (default: built-in config)")
    p_synth.add_argument("--seed", type=int64, help="override the config seed")
    p_synth.set_defaults(run=cmd_synth)

    p_extract = sub.add_parser("extract", help="extract density features per region")
    p_extract.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p_extract.add_argument("--out", required=True, help="output feature file")
    p_extract.add_argument("--t-lo", type=float, default=DEFAULT_GRID.t_lo)
    p_extract.add_argument("--t-hi", type=float, default=DEFAULT_GRID.t_hi)
    p_extract.add_argument("--grid-points", type=int64, default=DEFAULT_GRID.n_points)
    p_extract.add_argument("--bandwidth", default="auto", help='"auto" or a positive float')
    p_extract.set_defaults(run=cmd_extract)

    p_train = sub.add_parser("train", help="build a prototype model from features")
    p_train.add_argument("--features", required=True)
    p_train.add_argument("--out", required=True, help="output model JSON")
    p_train.add_argument("--alpha", type=float, default=ExperimentConfig.alpha)
    p_train.add_argument("--mode", choices=[MODE_SUPERVISED, MODE_WEAK], default=MODE_WEAK)
    p_train.add_argument("--refine-iters", type=int64, default=ExperimentConfig.refine_iters)
    p_train.add_argument("--embedder", choices=EMBEDDER_KINDS, default=EMBEDDER_KINDS[0])
    p_train.add_argument("--hidden", type=int64)
    p_train.add_argument("--out-dim", type=int64)
    p_train.add_argument("--episodes", type=int64)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--seed", type=int64, default=ExperimentConfig.seed)
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
    p_eval.add_argument("--mode", choices=[MODE_SUPERVISED, MODE_WEAK, "both"])
    p_eval.add_argument("--seed", type=int64)
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--repeats", type=int64)
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
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:  # named by the request: numpy's own text may be empty
        request = sys.argv[1:] if argv is None else argv
        print("error: not enough memory for: thermofault", *request, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
