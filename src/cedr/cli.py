"""Command-line surface: gen-data, train, ablate, eval, analyze.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .autodiff import AutodiffError
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    field_name,
    load_config,
)
from .data import (
    PerturbationConfig,
    build_dataset,
    default_shape_specs,
    read_dataset,
    stack_points,
    write_dataset,
)
from .encoder import EncoderConfig, PointEncoder
from .metrics import (
    center_distance_report,
    evaluate,
    export_embeddings,
    write_center_distance_csv,
    write_confusion_csv,
    write_entropy_csv,
    write_json,
)
from .train import (
    NumericFailure,
    ablation_variants,
    encode_split,
    lambda_grid_variants,
    run_variants,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

PERTURB_PRESETS = {"default": PerturbationConfig,
                   "moderate": PerturbationConfig.moderate,
                   "none": PerturbationConfig.none}


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        seeds = []
    if not seeds:
        raise ConfigError(f"--seeds '{text}' selects no seed; "
                          "expected LO..HI with LO <= HI or a list of integers")
    repeated = [s for s, count in Counter(seeds).items() if count > 1]
    if repeated:
        raise ConfigError(f"--seeds '{text}' repeats seed {repeated[0]}")
    return seeds


def _load_experiment(args, own: dict[str, str]) -> ExperimentConfig:
    """The config file, then the --set options. `own` maps each key the
    command sets itself to the reason a --set of it is refused; train sets
    those keys from its option of the same name."""
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for kv in args.set or []:
        key, eq, raw = kv.partition("=")
        name = field_name(key.strip())
        if name in own:
            raise ConfigError(f"config key '{key}' {own[name]}")
        if not eq:
            raise ConfigError(f"config key '{key}': --set expects KEY=VALUE")
        if any(field_name(k) == field_name(key) for k in overrides):
            raise ConfigError(f"config key '{key}' is set twice by --set")
        overrides[key] = raw
    for name in own:
        if getattr(args, name, None) is not None:
            overrides[name] = str(getattr(args, name))
    apply_overrides(config, overrides)
    return config.validate()


def model_from_checkpoint(path) -> PointEncoder:
    tensors = load_checkpoint(path)

    def width(name):
        shape = tensors[name].shape
        if len(shape) != 2 or shape[1] < 1:
            raise ConfigError(f"checkpoint {path}: '{name}' has shape {shape}, "
                              "expected a matrix with at least one column")
        return shape[1]

    hidden = []
    while f"point{len(hidden)}.w" in tensors:
        hidden.append(width(f"point{len(hidden)}.w"))
    if not hidden or "cls.w" not in tensors:
        raise ConfigError(f"checkpoint {path} does not describe an encoder")
    config = EncoderConfig(num_classes=width("cls.w"), hidden_dims=hidden)
    try:
        return PointEncoder(config, state=tensors)
    except ValueError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None


def _encode_test_split(args):
    """Probabilities, embeddings and labels of the --data test split under the
    --checkpoint model, and the class names."""
    model = model_from_checkpoint(args.checkpoint)
    dataset = read_dataset(args.data)
    if model.config.num_classes != len(dataset.class_names):
        raise ConfigError(
            f"checkpoint {args.checkpoint} has {model.config.num_classes} "
            f"classes, dataset {args.data} has {len(dataset.class_names)}")
    if len(dataset.class_names) < 2:
        # the same rule as train's, checked before anything is written
        raise ConfigError(f"{args.command} needs at least 2 classes, "
                          f"dataset {args.data} has {len(dataset.class_names)}")
    pts, labels = stack_points(dataset.test)
    probs, emb = encode_split(model, pts, f"checkpoint {args.checkpoint} on "
                              f"{args.data} overflows on test sample")
    return probs, emb, labels, dataset.class_names


def cmd_gen_data(args) -> int:
    specs = default_shape_specs()
    if not 2 <= args.classes <= len(specs):
        raise ConfigError(f"--classes must be in 2..{len(specs)}, "
                          f"got {args.classes}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    specs = specs[:args.classes]
    split = build_dataset(specs, args.train, args.test, args.seed,
                          PERTURB_PRESETS[args.perturb](), n_points=args.points)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    train_path, test_path = write_dataset(split, args.out)
    print(f"wrote {len(split.train)} train samples to {train_path}")
    print(f"wrote {len(split.test)} test samples to {test_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_experiment(args, {
        name: f"is set by both --set and --{name}"
        for name in ("arm", "seed") if getattr(args, name) is not None})
    dataset = read_dataset(config.data)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{config.arm}_seed{config.seed}"
    record, model = train(config, dataset)
    save_checkpoint(out_dir / f"{tag}.ckpt", model.params)
    record.save(out_dir / f"{tag}.json")
    print(f"{tag}: overall_acc={record.final['overall_acc']:.4f} "
          f"avg_class_acc={record.final['avg_class_acc']:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    # each run's seed comes from --seeds, and its arm from the arm list unless
    # --lambda-grid is given; a --set of either would be overridden silently
    own = {"seed": "cannot be set for ablate; pick the seeds with --seeds"}
    if not args.lambda_grid:
        own["arm"] = ("cannot be set for ablate, which trains every arm; add "
                      "--lambda-grid to sweep the balance coefficient on one "
                      "arm")
    config = _load_experiment(args, own)
    seeds = _parse_seeds(args.seeds)
    dataset = read_dataset(config.data)
    out = Path(args.out)
    if out.is_dir():
        raise ConfigError(f"--out {out} is a directory, not a CSV file")
    # every run's config is validated here, so a refused one leaves no
    # directory behind
    variants = (lambda_grid_variants(config, seeds) if args.lambda_grid
                else ablation_variants(config, seeds))
    out.parent.mkdir(parents=True, exist_ok=True)
    progress = (lambda row: print(
        f"{row['variant']} seed {row['seed']}: "
        f"overall_acc={row['overall_acc']:.4f}")) if not args.quiet else None
    run_variants(variants, dataset, progress).write_csv(out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    probs, _, labels, _ = _encode_test_split(args)
    report = evaluate(probs, labels)
    for key, value in report.summary().items():
        print(f"{key} = {value:.6f}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    probs, emb, labels, class_names = _encode_test_split(args)
    report = evaluate(probs, labels)
    dist = center_distance_report(emb, labels, len(class_names))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_confusion_csv(out_dir / "confusion.csv", report.confusion, class_names)
    write_center_distance_csv(out_dir / "center_distance.csv", dist, class_names)
    write_entropy_csv(out_dir / "entropy.csv", probs, labels)
    export_embeddings(out_dir / "embeddings.csv", emb, probs, labels)
    write_json(out_dir / "summary.json", report.json_summary())
    print(f"wrote analysis artifacts to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedr",
        description="Contrastive embedding refinement experiments on "
                    "synthetic point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--train", type=int, default=50, help="samples per class")
    p.add_argument("--test", type=int, default=20, help="samples per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--perturb", choices=PERTURB_PRESETS, default="default",
                   help="perturbation preset")
    p.add_argument("--out", required=True, help="base path for the file pair")
    p.set_defaults(func=cmd_gen_data)

    for name, fn in (("train", cmd_train), ("ablate", cmd_ablate)):
        # ablate takes no --seed, which argparse would abbreviate to --seeds
        p = sub.add_parser(name, allow_abbrev=(name == "train"))
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")
        if name == "train":
            p.add_argument("--arm")
            p.add_argument("--seed", type=int)
        else:
            p.add_argument("--seeds", default="0..4")
            p.add_argument("--lambda-grid", action="store_true",
                           help="sweep the balance coefficient instead of arms")
            p.add_argument("--out", default="ablation.csv")
            p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="emit CSV analysis artifacts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericFailure, FloatingPointError, AutodiffError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
