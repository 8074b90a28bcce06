"""Command-line pipeline: world generation, training, evaluation, sweeps.

Commands::

    anchorloc gen-world     --out DIR [--config FILE] [--seed S]
    anchorloc train         --data DIR --out DIR [--config FILE] [--seed S]
                            [--no-cross-entropy]
    anchorloc eval          --checkpoint FILE --data DIR --out DIR
    anchorloc sweep-anchors --data DIR --out DIR --k 1,5,10,20 [--config FILE]

Config files are INI text with sections mirroring the module types
([world], [data], [network], [train], [loss]); command-line flags override
file values and the fully resolved configuration is snapshotted into the
output directory, so every run is reproducible from its snapshot alone.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical
divergence.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import data, evaluation, optim, simworld
from .errors import (AnchorLocError, DegenerateOrientationError, InvalidInputError,
                     InvalidSpecError, TrainingDivergenceError)
from .loss import LossWeights
from .model import NetworkSpec
from .optim import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3

_DEFAULTS = {
    "world": {
        "seed": "7",
        "n_train": str(simworld.DEFAULT_N_TRAIN),
        "n_test": str(simworld.DEFAULT_N_TEST),
        "noise_sigma": "0.02",
    },
    "data": {
        "frame_interval": str(simworld.DEFAULT_FRAME_INTERVAL),
    },
    "network": {
        "hidden_layers": "48,48",
        "activation": "relu",
        "seed": "1",
    },
    "train": {
        "lr": "0.0003",
        "batch_size": "32",
        "epochs": "120",
        "lr_halving_period": "30",
        "shuffle_seed": "2",
    },
    "loss": {
        "alpha1": "2.0",
        "alpha2": "10.0",
        "alpha3": "1.0",
        "use_cross_entropy": "false",
    },
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def load_config(path: str | None) -> dict[str, dict[str, str]]:
    cfg = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    if path:
        if not os.path.isfile(path):
            raise InvalidInputError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read(path)
            for sec in parser.sections():
                cfg.setdefault(sec, {})
                for key, val in parser.items(sec):
                    cfg[sec][key] = val
        except (configparser.Error, UnicodeDecodeError) as err:
            raise InvalidSpecError(f"malformed config file {path}: {err}") from None
    return cfg


def write_config_snapshot(path, cfg: dict[str, dict[str, str]]) -> None:
    lines = []
    for sec in sorted(cfg):
        lines.append(f"[{sec}]")
        for key in sorted(cfg[sec]):
            lines.append(f"{key} = {cfg[sec][key]}")
        lines.append("")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))


def _value(cfg, section: str, key: str, convert):
    """``convert(cfg[section][key])``; a value it rejects is InvalidSpecError
    naming the section and key."""
    try:
        return convert(cfg[section][key])
    except ValueError as err:
        raise InvalidSpecError(f"[{section}] {key}: {err}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in text.split(",") if w.strip())


def _network_spec(cfg, num_anchors: int) -> NetworkSpec:
    return NetworkSpec(input_dim=_value(cfg, "network", "input_dim", int),
                       hidden_layers=_value(cfg, "network", "hidden_layers", _int_list),
                       num_anchors=num_anchors, activation=cfg["network"]["activation"],
                       seed=_value(cfg, "network", "seed", int))


def _loss_weights(cfg) -> LossWeights:
    use_ce = cfg["loss"]["use_cross_entropy"].lower() in ("1", "true", "yes")
    return LossWeights(alpha1=_value(cfg, "loss", "alpha1", float),
                       alpha2=_value(cfg, "loss", "alpha2", float),
                       alpha3=_value(cfg, "loss", "alpha3", float), use_cross_entropy=use_ce)


def _train_config(cfg) -> TrainConfig:
    return TrainConfig(lr=_value(cfg, "train", "lr", float),
                       batch_size=_value(cfg, "train", "batch_size", int),
                       epochs=_value(cfg, "train", "epochs", int),
                       lr_halving_period=_value(cfg, "train", "lr_halving_period", int),
                       shuffle_seed=_value(cfg, "train", "shuffle_seed", int),
                       weights=_loss_weights(cfg))


def cmd_gen_world(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["world"]["seed"] = str(args.seed)
    n_train = _value(cfg, "world", "n_train", int)
    n_test = _value(cfg, "world", "n_test", int)
    if args.world_file:
        spec = simworld.load_world_spec(args.world_file)
    else:
        spec = simworld.default_world(seed=_value(cfg, "world", "seed", int),
                                      noise_sigma=_value(cfg, "world", "noise_sigma", float))
    train, test = simworld.generate(spec, n_train, n_test)
    os.makedirs(args.out, exist_ok=True)
    data.export_dataset(args.out, train, test)
    simworld.save_world_spec(os.path.join(args.out, "world.ini"), spec)
    write_config_snapshot(os.path.join(args.out, "config.ini"), cfg)
    print(f"wrote dataset ({n_train} train / {n_test} test) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["network"]["seed"] = str(args.seed)
    if args.epochs is not None:
        cfg["train"]["epochs"] = str(args.epochs)
    if args.no_cross_entropy:
        cfg["loss"]["use_cross_entropy"] = "false"
    if args.k is not None:
        cfg["data"]["frame_interval"] = str(args.k)

    k = _value(cfg, "data", "frame_interval", int)
    scene = data.load_dataset_dir(args.data, k)  # validates inputs before any output
    cfg.setdefault("network", {})["input_dim"] = str(scene.train.features.shape[1])

    spec = _network_spec(cfg, scene.num_anchors)
    train_cfg = _train_config(cfg)

    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "training_log.csv")
    log_tmp = f"{log_path}.tmp"

    def on_epoch(stats, params, state):
        log.write(f"{stats.epoch},{stats.lr:.17g},{stats.total:.17g},"
                  f"{stats.offset:.17g},{stats.absolute:.17g},{stats.ce:.17g}\n")
        if args.checkpoint_every and (stats.epoch + 1) % args.checkpoint_every == 0:
            optim.save_training_checkpoint(
                os.path.join(args.out, f"checkpoint_epoch{stats.epoch + 1:04d}.bin"),
                spec, params, state, epoch=stats.epoch + 1,
                meta={"frame_interval": k, "scene": scene.name})

    # the log appears only once training has finished, like the checkpoint
    try:
        with open(log_tmp, "w", newline="\n") as log:
            log.write("epoch,lr,total,offset,absolute,ce\n")
            report = optim.train(scene.train, spec, train_cfg, epoch_callback=on_epoch)
        os.replace(log_tmp, log_path)
    except BaseException:
        if os.path.exists(log_tmp):
            os.remove(log_tmp)
        raise

    ckpt = os.path.join(args.out, "checkpoint.bin")
    optim.save_training_checkpoint(ckpt, spec, report.params, report.adam_state,
                                   epoch=train_cfg.epochs,
                                   meta={"frame_interval": k, "scene": scene.name})
    write_config_snapshot(os.path.join(args.out, "config.ini"), cfg)
    if report.epochs:
        print(f"final_epoch_loss={report.epochs[-1].total:.6g}")
    print(f"checkpoint={ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    spec, params, _, _, meta = optim.load_training_checkpoint(args.checkpoint)
    k = meta.get("frame_interval", simworld.DEFAULT_FRAME_INTERVAL)
    scene = data.load_dataset_dir(args.data, k)
    if scene.num_anchors != spec.num_anchors:
        raise InvalidInputError(
            f"checkpoint was trained with {spec.num_anchors} anchors but this "
            f"dataset yields {scene.num_anchors} at interval {k}; regenerate or retrain")
    mode = "weighted" if args.weighted else "argmax"
    report = evaluation.evaluate(spec, params, scene.test, scene.anchor_map, mode=mode)
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_eval_report(args.out, report)
    print(f"median_m={report.median_translation_m:.17g}")
    print(f"mean_m={report.mean_translation_m:.17g}")
    print(f"median_deg={report.median_rotation_deg:.17g}")
    print(f"accuracy={report.accuracy_2m_5deg:.17g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["network"]["seed"] = str(args.seed)
    if args.epochs is not None:
        cfg["train"]["epochs"] = str(args.epochs)
    try:
        k_values = [int(v) for v in args.k.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"bad --k list: {args.k!r}")
    if not k_values:
        raise _UsageError("--k needs at least one value")

    train_poses, train_feats, test_poses, test_feats = data.load_dataset_files(args.data)

    cfg.setdefault("network", {})["input_dim"] = str(train_feats.shape[1])
    spec_template = _network_spec(cfg, num_anchors=1)
    train_cfg = _train_config(cfg)

    rows = evaluation.sweep_anchor_interval(train_poses, train_feats, test_poses,
                                            test_feats, k_values, spec_template,
                                            train_cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    evaluation.write_sweep_csv(csv_path, rows)
    evaluation.write_sweep_svg(os.path.join(args.out, "sweep.svg"), rows)
    write_config_snapshot(os.path.join(args.out, "config.ini"), cfg)
    for row in rows:
        print(f"k={row.k} N={row.num_anchors} median_m={row.median_m:.6g} "
              f"accuracy={row.accuracy:.6g}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="anchorloc",
                     description="Anchor-point visual relocalization pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="generate a synthetic dataset directory")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--world-file", default=None,
                   help="reuse an existing world spec instead of the default world")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("train", help="train the anchor model on a dataset directory")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="anchor frame interval")
    p.add_argument("--no-cross-entropy", action="store_true")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="also write a checkpoint every N epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weighted", action="store_true",
                   help="confidence-weighted reconstruction instead of argmax")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-anchors", help="train/evaluate across frame intervals")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", required=True, help="comma-separated interval list")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergenceError, DegenerateOrientationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (AnchorLocError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
