"""Command-line pipeline: world generation, training, evaluation, sweeps.

``anchorloc --help`` lists the commands and ``anchorloc COMMAND --help`` their flags.

Config files are INI text whose sections mirror the module types ([world],
[data], [network], [train], [loss]) and hold the keys commands read (not
``input_dim``: the data fixes it); ``[loss] alpha1 > 0`` turns cross-entropy
on. Flags override file values and the resolved configuration is snapshotted
into the output directory, so every run is reproducible from its snapshot.
A command runs with numpy's OpenBLAS at one thread, so the bytes it writes do
not depend on the thread count the process was given.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, astuple, fields

from . import data, evaluation, files, model, optim, simworld
from .errors import (AnchorLocError, DegenerateOrientationError, InvalidInputError,
                     InvalidSpecError, NonFinitePoseError, TrainingDivergenceError)
from .loss import LossWeights
from .model import NetworkSpec
from .optim import EpochStats, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3

# the sections that build a dataclass: their keys and defaults are its fields
_SECTIONS = {"network": NetworkSpec, "train": TrainConfig, "loss": LossWeights}


def _text(value) -> str:
    """A value as config text: a comma-joined tuple, else ``str``."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


_DEFAULTS = {
    "world": {
        "seed": str(simworld.DEFAULT_SEED),
        "n_train": str(simworld.DEFAULT_N_TRAIN),
        "n_test": str(simworld.DEFAULT_N_TEST),
        "noise_sigma": str(simworld.DEFAULT_NOISE_SIGMA),
    },
    "data": {
        "frame_interval": str(simworld.DEFAULT_FRAME_INTERVAL),
    },
    **{sec: {f.name: _text(f.default) for f in fields(cls) if f.default is not MISSING}
       for sec, cls in _SECTIONS.items()},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def load_config(path: str | None) -> dict[str, dict[str, str]]:
    cfg = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    if path:  # the keys are the defaults'
        for sec, vals in files.read_ini(path, cfg).items():
            cfg[sec].update(vals)
    return cfg


def _config(args) -> dict[str, dict[str, str]]:
    """``load_config(args.config)`` with every given flag whose dest is ``section.key`` applied."""
    cfg = load_config(args.config)
    for dest, val in vars(args).items():
        if "." in dest and val is not None:
            section, key = dest.split(".")
            cfg[section][key] = str(val)
    return cfg


def write_config_snapshot(path, cfg: dict[str, dict[str, str]]) -> None:
    files.write_ini(path, {sec: dict(sorted(cfg[sec].items())) for sec in sorted(cfg)})


def _value(cfg, section: str, key: str, convert):
    """``convert(cfg[section][key])``; a value it rejects is InvalidSpecError
    naming the section and key."""
    try:
        return convert(cfg[section][key])
    except ValueError as err:
        raise InvalidSpecError(f"[{section}] {key}: {err}") from None


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in text.split(",") if w.strip())


def _build(cfg, section: str, **given):
    """The section's dataclass from the values a command supplies plus every
    other field that has a default, read from ``cfg`` by the default's type."""
    for f in fields(_SECTIONS[section]):
        if f.name not in given and f.default is not MISSING:
            convert = _int_list if type(f.default) is tuple else type(f.default)
            given[f.name] = _value(cfg, section, f.name, convert)
    return _SECTIONS[section](**given)


def _train_config(cfg) -> TrainConfig:
    return _build(cfg, "train", weights=_build(cfg, "loss"))


def cmd_gen_world(args) -> int:
    if args.world_file and getattr(args, "world.seed") is not None:
        raise _UsageError("--seed cannot be combined with --world-file, whose world has its own")
    cfg = _config(args)
    n_train = _value(cfg, "world", "n_train", int)
    n_test = _value(cfg, "world", "n_test", int)
    if args.world_file:
        spec = simworld.load_world_spec(args.world_file)
        cfg["world"].update(seed=str(spec.seed), noise_sigma=str(spec.noise_sigma))
    else:
        spec = simworld.default_world(seed=_value(cfg, "world", "seed", int),
                                      noise_sigma=_value(cfg, "world", "noise_sigma", float))
    train, test = simworld.generate(spec, n_train, n_test)
    data.export_dataset(args.out, train, test)
    simworld.save_world_spec(os.path.join(args.out, "world.ini"), spec)
    write_config_snapshot(os.path.join(args.out, "config.ini"), cfg)
    print(f"wrote dataset ({n_train} train / {n_test} test) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.checkpoint_every < 0:
        raise _UsageError(f"--checkpoint-every must be >= 0, got {args.checkpoint_every}")
    cfg = _config(args)
    k = _value(cfg, "data", "frame_interval", int)
    scene = data.load_dataset_dir(args.data, k)  # validates inputs before any output
    spec = _build(cfg, "network", input_dim=scene.train.features.shape[1],
                  num_anchors=scene.num_anchors)
    train_cfg = _train_config(cfg)

    created = not os.path.exists(args.out)
    os.makedirs(args.out, exist_ok=True)
    log = []
    meta = {"frame_interval": k, "scene": os.path.basename(os.path.normpath(args.data))}

    def save(name, params, state, epoch):
        path = os.path.join(args.out, name)
        optim.save_training_checkpoint(path, spec, params, state, epoch=epoch, meta=meta)
        return path

    def on_epoch(stats, snapshot):
        log.append(astuple(stats))
        if args.checkpoint_every and (stats.epoch + 1) % args.checkpoint_every == 0:
            save(f"checkpoint_epoch{stats.epoch + 1:04d}.bin", *snapshot(), stats.epoch + 1)

    # the log appears only once training has finished, like the checkpoint; a
    # failed run leaves its periodic checkpoints, or no directory it created
    try:
        report = optim.train(scene.train, spec, train_cfg, epoch_callback=on_epoch)
        files.write_csv(os.path.join(args.out, "training_log.csv"),
                        [f.name for f in fields(EpochStats)], log)
    except BaseException:
        if created and not os.listdir(args.out):
            os.rmdir(args.out)
        raise

    ckpt = save("checkpoint.bin", report.params, report.adam_state, train_cfg.epochs)
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
    evaluation.write_eval_report(args.out, report)
    print(f"median_m={report.median_translation_m:.17g}")
    print(f"mean_m={report.mean_translation_m:.17g}")
    print(f"median_deg={report.median_rotation_deg:.17g}")
    print(f"accuracy={report.accuracy_2m_5deg:.17g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _config(args)
    if not args.k:
        raise _UsageError("--k needs at least one value")

    cfg["data"]["frame_interval"] = _text(args.k)  # the intervals this run trains
    train_poses, train_feats, test_poses, test_feats = data.load_dataset_files(args.data)
    spec_template = _build(cfg, "network", input_dim=train_feats.shape[1], num_anchors=1)
    train_cfg = _train_config(cfg)

    rows = evaluation.sweep_anchor_interval(train_poses, train_feats, test_poses,
                                            test_feats, args.k, spec_template,
                                            train_cfg)
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_sweep_csv(os.path.join(args.out, "sweep.csv"), rows)
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
    p.add_argument("--seed", dest="world.seed", metavar="SEED", type=int)
    p.add_argument("--world-file", default=None,
                   help="reuse an existing world spec instead of the default world")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("train", help="train the anchor model on a dataset directory")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", dest="network.seed", metavar="SEED", type=int)
    p.add_argument("--epochs", dest="train.epochs", metavar="EPOCHS", type=int)
    p.add_argument("--k", dest="data.frame_interval", metavar="K", type=int,
                   help="anchor frame interval")
    p.add_argument("--no-cross-entropy", dest="loss.alpha1", action="store_const",
                   const="0.0", help="set [loss] alpha1 to 0, turning the cross-entropy term off")
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
    p.add_argument("--k", required=True, type=_int_list, help="comma-separated interval list")
    p.add_argument("--seed", dest="network.seed", metavar="SEED", type=int)
    p.add_argument("--epochs", dest="train.epochs", metavar="EPOCHS", type=int)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with model.one_blas_thread():
            args = parser.parse_args(argv)
            return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergenceError, DegenerateOrientationError, NonFinitePoseError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (AnchorLocError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
