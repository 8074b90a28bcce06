import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorloc
from anchorloc import cli, data, evaluation, model, optim, simworld
from anchorloc.baseline import DirectSpec
from anchorloc.cli import (EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, _build,
                           _train_config, load_config, main, write_config_snapshot)
from anchorloc.errors import AnchorLocError, ParseError
from anchorloc.evaluation import EvalReport, SweepRow
from anchorloc.model import NetworkSpec
from anchorloc.optim import TrainConfig

from conftest import half_writes, make_pose, openblas_threads


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A small generated dataset shared across CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "ds"
    cfg = tmp_path_factory.mktemp("cli-cfg") / "small.ini"
    cfg.write_text("[world]\nn_train = 300\nn_test = 60\n\n[data]\nframe_interval = 30\n")
    rc = main(["gen-world", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    return out, cfg


class TestGenWorld:
    def test_outputs(self, dataset_dir):
        out, _ = dataset_dir
        for name in (data.POSES_TRAIN, data.POSES_TEST, data.FEATURES_TRAIN,
                     data.FEATURES_TEST, "config.ini", "world.ini"):
            assert (out / name).exists()

    def test_byte_identical_rerun(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        again = tmp_path / "again"
        assert main(["gen-world", "--config", str(cfg), "--out", str(again)]) == EXIT_OK
        for name in (data.POSES_TRAIN, data.POSES_TEST, data.FEATURES_TRAIN,
                     data.FEATURES_TEST, "world.ini"):
            assert (out / name).read_bytes() == (again / name).read_bytes()

    def test_zero_train_boundary(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[world]\nn_train = 0\nn_test = 10\n")
        out = tmp_path / "empty"
        assert main(["gen-world", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len(data.load_pose_file(out / data.POSES_TRAIN)) == 0
        assert len(data.load_pose_file(out / data.POSES_TEST)) == 10
        ids, feats = data.load_features(out / data.FEATURES_TRAIN)
        assert ids == [] and feats.shape[0] == 0

    def test_seed_with_a_world_file_is_a_usage_error(self, dataset_dir, tmp_path, capsys):
        out, cfg = dataset_dir
        gen = tmp_path / "gen"
        assert main(["gen-world", "--config", str(cfg), "--world-file", str(out / "world.ini"),
                     "--seed", "8", "--out", str(gen)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "--seed" in err and "--world-file" in err
        assert not gen.exists()

    def test_a_world_file_run_records_the_worlds_seed_and_noise(self, dataset_dir, tmp_path):
        out, _ = dataset_dir
        world = tmp_path / "world.ini"
        spec = simworld.load_world_spec(out / "world.ini")
        simworld.save_world_spec(world, replace(spec, seed=12, noise_sigma=0.125))
        own = tmp_path / "own.ini"
        own.write_text("[world]\nn_train = 30\nn_test = 10\nseed = 9\nnoise_sigma = 0.5\n")
        gen = tmp_path / "gen"
        assert main(["gen-world", "--config", str(own), "--world-file", str(world),
                     "--out", str(gen)]) == EXIT_OK
        snapshot = load_config(str(gen / "config.ini"))["world"]
        assert (snapshot["seed"], snapshot["noise_sigma"]) == ("12", "0.125")
        assert (gen / "world.ini").read_bytes() == world.read_bytes()

    def test_the_locale_does_not_change_what_is_read(self, dataset_dir, tiny_world, tmp_path):
        _, cfg = dataset_dir
        world = tmp_path / "world.ini"
        simworld.save_world_spec(world, replace(tiny_world, landmarks=(
            ("lmé", (6.0, 0.0)), ("路標", (0.0, 1.0)))))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.path.dirname(os.path.dirname(anchorloc.__file__)))
        gen = tmp_path / "gen"
        proc = subprocess.run([sys.executable, "-m", "anchorloc.cli", "gen-world", "--config",
                               str(cfg), "--world-file", str(world), "--out", str(gen)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (gen / "world.ini").read_bytes() == world.read_bytes()


@pytest.fixture(scope="module")
def trained_run(dataset_dir, tmp_path_factory):
    out, cfg = dataset_dir
    run = tmp_path_factory.mktemp("cli-run") / "run"
    rc = main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run),
               "--epochs", "3", "--no-cross-entropy"])
    assert rc == EXIT_OK
    return run


class TestTrain:
    def test_outputs(self, trained_run):
        assert (trained_run / "checkpoint.bin").exists()
        log = (trained_run / "training_log.csv").read_text().splitlines()
        assert log[0] == "epoch,lr,total,offset,absolute,ce"
        assert len(log) == 1 + 3  # header + one row per epoch

    def test_snapshot_reflects_flags(self, trained_run):
        snapshot = (trained_run / "config.ini").read_text()
        assert "alpha1 = 0.0" in snapshot
        assert "epochs = 3" in snapshot

    def test_one_epoch_is_fast_with_one_log_row(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        run = tmp_path / "one"
        start = time.time()
        rc = main(["train", "--config", str(cfg), "--data", str(out),
                   "--out", str(run), "--epochs", "1"])
        assert rc == EXIT_OK and time.time() - start < 10.0
        log = (run / "training_log.csv").read_text().splitlines()
        assert len(log) == 2  # header + one row

    def test_input_directory_not_mutated(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        def snapshot():
            return {p.name: p.read_bytes() for p in out.iterdir()}
        before = snapshot()
        assert main(["train", "--config", str(cfg), "--data", str(out),
                     "--out", str(tmp_path / "r"), "--epochs", "1"]) == EXIT_OK
        assert main(["eval", "--checkpoint", str(tmp_path / "r" / "checkpoint.bin"),
                     "--data", str(out), "--out", str(tmp_path / "e")]) == EXIT_OK
        assert snapshot() == before

    def test_missing_dataset_no_partial_outputs(self, tmp_path):
        out = tmp_path / "never"
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()

    def test_divergence_exit_code(self, dataset_dir, tmp_path, capsys):
        out, _ = dataset_dir
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nlr = 1e250\nepochs = 3\n\n"
                       "[loss]\nalpha2 = 1e280\n\n[data]\nframe_interval = 30\n")
        rc = main(["train", "--config", str(cfg), "--data", str(out),
                   "--out", str(tmp_path / "div")])
        assert rc == EXIT_DIVERGENCE
        assert "epoch" in capsys.readouterr().err
        assert not (tmp_path / "div" / "training_log.csv.tmp").exists()

    def test_non_finite_loss_exit_code(self, dataset_dir, tmp_path, capsys):
        # finite residuals times an alpha near the largest double overflow the total
        out, _ = dataset_dir
        cfg = tmp_path / "huge.ini"
        cfg.write_text("[loss]\nalpha2 = 1e308\n\n[data]\nframe_interval = 30\n")
        run = tmp_path / "div"
        rc = main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run),
                   "--epochs", "1"])
        assert rc == EXIT_DIVERGENCE
        assert capsys.readouterr().err == \
            "numerical failure: loss became non-finite (epoch 0, batch 0)\n"
        assert not run.exists()

    def test_resume_from_a_periodic_checkpoint_reproduces_the_run(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run),
                     "--epochs", "5", "--checkpoint-every", "2"]) == EXIT_OK
        assert sorted(p.name for p in run.glob("checkpoint_epoch*.bin")) == [
            "checkpoint_epoch0002.bin", "checkpoint_epoch0004.bin"]
        spec, params, state, epoch, meta = optim.load_training_checkpoint(
            run / "checkpoint_epoch0004.bin")
        assert epoch == 4 and state.t > 0
        snapshot = load_config(str(run / "config.ini"))
        scene = data.load_dataset_dir(out, int(snapshot["data"]["frame_interval"]))
        resumed = optim.train(scene.train, spec, _train_config(snapshot), init_params=params,
                              init_state=state, start_epoch=epoch)
        final = optim.load_training_checkpoint(run / "checkpoint.bin")[1]
        assert resumed.params.tobytes() == final.tobytes()

    def test_negative_checkpoint_interval_is_a_usage_error(self, dataset_dir, tmp_path, capsys):
        out, cfg = dataset_dir
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run),
                     "--epochs", "3", "--checkpoint-every", "-2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "--checkpoint-every" in err
        assert not run.exists()


class TestBlasThreads:
    def test_checkpoint_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # at k=1 the default world has about 2000 anchors; the logits head's
        # input gradient, a (32, N) @ (N, 48) product, is where OpenBLAS splits
        # the sums across threads when it may use more than one
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(anchorloc.__file__)))

        def run(threads, *argv):
            proc = subprocess.run([sys.executable, "-m", "anchorloc.cli", *argv],
                                  env=dict(env, OPENBLAS_NUM_THREADS=threads),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr

        run("1", "gen-world", "--out", str(tmp_path / "ds"))
        for threads in ("1", "2"):
            run(threads, "train", "--data", str(tmp_path / "ds"), "--out",
                str(tmp_path / threads), "--k", "1", "--epochs", "2")
        assert (tmp_path / "1" / "checkpoint.bin").read_bytes() == \
            (tmp_path / "2" / "checkpoint.bin").read_bytes()

    def test_a_command_runs_at_one_thread_and_restores_the_count(self, monkeypatch):
        get, put = openblas_threads()
        seen = []
        monkeypatch.setattr(cli, "cmd_gen_world", lambda args: seen.append(get()) or EXIT_OK)
        before = get()
        put(2)
        try:
            assert main(["gen-world", "--out", "unused"]) == EXIT_OK
            assert seen == [1] and get() == 2
        finally:
            put(before)


class TestSeedFlag:
    ARGS = {"gen-world": [], "train": ["--epochs", "1"],
            "sweep-anchors": ["--k", "30", "--epochs", "1"]}

    @pytest.mark.parametrize("command,section,outputs", [
        ("gen-world", "world", [data.POSES_TRAIN, data.FEATURES_TRAIN, "world.ini"]),
        ("train", "network", ["checkpoint.bin", "training_log.csv"]),
        ("sweep-anchors", "network", ["sweep.csv"])], ids=["gen-world", "train", "sweep-anchors"])
    def test_lands_in_the_snapshot_and_changes_the_outputs(self, dataset_dir, tmp_path,
                                                           command, section, outputs):
        out, cfg = dataset_dir
        data_arg = [] if command == "gen-world" else ["--data", str(out)]
        argv = [command, "--config", str(cfg), *data_arg, *self.ARGS[command]]
        default, seeded = tmp_path / "default", tmp_path / "seeded"
        assert main(argv + ["--out", str(default)]) == EXIT_OK
        assert main(argv + ["--out", str(seeded), "--seed", "11"]) == EXIT_OK
        assert load_config(str(default / "config.ini"))[section]["seed"] != "11"
        assert load_config(str(seeded / "config.ini"))[section]["seed"] == "11"
        for name in outputs:
            assert (default / name).read_bytes() != (seeded / name).read_bytes()


class TestOverrideFlag:
    @pytest.mark.parametrize("command,flags,text,section,key,value", [
        ("train", ["--epochs", "1", "--no-cross-entropy"], "[loss]\nalpha1 = 2.0\n",
         "loss", "alpha1", "0.0"),
        ("train", ["--epochs", "1", "--k", "60"], "", "data", "frame_interval", "60"),
        ("sweep-anchors", ["--k", "30", "--epochs", "1"], "[train]\nepochs = 5\n",
         "train", "epochs", "1")], ids=["train-no-cross-entropy", "train-k", "sweep-epochs"])
    def test_beats_a_different_config_value(self, dataset_dir, tmp_path, command, flags,
                                            text, section, key, value):
        out, cfg = dataset_dir
        own = tmp_path / "own.ini"
        own.write_text(f"{cfg.read_text()}\n{text}")
        assert load_config(str(own))[section][key] != value
        run = tmp_path / "run"
        assert main([command, "--config", str(own), "--data", str(out), "--out", str(run),
                     *flags]) == EXIT_OK
        assert load_config(str(run / "config.ini"))[section][key] == value
        if key == "alpha1":
            rows = (run / "training_log.csv").read_text().splitlines()[1:]
            assert rows and all(row.split(",")[-1] == "0" for row in rows)
        if key == "frame_interval":
            meta = optim.load_training_checkpoint(run / "checkpoint.bin")[4]
            assert (meta["frame_interval"], meta["scene"]) == (60, out.name)


class TestConfigValues:
    @pytest.mark.parametrize("section,key", [
        ("world", "n_train"), ("world", "seed"), ("world", "noise_sigma"),
        ("data", "frame_interval"), ("network", "hidden_layers"), ("network", "seed"),
        ("train", "lr"), ("train", "batch_size"), ("train", "epochs"),
        ("train", "lr_halving_period"), ("train", "shuffle_seed"), ("loss", "alpha2"),
        ("loss", "alpha1")])
    def test_bad_config_value_is_a_config_error(self, dataset_dir, tmp_path, capsys,
                                                section, key):
        out, _ = dataset_dir
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = abc\n")
        run = tmp_path / "run"
        if section == "world":
            rc = main(["gen-world", "--config", str(cfg), "--out", str(run)])
        else:
            rc = main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run)])
        assert rc == EXIT_DATA
        assert f"[{section}] {key}:" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("command,text,flags,message", [
        ("train", "[train]\nlr = nan\n", [], "lr must be finite and > 0, got nan"),
        ("train", "[train]\nlr = inf\n", [], "lr must be finite and > 0, got inf"),
        ("train", "", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("sweep-anchors", "", ["--k", "30", "--seed", "-1"], "seed must be >= 0, got -1"),
        ("train", "", ["--seed", str(2**64)], f"seed must be < 2**64, got {2**64}"),
        ("gen-world", "", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("gen-world", "", ["--seed", str(2**64)], f"seed must be < 2**64, got {2**64}"),
        ("train", "[train]\nshuffle_seed = -1\n", [], "shuffle_seed must be >= 0, got -1"),
        ("train", f"[train]\nshuffle_seed = {2**64}\n", [],
         f"shuffle_seed must be < 2**64, got {2**64}"),
        ("train", "[train]\nbatch_size = 0\n", [], "batch_size must be >= 1"),
        ("train", "[train]\nlr_halving_period = 0\n", [], "lr_halving_period must be >= 1"),
        ("train", "[train]\nepochs = -1\n", [], "epochs must be >= 0")],
        ids=["lr-nan", "lr-inf", "train-seed", "sweep-seed", "train-seed-2**64", "world-seed",
             "world-seed-2**64", "shuffle-seed", "shuffle-seed-2**64", "batch-size-0",
             "lr-halving-period-0", "negative-epochs"])
    def test_out_of_range_value_is_a_config_error(self, dataset_dir, tmp_path, capsys,
                                                  command, text, flags, message):
        out, cfg = dataset_dir
        own = tmp_path / "own.ini"
        own.write_text(f"{cfg.read_text()}\n{text}")
        run = tmp_path / "run"
        data_arg = [] if command == "gen-world" else ["--data", str(out)]
        rc = main([command, "--config", str(own), *data_arg, "--out", str(run), *flags])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not run.exists()

    def test_defaults_are_the_library_defaults(self):
        cfg = load_config(None)
        assert _train_config(cfg) == TrainConfig()
        spec = _build(cfg, "network", input_dim=5, num_anchors=3)
        assert spec == NetworkSpec(input_dim=5, num_anchors=3)
        trunk = {k: v for k, v in vars(spec).items() if k != "num_anchors"}
        assert vars(DirectSpec(input_dim=5)) == trunk

    @pytest.mark.parametrize("alpha1", ["0.0", "0", "2.0", "1e-3"])
    def test_cross_entropy_is_on_exactly_when_alpha1_is_positive(self, dataset_dir, tmp_path,
                                                                 alpha1):
        out, cfg = dataset_dir
        ce_cfg = tmp_path / "ce.ini"
        ce_cfg.write_text(cfg.read_text() + f"\n[loss]\nalpha1 = {alpha1}\n")
        run = tmp_path / "run"
        assert main(["train", "--config", str(ce_cfg), "--data", str(out), "--out", str(run),
                     "--epochs", "1"]) == EXIT_OK
        log = (run / "training_log.csv").read_text().splitlines()
        assert (float(log[1].split(",")[5]) != 0.0) == (float(alpha1) > 0)  # the ce column
        assert f"alpha1 = {alpha1}\n" in (run / "config.ini").read_text()

    @pytest.mark.parametrize("text", [b"[world\nn_train = 10\n", b"\xff[world]\nn_train = 10\n"],
                             ids=["section-not-closed", "not-utf8"])
    def test_malformed_config_file_is_a_config_error(self, dataset_dir, tmp_path, capsys, text):
        out, _ = dataset_dir
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text)
        run = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run)])
        assert rc == EXIT_DATA
        assert str(cfg) in capsys.readouterr().err
        assert not run.exists()

    def test_a_line_without_a_key_is_one_error_line(self, dataset_dir, tmp_path, capsys):
        out, cfg = dataset_dir
        own = tmp_path / "own.ini"
        own.write_text("[train]\nepochs = 1\ngarbage\n")
        run = tmp_path / "run"
        rc = main(["train", "--config", str(own), "--data", str(out), "--out", str(run)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{own}, line 3" in err
        assert not run.exists()

    @pytest.mark.parametrize("text,named", [
        ("[train]\nlearning_rate = 5\n", "[train] learning_rate"),
        ("[train]\nepoch = 1\n", "[train] epoch"),
        ("[trian]\nepochs = 1\n", "[trian]"),
        ("[train]\nweights = whatever\n", "[train] weights"),
        ("[network]\nnum_anchors = 999\n", "[network] num_anchors"),
        ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
        ("[network]\ninput_dim = 99\n", "unknown key [network] input_dim"),
        ("[loss]\nuse_cross_entropy = true\n", "unknown key [loss] use_cross_entropy")],
        ids=["key", "key-near-a-field", "section", "train-weights", "network-num_anchors",
             "default-section", "network-input_dim", "loss-use_cross_entropy"])
    def test_unknown_key_or_section_is_a_config_error(self, dataset_dir, tmp_path, capsys,
                                                      text, named):
        out, cfg = dataset_dir
        own = tmp_path / "own.ini"
        own.write_text(f"{cfg.read_text()}\n{text}")
        run = tmp_path / "run"
        rc = main(["train", "--config", str(own), "--data", str(out), "--out", str(run)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not run.exists()

    @pytest.mark.parametrize("which", ["gen-world", "train"])
    def test_a_runs_snapshot_loads_as_its_config(self, dataset_dir, trained_run, tmp_path,
                                                 which):
        out, _ = dataset_dir
        snapshot = {"gen-world": out, "train": trained_run}[which] / "config.ini"
        assert main(["train", "--config", str(snapshot), "--data", str(out),
                     "--out", str(tmp_path / "run"), "--epochs", "1"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["gen-world", "train", "sweep-anchors"])
    def test_missing_config_file_is_a_config_error(self, dataset_dir, tmp_path, capsys,
                                                   command):
        out, _ = dataset_dir
        extra = {"gen-world": [], "train": ["--data", str(out)],
                 "sweep-anchors": ["--data", str(out), "--k", "30"]}[command]
        run = tmp_path / "run"
        rc = main([command, "--config", str(tmp_path / "nope.ini"), "--out", str(run), *extra])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nope.ini" in err
        assert not run.exists()


class TestEval:
    def test_eval_outputs(self, dataset_dir, trained_run, tmp_path, capsys):
        out, _ = dataset_dir
        ev = tmp_path / "ev"
        rc = main(["eval", "--checkpoint", str(trained_run / "checkpoint.bin"),
                   "--data", str(out), "--out", str(ev)])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert printed.startswith("median_m=")
        rows = (ev / "eval_per_sample.csv").read_text().splitlines()
        n_test = len(data.load_pose_file(out / data.POSES_TEST))
        assert len(rows) == 1 + n_test

    def test_anchor_count_mismatch(self, dataset_dir, trained_run, tmp_path, capsys):
        out, _ = dataset_dir
        other = tmp_path / "other"
        cfg = tmp_path / "c.ini"
        cfg.write_text("[world]\nn_train = 200\nn_test = 20\nseed = 9\n")
        assert main(["gen-world", "--config", str(cfg), "--out", str(other)]) == EXIT_OK
        rc = main(["eval", "--checkpoint", str(trained_run / "checkpoint.bin"),
                   "--data", str(other), "--out", str(tmp_path / "ev2")])
        assert rc == EXIT_DATA
        assert "anchors" in capsys.readouterr().err

    def test_weighted_report_matches_evaluate(self, dataset_dir, trained_run, tmp_path):
        out, _ = dataset_dir
        ckpt = trained_run / "checkpoint.bin"
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(ev), "--weighted"]) == EXIT_OK
        spec, params, _, _, meta = optim.load_training_checkpoint(ckpt)
        scene = data.load_dataset_dir(out, meta["frame_interval"])
        expected = evaluation.evaluate(spec, params, scene.test, scene.anchor_map,
                                       mode="weighted")
        assert json.loads((ev / "eval_report.json").read_text()) == expected.to_dict()

    @pytest.mark.parametrize("entry", [0, 5, -1], ids=["first", "sixth", "last"])
    def test_overflowing_parameter_is_a_numerical_error(self, dataset_dir, trained_run,
                                                        tmp_path, capsys, entry):
        # the raw orientation's squared norm overflows: no warning, exit 3
        out, _ = dataset_dir
        spec, params, state, epoch, meta = optim.load_training_checkpoint(
            trained_run / "checkpoint.bin")
        params[entry] = 1e300
        ckpt = tmp_path / "checkpoint.bin"
        optim.save_training_checkpoint(ckpt, spec, params, state, epoch, meta=meta)
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(ev)]) == EXIT_DIVERGENCE
        assert "raw orientation norm" in capsys.readouterr().err
        assert not ev.exists()

    @staticmethod
    def eval_short_of_the_spec(dataset_dir, trained_run, tmp_path, capsys, missing):
        """``eval`` of the trained checkpoint with its last ``missing``
        parameters (and Adam moments) cut off exits 2 and says so."""
        out, _ = dataset_dir
        spec, params, state, epoch, meta = optim.load_training_checkpoint(
            trained_run / "checkpoint.bin")
        short = optim.AdamState(m=state.m[:-missing], v=state.v[:-missing], t=state.t)
        ckpt = tmp_path / "checkpoint.bin"
        optim.save_training_checkpoint(ckpt, spec, params[:-missing], short, epoch, meta=meta)
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(ev)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"each of shape [{params.size}], the spec's parameter count" in err
        assert not ev.exists()

    def test_parameters_short_of_the_spec_are_a_data_error(self, dataset_dir, trained_run,
                                                            tmp_path, capsys):
        self.eval_short_of_the_spec(dataset_dir, trained_run, tmp_path, capsys, missing=1)

    def test_parameters_short_by_whole_layers_are_a_data_error(self, dataset_dir, trained_run,
                                                                tmp_path, capsys):
        # the cut reaches into the weight matrices, so no layer view fits
        self.eval_short_of_the_spec(dataset_dir, trained_run, tmp_path, capsys, missing=1000)


def _byte_set(offset, value):
    return lambda raw: raw[:offset] + value + raw[offset + 1:]


def _key_renamed(key):
    return lambda raw: raw.replace(b'"%s"' % key, b'"!%s"' % key[1:], 1)


def _nested_header(depth):
    """A checkpoint whose whole JSON header is ``depth`` opening brackets."""
    return lambda raw: raw[:8] + depth.to_bytes(4, "little") + b"[" * depth


def _zero_rows_of_dim(dim):
    """A feature file whose header claims 0 rows of dimension ``dim``."""
    return lambda raw: raw[:8] + (0).to_bytes(8, "little") + dim.to_bytes(8, "little") + raw[24:]


def _relaid(edit):
    """A checkpoint laid out again after ``edit(header, blocks)`` changed its
    JSON header and its list of per-array byte blocks in place."""
    def relay(raw):
        hlen = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + hlen])
        body = raw[12 + hlen:]
        size = len(body) // len(header["arrays"])
        blocks = [body[i:i + size] for i in range(0, len(body), size)]
        edit(header, blocks)
        hbytes = json.dumps(header).encode()
        return raw[:8] + len(hbytes).to_bytes(4, "little") + hbytes + b"".join(blocks)
    return relay


def _shape_set(shape):
    """Declares ``shape`` for all three arrays, with no bytes for them."""
    def edit(header, blocks):
        for entry in header["arrays"]:
            entry["shape"] = shape
        blocks.clear()
    return _relaid(edit)


class TestTruncatedFiles:
    DAMAGE = {
        "cut": lambda raw: raw[:-100],
        "cut-in-header": lambda raw: raw[:20],
        "trailing": lambda raw: raw + b"\0",
        # the first byte of the first frame id (after the 24-byte header
        # and the id's u32 length)
        "id-not-utf8": _byte_set(28, b"\xff"),
        # the checkpoint's JSON header starts at byte 12 with "{"
        "header-not-json": _byte_set(12, b"["),
        "header-not-utf8": _byte_set(13, b"\xff"),
        "no-spec": _key_renamed(b"spec"),
        "no-arrays": _key_renamed(b"arrays"),
        "no-shape": _key_renamed(b"shape"),
        "header-nested-too-deep": _nested_header(10**5),
        "first-byte-not-utf8": _byte_set(0, b"\xff"),
        "zero-rows-dim-2**63": _zero_rows_of_dim(2**63),
        "zero-rows-dim-2**62": _zero_rows_of_dim(2**62),
        # products that wrap to 0 in int64, and a zero-size shape numpy cannot hold
        "shape-2**32x2**32": _shape_set([2**32, 2**32]),
        "shape-2**62x4": _shape_set([2**62, 4]),
        "shape-2**62x0": _shape_set([2**62, 0]),
    }

    @classmethod
    def damaged(cls, path, how):
        path.write_bytes(cls.DAMAGE[how](path.read_bytes()))

    @pytest.mark.parametrize("how", ["cut", "cut-in-header", "trailing", "id-not-utf8",
                                     "zero-rows-dim-2**63", "zero-rows-dim-2**62"])
    def test_feature_file(self, dataset_dir, tmp_path, how):
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        self.damaged(bad / data.FEATURES_TRAIN, how)
        with pytest.raises(ParseError, match=data.FEATURES_TRAIN):
            data.load_features(bad / data.FEATURES_TRAIN)
        assert main(["train", "--config", str(cfg), "--data", str(bad),
                     "--out", str(tmp_path / "run"), "--epochs", "1"]) == EXIT_DATA

    def test_pose_file(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        self.damaged(bad / data.POSES_TRAIN, "first-byte-not-utf8")
        with pytest.raises(ParseError, match=data.POSES_TRAIN):
            data.load_pose_file(bad / data.POSES_TRAIN)
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(bad),
                     "--out", str(run), "--epochs", "1"]) == EXIT_DATA
        assert not run.exists()

    def test_world_file(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        world = tmp_path / "world.ini"
        shutil.copyfile(out / "world.ini", world)
        self.damaged(world, "first-byte-not-utf8")
        with pytest.raises(ParseError, match="world.ini"):
            simworld.load_world_spec(world)
        gen = tmp_path / "gen"
        assert main(["gen-world", "--config", str(cfg), "--world-file", str(world),
                     "--out", str(gen)]) == EXIT_DATA
        assert not gen.exists()

    @pytest.mark.parametrize("how", ["cut", "cut-in-header", "trailing", "header-not-json",
                                     "header-not-utf8", "no-spec", "no-arrays", "no-shape",
                                     "header-nested-too-deep", "shape-2**32x2**32",
                                     "shape-2**62x4", "shape-2**62x0"])
    def test_checkpoint(self, dataset_dir, trained_run, tmp_path, how):
        out, _ = dataset_dir
        ckpt = tmp_path / "checkpoint.bin"
        shutil.copyfile(trained_run / "checkpoint.bin", ckpt)
        self.damaged(ckpt, how)
        with pytest.raises(ParseError, match="checkpoint.bin"):
            optim.load_training_checkpoint(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(tmp_path / "ev")]) == EXIT_DATA


class TestFilePreamble:
    """A binary file with another magic, or of another format version, exits 2
    with one line naming the file and what its preamble holds."""

    @pytest.mark.parametrize("offset,value,message", [
        (0, b"X", "not a checkpoint (bad magic)"),
        (4, b"\x02", "unsupported checkpoint version 2")], ids=["magic", "version-2"])
    def test_checkpoint(self, dataset_dir, trained_run, tmp_path, capsys, offset, value,
                        message):
        out, _ = dataset_dir
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes(_byte_set(offset, value)((trained_run / "checkpoint.bin").read_bytes()))
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(ev)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"
        assert not ev.exists()

    @pytest.mark.parametrize("offset,value,message", [
        (0, b"X", "not a feature file (bad magic)"),
        (4, b"\x02", "unsupported feature file version 2")], ids=["magic", "version-2"])
    def test_feature_file(self, dataset_dir, tmp_path, capsys, offset, value, message):
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        feats = bad / data.FEATURES_TRAIN
        feats.write_bytes(_byte_set(offset, value)(feats.read_bytes()))
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(bad), "--out", str(run),
                     "--epochs", "1"]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {feats}: {message}\n"
        assert not run.exists()


def _meta_set(key, value):
    return lambda header, blocks: header["meta"].__setitem__(key, value)


def _spec_set(key, value):
    return lambda header, blocks: header["spec"].__setitem__(key, value)


def _dropped(*keys):
    """Removes the meta keys or the arrays (header entry and bytes) ``keys``."""
    def edit(header, blocks):
        for key in keys:
            if key in header["meta"]:
                del header["meta"][key]
            else:
                i = [e["name"] for e in header["arrays"]].index(key)
                del header["arrays"][i], blocks[i]
    return edit


def _adam_v_short(header, blocks):
    header["arrays"][2]["shape"][0] -= 1
    blocks[2] = blocks[2][8:]


def _arrays_short_of_the_spec(header, blocks):
    """All three arrays one entry short: a file consistent with itself."""
    for i, entry in enumerate(header["arrays"]):
        entry["shape"][0] -= 1
        blocks[i] = blocks[i][8:]


def _extra_array(header, blocks):
    header["arrays"].append({"name": "extra", "shape": header["arrays"][0]["shape"]})
    blocks.append(blocks[0])


def _arrays_reordered(header, blocks):
    """``adam_m`` first, then ``params``: a file that names each array right."""
    arrays = header["arrays"]
    arrays[0], arrays[1], blocks[0], blocks[1] = arrays[1], arrays[0], blocks[1], blocks[0]


class TestCheckpointMeta:
    EDITS = {
        "adam_t-text": _meta_set("adam_t", "seven"),
        "adam_t-float": _meta_set("adam_t", 7.0),
        "frame_interval-list": _meta_set("frame_interval", [1]),
        "frame_interval-bool": _meta_set("frame_interval", True),
        "epoch-null": _meta_set("epoch", None),
        "epoch-text": _meta_set("epoch", "3"),
        "no-epoch": _dropped("epoch"),
        "no-adam_t": _dropped("adam_t"),
        "no-adam_m": _dropped("adam_m"),
        "no-adam_v": _dropped("adam_v"),
        "no-adam_m-or-adam_v": _dropped("adam_m", "adam_v"),
        "adam_v-short": _adam_v_short,
        "arrays-short-of-the-spec": _arrays_short_of_the_spec,
        "extra-array": _extra_array,
        "arrays-reordered": _arrays_reordered,
        "negative-seed": lambda header, blocks: header["spec"].__setitem__("seed", -1),
        "seed-2**64": _spec_set("seed", 2**64),
        "input_dim-fraction": _spec_set("input_dim", 12.5),
        "width-fraction": _spec_set("hidden_layers", [48.5, 48]),
        "spec-without-activation": lambda header, blocks: header["spec"].pop("activation"),
        "meta-list": lambda header, blocks: header.__setitem__("meta", [3, 0]),
    }

    @pytest.mark.parametrize("how", EDITS)
    def test_is_a_data_error(self, dataset_dir, trained_run, tmp_path, capsys, how):
        out, _ = dataset_dir
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes(_relaid(self.EDITS[how])((trained_run / "checkpoint.bin").read_bytes()))
        with pytest.raises(ParseError, match="checkpoint.bin"):
            optim.load_training_checkpoint(ckpt)
        ev = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(ev)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "checkpoint.bin" in err
        assert not ev.exists()


def _last_offsets_bias(spec):
    # the layer table of the indices gives each entry's index; the offsets head
    # follows the trunk layers and the logits head
    table = model._layer_table(spec, np.arange(model.param_count(spec), dtype=float))
    return int(table[len(spec.hidden_layers) + 1][1][-1])


class TestNonFiniteCheckpoint:
    EDITS = {  # (array, index of the entry in the spec, value)
        "trunk-weight-nan": ("params", lambda spec: 0, np.nan),
        "last-offsets-bias-nan": ("params", _last_offsets_bias, np.nan),
        "adam_m-inf": ("adam_m", lambda spec: 3, np.inf),
        "adam_v-minus-inf": ("adam_v", lambda spec: model.param_count(spec) - 1, -np.inf),
    }

    @pytest.mark.parametrize("how", EDITS)
    def test_is_a_data_error_naming_the_entry(self, dataset_dir, trained_run, tmp_path, capsys,
                                              how):
        out, _ = dataset_dir
        array, entry, value = self.EDITS[how]
        spec, params, state, epoch, meta = optim.load_training_checkpoint(
            trained_run / "checkpoint.bin")
        index = entry(spec)
        {"params": params, "adam_m": state.m, "adam_v": state.v}[array][index] = value
        ckpt = tmp_path / "checkpoint.bin"
        optim.save_training_checkpoint(ckpt, spec, params, state, epoch, meta)
        named = f"{array}[{index}] is {value}, not finite"
        with pytest.raises(ParseError, match=re.escape(named)):
            optim.load_training_checkpoint(ckpt)
        ev = tmp_path / "ev"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(ev)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "checkpoint.bin" in err and named in err
        assert not ev.exists()


class TestNonFinitePose:
    @pytest.mark.parametrize("mode", ["argmax", "weighted"])
    def test_eval_is_a_numerical_failure_with_no_report(self, dataset_dir, trained_run,
                                                        tmp_path, capsys, mode):
        # offsets-head weights and biases of 1e308 are finite, and every
        # reconstructed position overflows
        out, _ = dataset_dir
        spec, params, state, epoch, meta = optim.load_training_checkpoint(
            trained_run / "checkpoint.bin")
        for a in model._layer_table(spec, params)[len(spec.hidden_layers) + 1]:
            a[...] = 1e308
        ckpt = tmp_path / "checkpoint.bin"
        optim.save_training_checkpoint(ckpt, spec, params, state, epoch, meta)
        ev = tmp_path / "ev"
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(out), "--out", str(ev)]
        assert main(argv + (["--weighted"] if mode == "weighted" else [])) == EXIT_DIVERGENCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: translation error of test row 0 is ")
        assert captured.err.count("\n") == 1
        assert not ev.exists()


class TestPoseFileErrors:
    """A pose-file error names the file and the line, as a world.ini error does."""

    @pytest.mark.parametrize("name, line, edit, message", [
        (data.POSES_TRAIN, 4, lambda fields: fields[:2] + ["nan"] + fields[3:],
         "pose components must be finite"),
        (data.POSES_TEST, 3, lambda fields: fields[:-1],
         "expected 8 whitespace-separated fields, got 7")],
        ids=["train-nan", "test-short"])
    def test_train_names_the_file_and_line(self, dataset_dir, tmp_path, capsys, name, line,
                                           edit, message):
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        path = bad / name
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = " ".join(edit(lines[line - 1].split())) + "\n"
        path.write_text("".join(lines))
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(bad), "--out", str(run),
                     "--epochs", "1"]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {path}, line {line}: {message}\n"
        assert not run.exists()


class TestFrameIdMismatch:
    """A split whose feature file does not list its pose file's frames exits 2
    naming both files, and the first row that differs or the two counts."""

    @pytest.mark.parametrize("edit, message", [
        (lambda ids, feats: ([*ids[:3], ids[4], ids[3], *ids[5:]], feats),
         "row 3 is frame 't00003', but row 3 of {feats} is 't00004'"),
        (lambda ids, feats: (ids[:-1], feats[:-1]), "300 frames, but {feats} holds 299")],
        ids=["swapped-id", "count"])
    def test_is_a_data_error(self, dataset_dir, tmp_path, capsys, edit, message):
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        feats = bad / data.FEATURES_TRAIN
        data.save_features(feats, *edit(*data.load_features(feats)))
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(bad), "--out", str(run),
                     "--epochs", "1"]) == EXIT_DATA
        poses = bad / data.POSES_TRAIN
        assert capsys.readouterr().err == f"error: {poses}: {message.format(feats=feats)}\n"
        assert not run.exists()


class TestNonFiniteFeatures:
    def test_nan_feature_is_a_data_error(self, dataset_dir, tmp_path, capsys):
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        ids, feats = data.load_features(bad / data.FEATURES_TRAIN)
        feats[5, 3] = float("nan")
        data.save_features(bad / data.FEATURES_TRAIN, ids, feats)
        run = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(bad),
                     "--out", str(run), "--epochs", "1"]) == EXIT_DATA
        assert ids[5] in capsys.readouterr().err
        assert not run.exists()

    @staticmethod
    def huge_feature_dir(dataset_dir, tmp_path):
        """A copy of the dataset with one training feature at 1e300: finite,
        but training on it overflows."""
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        ids, feats = data.load_features(bad / data.FEATURES_TRAIN)
        feats[5, 3] = 1e300
        data.save_features(bad / data.FEATURES_TRAIN, ids, feats)
        return bad, cfg

    def test_huge_feature_is_a_numerical_error(self, dataset_dir, tmp_path, capsys):
        # no warning, exit 3
        bad, cfg = self.huge_feature_dir(dataset_dir, tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--data", str(bad),
                     "--out", str(tmp_path / "run"), "--epochs", "1"]) == EXIT_DIVERGENCE
        assert "epoch 0" in capsys.readouterr().err

    def test_numerical_error_removes_only_the_directory_it_created(self, dataset_dir,
                                                                   tmp_path):
        # like a data error, which exits before any output, but a directory
        # that was there before the run stays
        bad, cfg = self.huge_feature_dir(dataset_dir, tmp_path)
        run, kept = tmp_path / "run", tmp_path / "kept"
        kept.mkdir()
        for out in (run, kept):
            assert main(["train", "--config", str(cfg), "--data", str(bad),
                         "--out", str(out), "--epochs", "1"]) == EXIT_DIVERGENCE
        assert not run.exists()
        assert kept.is_dir() and not any(kept.iterdir())


class TestNonFiniteWorldSpec:
    @pytest.mark.parametrize("pattern,value,field", [
        (r"^lateral_jitter = .*$", "lateral_jitter = inf", "lateral_jitter"),
        (r"^lateral_jitter = .*$", "lateral_jitter = nan", "lateral_jitter"),
        (r"^heading_jitter_deg = .*$", "heading_jitter_deg = nan", "heading_jitter_deg"),
        (r"^lateral_jitter = .*$", "lateral_jitter = 1e308", "lateral_jitter"),
        (r"^heading_jitter_deg = .*$", "heading_jitter_deg = 1e308", "heading_jitter_deg"),
        (r"^lateral_jitter = .*$", "lateral_jitter = -0.1", "lateral_jitter"),
        (r"^noise_sigma = .*$", "noise_sigma = inf", "noise_sigma"),
        (r"^(landmarks = [^:]+:)[^,]+", r"\1nan", "landmark 'lm00'"),
        (r"^(obstacles = )[^,]+", r"\1nan", "obstacle 0")],
        ids=["jitter-inf", "jitter-nan", "heading-nan", "jitter-range-overflows",
             "heading-range-overflows", "jitter-negative", "noise-inf", "landmark-nan",
             "obstacle-nan"])
    def test_is_a_data_error(self, dataset_dir, tmp_path, capsys, pattern, value, field):
        out, cfg = dataset_dir
        world = tmp_path / "world.ini"
        text, edits = re.subn(pattern, value, (out / "world.ini").read_text(), flags=re.M)
        assert edits == 1
        world.write_text(text)
        gen = tmp_path / "gen"
        assert main(["gen-world", "--config", str(cfg), "--world-file", str(world),
                     "--out", str(gen)]) == EXIT_DATA
        assert f"{field} " in capsys.readouterr().err
        assert not gen.exists()


class TestNegativeNoise:
    @pytest.mark.parametrize("field", ["noise_sigma", "z_noise_amp"])
    def test_in_a_world_file_is_a_data_error(self, dataset_dir, tmp_path, capsys, field):
        out, cfg = dataset_dir
        world = tmp_path / "world.ini"
        text, edits = re.subn(rf"^{field} = .*$", f"{field} = -0.02",
                              (out / "world.ini").read_text(), flags=re.M)
        assert edits == 1
        world.write_text(text)
        gen = tmp_path / "gen"
        assert main(["gen-world", "--config", str(cfg), "--world-file", str(world),
                     "--out", str(gen)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(world) in err
        assert err.endswith(f"{field} must be >= 0, got -0.02\n")
        assert not gen.exists()

    def test_in_a_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "neg.ini"
        cfg.write_text("[world]\nn_train = 50\nn_test = 10\nnoise_sigma = -0.02\n")
        gen = tmp_path / "gen"
        assert main(["gen-world", "--config", str(cfg), "--out", str(gen)]) == EXIT_DATA
        assert capsys.readouterr().err == "error: noise_sigma must be >= 0, got -0.02\n"
        assert not gen.exists()


class TestWorldFileSyntax:
    """world.ini goes through the --config reader: a [world] header, and only
    the keys a world spec holds, each once."""

    @pytest.mark.parametrize("edit,named", [
        (lambda text: text + "fov_half_angel = 10\n", "unknown key [world] fov_half_angel"),
        (lambda text: text + "seed = 8\n", "line {end}: malformed (DuplicateOptionError)"),
        (lambda text: text + "garbage\n", "line {end}: malformed (ParsingError)"),
        (lambda text: text.replace("[world]\n", ""),
         "line 1: malformed (MissingSectionHeaderError)"),
        (lambda text: text + "[extra]\nx = 1\n", "unknown section [extra]"),
        (lambda text: text + "[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
        (lambda text: text.replace("seed = 7\n", "seed = -1\n"), "seed must be >= 0, got -1")],
        ids=["unknown-key", "duplicate-key", "no-equals-sign", "no-header", "unknown-section",
             "default-section", "negative-seed"])
    def test_is_a_data_error(self, dataset_dir, tmp_path, capsys, edit, named):
        out, cfg = dataset_dir
        text = (out / "world.ini").read_text()
        world = tmp_path / "world.ini"
        world.write_text(edit(text))
        gen = tmp_path / "gen"
        assert main(["gen-world", "--config", str(cfg), "--world-file", str(world),
                     "--out", str(gen)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(world) in err and named.format(end=len(text.splitlines()) + 1) in err
        assert not gen.exists()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "ds"
    cfg = out.parent / "small.ini"
    cfg.write_text("[world]\nn_train = 40\nn_test = 10\n\n[data]\nframe_interval = 10\n")
    assert main(["gen-world", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return out, cfg


@pytest.fixture(scope="module")
def small_checkpoint(small_dataset, tmp_path_factory):
    out, cfg = small_dataset
    run = tmp_path_factory.mktemp("fuzz-run") / "run"
    assert main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run),
                 "--epochs", "1"]) == EXIT_OK
    return run / "checkpoint.bin"


# every section train reads, with values small enough that any damaged
# variant trains in well under a second
SMALL_TRAIN_CONFIG = (b"[data]\nframe_interval = 10\n\n[network]\nhidden_layers = 8\n"
                      b"activation = tanh\nseed = 3\n\n[train]\nlr = 0.001\nbatch_size = 16\n"
                      b"epochs = 2\n\n[loss]\nalpha1 = 2.0\nalpha2 = 10.0\n")

_BYTE = st.sampled_from(b"\n\r\t #-+.,;:=_e0159") | st.integers(0, 255)


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """``raw`` cut short, or with one byte replaced by another value."""
    at = draw(st.integers(0, len(raw) - 1))
    if draw(st.booleans()):
        return raw[:at]
    return raw[:at] + bytes([draw(_BYTE.filter(lambda v: v != raw[at]))]) + raw[at + 1:]


class TestFuzzedFiles:
    """Only package errors may escape the pose, world, feature, checkpoint and
    config loaders, and the CLI turns them into exit 2 without writing output."""

    @settings(max_examples=100, deadline=None)
    @given(fuzz=st.data())
    def test_pose_file(self, small_dataset, tmp_path_factory, fuzz):
        out, cfg = small_dataset
        bad = tmp_path_factory.mktemp("fuzz-poses") / "ds"
        shutil.copytree(out, bad)
        (bad / data.POSES_TRAIN).write_bytes(fuzz.draw(damaged((out / data.POSES_TRAIN).read_bytes())))
        try:
            data.load_pose_file(bad / data.POSES_TRAIN)
            parsed = True
        except AnchorLocError:
            parsed = False
        run = bad.parent / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(bad), "--out", str(run),
                   "--epochs", "1"])
        if parsed:
            assert rc in (EXIT_OK, EXIT_DATA, EXIT_DIVERGENCE)
        else:
            assert rc == EXIT_DATA and not run.exists()

    @settings(max_examples=100, deadline=None)
    @given(fuzz=st.data())
    def test_world_file(self, small_dataset, tmp_path_factory, fuzz):
        out, cfg = small_dataset
        world = tmp_path_factory.mktemp("fuzz-world") / "world.ini"
        world.write_bytes(fuzz.draw(damaged((out / "world.ini").read_bytes())))
        try:
            simworld.load_world_spec(world)
            parsed = True
        except AnchorLocError:
            parsed = False
        gen = world.parent / "gen"
        rc = main(["gen-world", "--config", str(cfg), "--world-file", str(world),
                   "--out", str(gen)])
        if parsed:
            assert rc in (EXIT_OK, EXIT_DATA)
        else:
            assert rc == EXIT_DATA and not gen.exists()

    @settings(max_examples=100, deadline=None)
    @given(fuzz=st.data())
    def test_feature_file(self, small_dataset, tmp_path_factory, fuzz):
        out, cfg = small_dataset
        bad = tmp_path_factory.mktemp("fuzz-features") / "ds"
        shutil.copytree(out, bad)
        raw = (out / data.FEATURES_TRAIN).read_bytes()
        (bad / data.FEATURES_TRAIN).write_bytes(fuzz.draw(damaged(raw)))
        try:
            data.load_features(bad / data.FEATURES_TRAIN)
            parsed = True
        except AnchorLocError:
            parsed = False
        run = bad.parent / "run"
        argv = ["train", "--config", str(cfg), "--data", str(bad), "--out", str(run),
                "--epochs", "1"]
        if parsed:
            assert main(argv) in (EXIT_OK, EXIT_DATA, EXIT_DIVERGENCE)
        else:
            assert main(argv) == EXIT_DATA and not run.exists()

    @settings(max_examples=100, deadline=None)
    @given(fuzz=st.data())
    def test_checkpoint(self, small_dataset, small_checkpoint, tmp_path_factory, fuzz):
        out, _ = small_dataset
        ckpt = tmp_path_factory.mktemp("fuzz-ckpt") / "checkpoint.bin"
        ckpt.write_bytes(fuzz.draw(damaged(small_checkpoint.read_bytes())))
        try:
            optim.load_training_checkpoint(ckpt)
            parsed = True
        except AnchorLocError:
            parsed = False
        ev = ckpt.parent / "ev"
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(out), "--out", str(ev)]
        if parsed:
            assert main(argv) in (EXIT_OK, EXIT_DATA, EXIT_DIVERGENCE)
        else:
            assert main(argv) == EXIT_DATA and not ev.exists()

    @settings(max_examples=100, deadline=None)
    @given(fuzz=st.data())
    def test_config_file(self, small_dataset, tmp_path_factory, fuzz):
        out, _ = small_dataset
        cfg = tmp_path_factory.mktemp("fuzz-config") / "config.ini"
        cfg.write_bytes(fuzz.draw(damaged(SMALL_TRAIN_CONFIG)))
        try:
            load_config(str(cfg))
            parsed = True
        except AnchorLocError:
            parsed = False
        run = cfg.parent / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(out), "--out", str(run)])
        if parsed:
            assert rc in (EXIT_OK, EXIT_DATA, EXIT_DIVERGENCE)
        else:
            assert rc == EXIT_DATA and not run.exists()


class TestFailedWrites:
    """Every artifact is written whole or not at all: a write that fails midway
    leaves the previous file as it was, and no temporary file."""

    @pytest.mark.parametrize("write", [
        lambda out, v: write_config_snapshot(out / "config.ini", {"train": {"epochs": str(v)}}),
        lambda out, v: simworld.save_world_spec(out / "world.ini", simworld.WorldSpec(
            route=[[0.0, 0.0], [1.0, v]], landmarks=(("lmé", (0.5, v)),))),
        lambda out, v: data.save_pose_file(out / data.POSES_TRAIN,
                                           data.PoseTable.of(["f0"], [make_pose(v, 0.0)])),
        lambda out, v: data.save_features(out / data.FEATURES_TRAIN, ["f0"], np.full((1, 3), v)),
        lambda out, v: evaluation.write_eval_report(out, EvalReport(v, v, v, v, [(v, v, 0, 1)])),
        lambda out, v: evaluation.write_sweep_csv(out / "sweep.csv", [SweepRow(1, 2, v, v, v)]),
        lambda out, v: evaluation.write_sweep_svg(out / "sweep.svg", [SweepRow(1, 2, v, v, v)])],
        ids=["snapshot", "world-ini", "pose-file", "feature-file", "eval-report", "sweep-csv",
             "sweep-svg"])
    def test_leaves_the_previous_file(self, tmp_path, write):
        write(tmp_path, 1.0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with half_writes(), pytest.raises(OSError):
            write(tmp_path, 2.0)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestSweep:
    def test_matches_train_eval_composition(self, dataset_dir, tmp_path, capsys):
        out, cfg = dataset_dir
        sw = tmp_path / "sw"
        rc = main(["sweep-anchors", "--config", str(cfg), "--data", str(out),
                   "--out", str(sw), "--k", "30", "--epochs", "3"])
        assert rc == EXIT_OK
        capsys.readouterr()

        run = tmp_path / "cmp"
        assert main(["train", "--config", str(cfg), "--data", str(out),
                     "--out", str(run), "--epochs", "3", "--k", "30"]) == EXIT_OK
        ev = tmp_path / "cmp-ev"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--data", str(out), "--out", str(ev)]) == EXIT_OK
        printed = {line.split("=")[0]: float(line.split("=")[1])
                   for line in capsys.readouterr().out.splitlines()
                   if "=" in line and not line.startswith(("checkpoint", "final"))}
        csv = (sw / "sweep.csv").read_text().splitlines()
        _, _, median_m, _, accuracy = csv[1].split(",")
        assert float(median_m) == printed["median_m"]
        assert float(accuracy) == printed["accuracy"]

    def test_csv_and_plot_written_and_deterministic(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep-anchors", "--config", str(cfg), "--data", str(out),
                "--k", "20,40", "--epochs", "2"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "sweep.svg").read_bytes() == (b / "sweep.svg").read_bytes()
        assert len((a / "sweep.csv").read_text().splitlines()) == 3

    def test_snapshot_records_the_intervals_it_trained(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        sw = tmp_path / "sw"
        assert main(["sweep-anchors", "--config", str(cfg), "--data", str(out),
                     "--out", str(sw), "--k", "20,40", "--epochs", "1"]) == EXIT_OK
        assert load_config(str(sw / "config.ini"))["data"]["frame_interval"] == "20,40"

    def test_misaligned_frame_ids_rejected(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        for split in (data.POSES_TRAIN, data.POSES_TEST):
            bad = tmp_path / f"bad-{split}"
            shutil.copytree(out, bad)
            poses = bad / split
            poses.write_text("".join(reversed(poses.read_text().splitlines(keepends=True))))
            sw = tmp_path / f"sw-{split}"
            rc = main(["sweep-anchors", "--config", str(cfg), "--data", str(bad),
                       "--out", str(sw), "--k", "100", "--epochs", "1"])
            assert rc == EXIT_DATA
            assert not sw.exists()

    def test_bad_k_list(self, dataset_dir, tmp_path):
        out, _ = dataset_dir
        assert main(["sweep-anchors", "--data", str(out), "--out", str(tmp_path / "sw"),
                     "--k", "abc"]) == EXIT_USAGE

    def test_k_list_without_a_value(self, dataset_dir, tmp_path, capsys):
        out, _ = dataset_dir
        sw = tmp_path / "sw"
        assert main(["sweep-anchors", "--data", str(out), "--out", str(sw),
                     "--k", ","]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --k needs at least one value\n"
        assert not sw.exists()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "run")]) == EXIT_USAGE
