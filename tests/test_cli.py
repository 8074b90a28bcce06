import json
import shutil
import time

import pytest

from anchorloc import data, evaluation, model, optim, simworld
from anchorloc.cli import EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, EXIT_USAGE, main
from anchorloc.errors import ParseError


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
        assert data.load_pose_file(out / data.POSES_TRAIN) == []
        assert len(data.load_pose_file(out / data.POSES_TEST)) == 10
        ids, feats = data.load_features(out / data.FEATURES_TRAIN)
        assert ids == [] and feats.shape[0] == 0


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
        assert "use_cross_entropy = false" in snapshot
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


class TestConfigValues:
    @pytest.mark.parametrize("section,key", [
        ("world", "n_train"), ("world", "seed"), ("world", "noise_sigma"),
        ("data", "frame_interval"), ("network", "hidden_layers"), ("network", "seed"),
        ("train", "lr"), ("train", "batch_size"), ("train", "epochs"),
        ("train", "lr_halving_period"), ("train", "shuffle_seed"), ("loss", "alpha2")])
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


def _byte_set(offset, value):
    return lambda raw: raw[:offset] + value + raw[offset + 1:]


def _key_renamed(key):
    return lambda raw: raw.replace(b'"%s"' % key, b'"!%s"' % key[1:], 1)


def _nested_header(depth):
    """A checkpoint whose whole JSON header is ``depth`` opening brackets."""
    return lambda raw: raw[:8] + depth.to_bytes(4, "little") + b"[" * depth


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
    }

    @classmethod
    def damaged(cls, path, how):
        path.write_bytes(cls.DAMAGE[how](path.read_bytes()))

    @pytest.mark.parametrize("how", ["cut", "cut-in-header", "trailing", "id-not-utf8"])
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
                                     "header-nested-too-deep"])
    def test_checkpoint(self, dataset_dir, trained_run, tmp_path, how):
        out, _ = dataset_dir
        ckpt = tmp_path / "checkpoint.bin"
        shutil.copyfile(trained_run / "checkpoint.bin", ckpt)
        self.damaged(ckpt, how)
        with pytest.raises(ParseError, match="checkpoint.bin"):
            model.load_checkpoint(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(out),
                     "--out", str(tmp_path / "ev")]) == EXIT_DATA


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

    def test_misaligned_frame_ids_rejected(self, dataset_dir, tmp_path):
        out, cfg = dataset_dir
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        poses = bad / data.POSES_TRAIN
        poses.write_text("".join(reversed(poses.read_text().splitlines(keepends=True))))
        sw = tmp_path / "sw"
        rc = main(["sweep-anchors", "--config", str(cfg), "--data", str(bad),
                   "--out", str(sw), "--k", "100", "--epochs", "1"])
        assert rc == EXIT_DATA
        assert not sw.exists()

    def test_bad_k_list(self, dataset_dir):
        out, _ = dataset_dir
        assert main(["sweep-anchors", "--data", str(out), "--out", "/tmp/x",
                     "--k", "abc"]) == EXIT_USAGE


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["train", "--out", "/tmp/x"]) == EXIT_USAGE
