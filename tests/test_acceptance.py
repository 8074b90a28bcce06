"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The heavyweight artifacts (benchmark world, trained models, interval sweep)
are session fixtures shared across criteria, all with frozen seeds:
world seed 7, network seed 1, shuffle seed 2 for the headline models;
network seed 5, shuffle seed 7, 40 epochs at one BLAS thread for the interval
sweep.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from anchorloc import baseline, data, evaluation, model, optim, simworld
from anchorloc.baseline import DirectSpec
from anchorloc.errors import UndefinedRateError
from anchorloc.geometry import AnchorMap, Pose
from anchorloc.loss import (LossWeights, _softmax, absolute_term, batch_total_loss,
                            confidences, cross_entropy_term, offset_term)
from anchorloc.model import BatchPrediction, NetworkSpec
from anchorloc.optim import TrainConfig
from anchorloc.simworld import segments_intersect

from conftest import nearest_label, prediction_grads, random_unit_quat

HIDDEN = (48, 48)
NET_SEED = 1
SHUFFLE_SEED = 2
EPOCHS = 120
SWEEP_NET_SEED = 5
SWEEP_SHUFFLE_SEED = 7
SWEEP_EPOCHS = 40
SWEEP_KS = [1, 5, 10, 20]
# sha256 of the headline models' parameter bytes at these seeds; a change that
# re-freezes the README tables edits them and says why. Last re-frozen when
# Adam took Kingma & Ba's efficient form, which rounds its update differently.
ANCHOR_PARAMS_SHA256 = "8c0744b96a840ff43e65c508009445a1f187531c925774a209cf7347879fd2a6"
DIRECT_PARAMS_SHA256 = "cb305de5a0f6bd3e2d6ceefed62f0dd389828d467cdbbb23fd90934e3187711d"
# the same for each sweep leg by k, trained at one BLAS thread: how OpenBLAS
# splits the sums of the k=1 leg's logits-head input gradient depends on the
# thread count. k=1 (297,221 parameters) and k=5 (62,021) are the runs Adam
# steps in blocks.
SWEEP_PARAMS_SHA256 = {
    1: "5374a969d1e8ef3f822ff449a29521f47f3631b82053e2be547edddadceb7459",
    5: "0f0ee3a201cfa24924ebacc0e7575725e1f43c59e571a460b37d658bf31f1b8b",
    10: "697148da786b6df658a9ec9b2dc533812ea4afcd0f8801b93800c80a2aeb87ad",
    20: "0a02e0697d3c1166f1564f87d9e7791f2b23f0eecc0e340ed615916e5fc206dd",
}


def verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert ok, line


# --- shared heavyweight fixtures -------------------------------------------------

@pytest.fixture(scope="session")
def world():
    return simworld.default_world()


@pytest.fixture(scope="session")
def splits(world):
    return simworld.generate(world, simworld.DEFAULT_N_TRAIN, simworld.DEFAULT_N_TEST)


@pytest.fixture(scope="session")
def scene(splits):
    train, test = splits
    return data.from_simworld(train, test, k=simworld.DEFAULT_FRAME_INTERVAL)


@pytest.fixture(scope="session")
def net_spec(scene):
    return NetworkSpec(input_dim=scene.train.features.shape[1], hidden_layers=HIDDEN,
                       num_anchors=scene.num_anchors, seed=NET_SEED)


@pytest.fixture(scope="session")
def trained(scene, net_spec):
    cfg = TrainConfig(epochs=EPOCHS, shuffle_seed=SHUFFLE_SEED, weights=LossWeights())
    start = time.time()
    report = optim.train(scene.train, net_spec, cfg)
    return report, time.time() - start


@pytest.fixture(scope="session")
def trained_direct(scene):
    spec = DirectSpec(input_dim=scene.train.features.shape[1], hidden_layers=HIDDEN,
                      seed=NET_SEED)
    cfg = TrainConfig(epochs=EPOCHS, shuffle_seed=SHUFFLE_SEED, weights=LossWeights())
    report = baseline.train_direct(scene.train, spec, cfg)
    return spec, report


def sweep_inputs_of(splits):
    train, test = splits
    train_poses = data.PoseTable([f"t{i:05d}" for i in range(len(train))], train.positions,
                                 train.orientations)
    test_poses = data.PoseTable([f"e{i:05d}" for i in range(len(test))], test.positions,
                                test.orientations)
    return train_poses, train.features, test_poses, test.features


@pytest.fixture(scope="session")
def sweep_inputs(splits):
    return sweep_inputs_of(splits)


def run_sweep(sweep_inputs):
    """The sweep's rows at one BLAS thread, and the sha256 of each leg's
    trained parameters by k, recorded as the sweep trains them."""
    train_poses, tf, test_poses, ef = sweep_inputs
    tpl = NetworkSpec(input_dim=tf.shape[1], hidden_layers=HIDDEN, num_anchors=1,
                      seed=SWEEP_NET_SEED)
    cfg = TrainConfig(epochs=SWEEP_EPOCHS, shuffle_seed=SWEEP_SHUFFLE_SEED,
                      weights=LossWeights())
    hashes = []
    train = optim.train

    def recorded_train(*args, **kwargs):
        report = train(*args, **kwargs)
        hashes.append(hashlib.sha256(report.params.tobytes()).hexdigest())
        return report

    with pytest.MonkeyPatch.context() as mp:  # training pins one BLAS thread itself
        mp.setattr(optim, "train", recorded_train)
        rows = evaluation.sweep_anchor_interval(train_poses, tf, test_poses, ef,
                                                SWEEP_KS, tpl, cfg)
    return rows, dict(zip(SWEEP_KS, hashes))


@pytest.fixture(scope="session")
def sweep(sweep_inputs):
    return run_sweep(sweep_inputs)


def write_rerun_sweep_csv(path) -> None:
    """The sweep from a fresh world, as ``sweep.csv`` at ``path``: what criterion
    7's second process runs (see ``sweep_rerun`` in conftest.py)."""
    world = simworld.default_world()
    splits = simworld.generate(world, simworld.DEFAULT_N_TRAIN, simworld.DEFAULT_N_TEST)
    evaluation.write_sweep_csv(path, run_sweep(sweep_inputs_of(splits))[0])


# --- criterion 1: gradient correctness ---------------------------------------------

def random_gradient_case(rng):
    """Random (spec, params, input, target); relu draws keep every trunk
    preactivation away from the kink so central differences stay valid."""
    activation = "relu" if rng.random() < 0.5 else "tanh"
    spec = NetworkSpec(input_dim=int(rng.integers(4, 8)),
                       hidden_layers=(int(rng.integers(5, 9)),),
                       num_anchors=int(rng.integers(3, 6)),
                       activation=activation, seed=int(rng.integers(0, 2 ** 31)))
    params = model.init(spec) + 0.05 * rng.standard_normal(model.param_count(spec))
    W0, b0 = model._layer_table(spec, params)[0]  # the first trunk layer
    for _ in range(200):
        x = rng.standard_normal(spec.input_dim)
        if activation == "tanh":
            break
        pre = W0 @ x + b0
        if np.abs(pre).min() > 1e-3:
            break
    # (offsets, z, orientation, nearest) of a batch of one, as batch_total_loss takes them
    target = (rng.standard_normal((1, spec.num_anchors, 2)), np.array([rng.standard_normal()]),
              random_unit_quat(rng)[None], np.array([rng.integers(0, spec.num_anchors)]))
    return spec, params, x, target


def loss_grads(spec, pred, target, weights):
    """The gradients of the four losses w.r.t. a one-sample BatchPrediction,
    as the per-head tables backward_batch takes."""
    gt_off, gt_z, gt_q, nearest = target
    softmax = _softmax(pred.logits)
    _, d_lo, d_off = offset_term(softmax[0], gt_off - pred.offsets)
    _, d_z, d_or = absolute_term(pred.z_hat, pred.orient_raw, gt_z, gt_q)
    _, d_ce = cross_entropy_term(pred.logits, softmax, nearest)
    d_abs = np.zeros((1, model.ABS_HEAD_DIM))
    d_abs[:, model.ABS_Z], d_abs[:, model.ABS_ORIENT] = d_z, d_or
    zero = {head: np.zeros((1, width)) for head, width in spec.head_dims().items()}
    return {
        "offset": {**zero, "logits": d_lo, "offsets": d_off.reshape(1, -1)},
        "absolute": {**zero, "absolute": d_abs},
        "ce": {**zero, "logits": d_ce},
        "total": batch_total_loss(pred, gt_off.copy(), gt_z, gt_q, nearest, weights)[1],
    }


def loss_value(name, pred, target, weights):
    gt_off, gt_z, gt_q, nearest = target
    if name == "offset":
        return offset_term(confidences(pred.logits), gt_off - pred.offsets)[0][0]
    if name == "absolute":
        return absolute_term(pred.z_hat, pred.orient_raw, gt_z, gt_q)[0][0]
    if name == "ce":
        return cross_entropy_term(pred.logits, _softmax(pred.logits), nearest)[0][0]
    return batch_total_loss(pred, gt_off.copy(), gt_z, gt_q, nearest, weights)[0].total


PRED_FIELDS = ("logits", "offsets", "z_hat", "orient_raw")


def perturbed_pred(pred, field, idx, delta):
    fields = {name: getattr(pred, name).copy() for name in PRED_FIELDS}
    fields[field][idx] += delta
    return BatchPrediction(**fields)


def max_rel_err(analytic, fd):
    a, f = np.asarray(analytic, dtype=float), np.asarray(fd, dtype=float)
    return (np.abs(a - f) / np.maximum(1.0, np.abs(a))).max() if a.size else 0.0


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2024)
    weights = LossWeights(alpha1=2.0, alpha2=10.0, alpha3=1.0)
    h = 1e-5
    worst = 0.0
    start = time.time()
    for _ in range(100):
        spec, params, x, target = random_gradient_case(rng)
        bound = model.Bound(spec, params)
        cache = bound.forward(x[None])
        pred = model.prediction(bound, cache[-1])
        grads = loss_grads(spec, pred, target, weights)

        # gradients w.r.t. every BatchPrediction entry
        for name, grad in grads.items():
            for field, anal in zip(PRED_FIELDS, prediction_grads(grad)):
                fd = np.zeros(anal.shape)
                for idx in np.ndindex(fd.shape):
                    hi = loss_value(name, perturbed_pred(pred, field, idx, +h), target, weights)
                    lo = loss_value(name, perturbed_pred(pred, field, idx, -h), target, weights)
                    fd[idx] = (hi - lo) / (2 * h)
                worst = max(worst, max_rel_err(anal, fd))

        # gradients w.r.t. every network parameter, per loss term
        for name, grad in grads.items():
            analytic = model.backward_batch(spec, params, cache, grad)
            fd = np.zeros_like(params)
            for j in range(params.size):
                for sign in (+1, -1):
                    p = params.copy()
                    p[j] += sign * h
                    v = loss_value(name, model.forward_batch(spec, p, x[None]), target, weights)
                    if sign > 0:
                        hi = v
                    else:
                        lo = v
                fd[j] = (hi - lo) / (2 * h)
            worst = max(worst, max_rel_err(analytic, fd))
    elapsed = time.time() - start
    verdict(1, "gradient correctness", worst < 1e-4 and elapsed < 120,
            f"max rel err {worst:.2e}, {elapsed:.0f}s for 100 draws")


# --- criterion 2: exact loss degenerations ------------------------------------------

def test_criterion_2_loss_degenerations():
    rng = np.random.default_rng(7)
    ok = True
    details = []

    def one_sample(logits, offsets, z_hat, orient_raw):
        return BatchPrediction(logits=logits[None], offsets=offsets[None],
                               z_hat=np.array([z_hat]), orient_raw=orient_raw[None])

    def absolute(pred, gt_z, gt_q):
        return absolute_term(pred.z_hat, pred.orient_raw, np.array([gt_z]), gt_q[None])[0][0]

    # one-hot confidence -> single-anchor squared loss
    gt = rng.standard_normal((4, 2))
    logits = np.array([40.0, 0.0, 0.0, 0.0])
    single = (gt[0] ** 2).sum()
    ok &= abs(offset_term(confidences(logits[None]), gt[None] - np.zeros((1, 4, 2)))[0][0]
              - single) < 1e-12

    # zero residuals -> zero loss
    q = random_unit_quat(rng)
    offs = rng.standard_normal((3, 2))
    perfect = one_sample(rng.standard_normal(3), offs, 0.3, 1.7 * q)
    target = (offs[None].copy(), np.array([0.3]), q[None], np.array([1]))
    breakdown = batch_total_loss(perfect, *target, LossWeights())[0]
    ok &= abs(breakdown.total) < 1e-12

    # alpha isolation reproduces each component alone
    pred2 = one_sample(rng.standard_normal(3), rng.standard_normal((3, 2)),
                       rng.standard_normal(), rng.standard_normal(4) + 0.2)
    target2 = (rng.standard_normal((1, 3, 2)), np.array([0.1]), q[None], np.array([2]))
    for alphas, term in ((dict(alpha1=3.0, alpha2=0.0, alpha3=0.0), "ce_term"),
                         (dict(alpha1=0.0, alpha2=7.0, alpha3=0.0), "offset_term"),
                         (dict(alpha1=0.0, alpha2=0.0, alpha3=2.5), "absolute_term")):
        b = batch_total_loss(pred2, target2[0].copy(), *target2[1:], LossWeights(**alphas))[0]
        scale = max(alphas["alpha1"], alphas["alpha2"], alphas["alpha3"])
        ok &= abs(b.total - scale * getattr(b, term)) < 1e-12

    # orientation term invariant to positive scaling of the raw output
    for c in (1e-3, 0.5, 42.0):
        scaled = one_sample(pred2.logits[0], pred2.offsets[0], 0.0, c * pred2.orient_raw[0])
        pred2_z0 = one_sample(pred2.logits[0], pred2.offsets[0], 0.0, pred2.orient_raw[0])
        ok &= abs(absolute(scaled, 0.0, q) - absolute(pred2_z0, 0.0, q)) < 1e-12
    verdict(2, "loss degenerations exact", ok)


# --- criterion 3: offset / anchor / occlusion oracles -------------------------------

def test_criterion_3_oracles():
    rng = np.random.default_rng(99)
    # round trip on 1000 random cases
    worst = 0.0
    for _ in range(1000):
        anchors = rng.uniform(-100, 100, size=(int(rng.integers(2, 30)), 2))
        amap = AnchorMap(anchors=anchors)
        pos = rng.uniform(-100, 100, size=3)
        batch = data.SampleBatch.build(["p"], [Pose(position=pos, orientation=[1.0, 0, 0, 0])],
                                       np.zeros((1, 1)), amap)
        recon = amap.anchors + batch.offsets_at(batch.positions)[0]
        worst = max(worst, float(np.abs(recon - pos[:2]).max()))
    round_trip_ok = worst < 1e-12

    # nearest anchor vs brute force on 1000 cases
    mismatches = 0
    for _ in range(1000):
        anchors = rng.uniform(-10, 10, size=(int(rng.integers(2, 40)), 2))
        amap = AnchorMap(anchors=anchors)
        pos = rng.uniform(-10, 10, size=3)
        best = min(range(len(anchors)),
                   key=lambda i: math.hypot(pos[0] - anchors[i, 0], pos[1] - anchors[i, 1]))
        mismatches += nearest_label(pos, amap) != best
    nearest_ok = mismatches == 0

    # segment occlusion vs independent parametric oracle on 1000 cases
    from test_simworld import segments_intersect_oracle
    seg_mismatch = 0
    for _ in range(1000):
        pts = rng.uniform(-4, 4, size=(4, 2))
        ours = segments_intersect(pts[0], pts[1], pts[2], pts[3])
        seg_mismatch += ours != segments_intersect_oracle(pts[0], pts[1], pts[2], pts[3])
    seg_ok = seg_mismatch == 0

    verdict(3, "offset/anchor/occlusion oracles",
            round_trip_ok and nearest_ok and seg_ok,
            f"round-trip {worst:.1e}, nearest mismatches {mismatches}, "
            f"segment mismatches {seg_mismatch}")


# --- criterion 4: learning progress --------------------------------------------------

def test_criterion_4_learning_progress(scene, net_spec, trained):
    report, seconds = trained
    ratio = report.epochs[0].total / report.epochs[-1].total
    ev = evaluation.evaluate(net_spec, report.params, scene.test, scene.anchor_map)
    ev0 = evaluation.evaluate(net_spec, model.init(net_spec), scene.test, scene.anchor_map)
    ok = (ratio >= 5.0 and np.isfinite(ev.median_translation_m)
          and ev.median_translation_m < ev0.median_translation_m and seconds < 600)
    verdict(4, "learning progress", ok,
            f"loss ratio {ratio:.1f}x, median {ev.median_translation_m:.3f} m vs "
            f"untrained {ev0.median_translation_m:.3f} m, {seconds:.0f}s")


# --- criterion 5: anchor model beats direct regression -------------------------------

def test_criterion_5_anchor_beats_direct(scene, net_spec, trained, trained_direct):
    report, _ = trained
    dspec, dreport = trained_direct
    anchor_med = evaluation.evaluate(net_spec, report.params, scene.test,
                                     scene.anchor_map).median_translation_m
    direct_med = baseline.evaluate_direct(dspec, dreport.params, scene.test).median_translation_m
    ok = anchor_med <= direct_med
    verdict(5, "anchor model beats direct regression", ok,
            f"anchor {anchor_med:.4f} m <= direct {direct_med:.4f} m, "
            f"margin {direct_med - anchor_med:+.4f} m")


def test_frozen_seed_parameter_hashes(trained, trained_direct):
    report, _ = trained
    _, dreport = trained_direct
    assert hashlib.sha256(report.params.tobytes()).hexdigest() == ANCHOR_PARAMS_SHA256
    assert hashlib.sha256(dreport.params.tobytes()).hexdigest() == DIRECT_PARAMS_SHA256


def test_frozen_seed_sweep_parameter_hashes(sweep):
    _, hashes = sweep
    assert hashes == SWEEP_PARAMS_SHA256


# --- criterion 6: anchor discovery ----------------------------------------------------

def test_criterion_6_anchor_discovery(world, scene, net_spec, trained):
    report, _ = trained
    # untrained null model: recorded for context, not asserted
    s0, q0 = evaluation.discovery_stats(net_spec, model.init(net_spec), scene.test,
                                        scene.anchor_map, world.landmarks)
    try:
        successes, qualifying = evaluation.discovery_stats(
            net_spec, report.params, scene.test, scene.anchor_map, world.landmarks)
        rate = successes / qualifying if qualifying else float("nan")
    except UndefinedRateError:
        successes = qualifying = 0
        rate = float("nan")
    ok = qualifying > 0 and rate > 0.5
    verdict(6, "anchor discovery", ok,
            f"trained rate {successes}/{qualifying} = {rate:.2f}, needs > 0.5; "
            f"untrained null model {s0}/{q0} (recorded); nearest-anchor baseline 0.0")


# --- criterion 7: anchor interval sweep ------------------------------------------------

def test_criterion_7_interval_sweep(sweep, sweep_rerun, tmp_path):
    rows, _ = sweep

    finite = all(np.isfinite([r.median_m, r.median_deg, r.accuracy]).all()
                 for r in rows) and len(rows) == len(SWEEP_KS)
    best = min(rows, key=lambda r: r.median_m)
    interior = best.k not in (min(SWEEP_KS), max(SWEEP_KS))

    evaluation.write_sweep_csv(tmp_path / "sweep.csv", rows)
    evaluation.write_sweep_svg(tmp_path / "sweep.svg", rows)
    artifacts = (tmp_path / "sweep.csv").exists() and (tmp_path / "sweep.svg").exists()
    deterministic = (tmp_path / "sweep.csv").read_bytes() == sweep_rerun

    detail = ", ".join(f"k={r.k}: {r.median_m:.4f}" for r in rows)
    verdict(7, "interval sweep", deterministic and interior and artifacts and finite,
            f"{detail}; best k={best.k}; byte-identical rerun: {deterministic}")


# --- criterion 8: protocol fidelity ----------------------------------------------------

def test_criterion_8_protocol_fidelity():
    cfg = TrainConfig(lr=4e-4)
    lr_ok = (optim.lr_at(0, cfg) == 4e-4 and optim.lr_at(29, cfg) == 4e-4
             and optim.lr_at(30, cfg) == 2e-4 and optim.lr_at(59, cfg) == 2e-4
             and optim.lr_at(60, cfg) == 1e-4 and optim.lr_at(90, cfg) == 5e-5)

    from anchorloc.geometry import yaw_quat
    amap = AnchorMap(anchors=np.zeros((1, 2)))
    poses = [Pose(position=np.zeros(3), orientation=np.array([1.0, 0, 0, 0]))] * 2
    batch = data.SampleBatch.build(["a", "b"], poses, np.zeros((2, 2)), amap)
    pred_xyz = np.array([[1.9, 0, 0], [2.1, 0, 0]])
    pred_q = np.stack([yaw_quat(np.radians(4.9)), yaw_quat(np.radians(4.0))])
    report = evaluation.report_from_poses(pred_xyz, pred_q, batch, np.zeros(2, dtype=int))
    acc_ok = report.accuracy_2m_5deg == 0.5
    flags = [(t < 2.0 and r < 5.0) for t, r, _, _ in report.per_sample]
    acc_ok &= flags == [True, False]

    verdict(8, "protocol fidelity", lr_ok and acc_ok,
            f"lr halving exact: {lr_ok}, threshold edges: {flags}")


# --- criterion 9: I/O round trips --------------------------------------------------------

def test_criterion_9_io_round_trips(tmp_path, splits, net_spec):
    train, test = splits
    corpus = tmp_path / "corpus"
    data.export_dataset(corpus, train[:200], test[:50])

    ok = True
    # pose files: load -> save reproduces bytes
    for name in (data.POSES_TRAIN, data.POSES_TEST):
        path = corpus / name
        records = data.load_pose_file(path)
        again = corpus / (name + ".again")
        data.save_pose_file(again, records)
        ok &= path.read_bytes() == again.read_bytes()
        # and a second parse of the rewrite matches record for record
        reread = data.load_pose_file(again)
        ok &= (reread.frame_ids == records.frame_ids
               and reread.positions.tobytes() == records.positions.tobytes()
               and reread.orientations.tobytes() == records.orientations.tobytes())

    # feature files
    for name in (data.FEATURES_TRAIN, data.FEATURES_TEST):
        path = corpus / name
        ids, feats = data.load_features(path)
        again = corpus / (name + ".again")
        data.save_features(again, ids, feats)
        ok &= path.read_bytes() == again.read_bytes()

    # checkpoints (with optimizer state)
    params = model.init(net_spec)
    state = optim.AdamState(m=np.random.default_rng(0).standard_normal(params.size),
                            v=np.abs(np.random.default_rng(1).standard_normal(params.size)),
                            t=17)
    ck1 = tmp_path / "c1.bin"
    optim.save_training_checkpoint(ck1, net_spec, params, state, epoch=5)
    spec2, params2, state2, epoch2, _ = optim.load_training_checkpoint(ck1)
    ck2 = tmp_path / "c2.bin"
    optim.save_training_checkpoint(ck2, spec2, params2, state2, epoch=epoch2)
    ok &= ck1.read_bytes() == ck2.read_bytes()

    # config snapshots
    from anchorloc import cli
    cfg = cli.load_config(None)
    s1 = tmp_path / "cfg1.ini"
    cli.write_config_snapshot(s1, cfg)
    reloaded = cli.load_config(str(s1))
    s2 = tmp_path / "cfg2.ini"
    cli.write_config_snapshot(s2, reloaded)
    ok &= s1.read_bytes() == s2.read_bytes()

    # world spec files
    w1 = tmp_path / "w1.ini"
    simworld.save_world_spec(w1, simworld.default_world())
    w2 = tmp_path / "w2.ini"
    simworld.save_world_spec(w2, simworld.load_world_spec(w1))
    ok &= w1.read_bytes() == w2.read_bytes()

    verdict(9, "I/O round trips", ok)
