"""perfbench/spans.py wraps package functions by name; every name it traces
must still be a function of its anchorloc module, or ``--trace 1`` breaks."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from anchorloc import baseline, data, evaluation, loss, model, optim
from anchorloc.baseline import DirectSpec
from anchorloc.geometry import AnchorMap
from anchorloc.model import NetworkSpec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.TRACED:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"anchorloc.{module}"), attr, None)):
            missing.append(name)
    assert spans.TRACED and missing == []


def test_query_path_calls_spanned_functions_by_name(monkeypatch):
    # the model.forward_batch span counts queries only while model.forward and
    # reconstruct_pose look these up as module globals
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model, "forward_batch",
                        counting("forward_batch", model.forward_batch))
    monkeypatch.setattr(evaluation, "reconstruct", counting("reconstruct", evaluation.reconstruct))
    spec = NetworkSpec(input_dim=4, hidden_layers=(6,), num_anchors=3, seed=1)
    params = model.init(spec)
    amap = AnchorMap(anchors=np.arange(6.0).reshape(3, 2))
    for i in range(3):
        evaluation.reconstruct_pose(model.forward(spec, params, np.full(4, i + 0.5)), amap)
    assert calls == ["forward_batch", "reconstruct"] * 3


@pytest.mark.parametrize("module, name", [(loss, "batch_total_loss"),
                                          (baseline, "direct_loss_batch")])
def test_training_calls_spanned_losses_by_name(tiny_samples, monkeypatch, module, name):
    # the loss spans time the training step only while the training loops
    # look the loss up as a module global, once per batch
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    samples = data.from_simworld(*tiny_samples, k=10).train
    dim, cfg = samples.features.shape[1], optim.TrainConfig(epochs=1, batch_size=7)
    if module is loss:
        spec = NetworkSpec(input_dim=dim, hidden_layers=(8,),
                           num_anchors=len(samples.anchor_map))
        optim.train(samples, spec, cfg)
    else:
        baseline.train_direct(samples, DirectSpec(input_dim=dim, hidden_layers=(8,)), cfg)
    assert len(calls) == math.ceil(len(samples) / 7)
