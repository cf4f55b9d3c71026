"""The names the benchmark's traced run wraps and the space files its `hpo`
workload and self-tests load still exist, so that moving code cannot break
the benchmark without a test failing here."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sentinel import cli, hpo, nn, train
from sentinel.data import Label
from sentinel.preprocess import CleanSeries, SplitDataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_resolves(layers):
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in layers.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []
    # patched on its own, so that a trial's time is a span of its own
    assert cli.make_pipeline_objective is hpo.make_pipeline_objective


def test_benchmark_space_loads():
    space = cli.load_space_file(PERFBENCH / "hpo_space.ini")
    assert set(space.names) <= set(hpo.HYPERPARAMETERS)
    assert set(space.names) & set(hpo.PHASE2_DIMS)


def test_fit_calls_each_traced_step_once_per_batch(monkeypatch):
    # the traced `train` spans and the forward/backward counters wrap these
    # three names in `train`; the counters read the model from the first
    # argument, and the windows or the cache from the second
    def series(sid, label, marker, seed):
        rng = np.random.default_rng(seed)
        return CleanSeries(id=sid, label=label, mbp=rng.uniform(-1, 1, 120),
                           hr=rng.uniform(-1, 1, 120), marker_index=marker,
                           rate_hz=1.25, norm_params={"mBP": (60.0, 110.0),
                                                      "HR": (50.0, 120.0)})

    calls = {}
    for name in ("forward_batch", "backward_batch", "adadelta_update"):
        real = getattr(train, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.setdefault(_name, []).append(args[:2])
            return _real(*args, **kwargs)

        monkeypatch.setattr(train, name, spy)
    split = SplitDataset(train=[series("s", Label.SYNCOPE, 110, 1),
                                series("n", Label.NOSYNCOPE, None, 2)], test=[], seed=0)
    cfg = train.TrainConfig(window_size=20, epochs=2, stride=10, positive_horizon=40,
                            batch_size=8, seed=0)
    model, _, history = train.fit(split, nn.ModelSpec(1, [3], False, 20), cfg)
    batches = cfg.epochs * -(-history.n_windows // cfg.batch_size)
    assert batches > cfg.epochs
    assert {name: len(seen) for name, seen in calls.items()} == {
        "forward_batch": batches, "backward_batch": batches, "adadelta_update": batches}
    assert all(args[0] is model for seen in calls.values() for args in seen)
    assert sum(len(windows) for _, windows in calls["forward_batch"]) == (
        cfg.epochs * history.n_windows)
    assert all(isinstance(cache, nn.ForwardCache) for _, cache in calls["backward_batch"])
