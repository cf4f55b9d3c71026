"""The names the benchmark's traced run wraps and the space files its `hpo`
workload and self-tests load still exist, so that moving code cannot break
the benchmark without a test failing here."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from sentinel import cli, evaluate, hpo, nn, train
from sentinel.data import DEFAULT_RATE_HZ, Label, load_recording, write_recording
from sentinel.preprocess import (
    CleanSeries,
    SplitDataset,
    fill_gaps,
    load_clean_series,
    save_clean_series,
)
from sentinel.synth import SynthConfig, generate_series

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def layers():
    return benchmark_module("layers")


def test_every_wrapped_name_resolves(layers):
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in layers.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []
    # patched on its own, so that a trial's time is a span of its own
    assert cli.make_pipeline_objective is hpo.make_pipeline_objective


def test_benchmark_readers_agree_with_the_program_readers(tmp_path):
    # the `ingest` check reads the raw and cleaned files with readers of its
    # own, so a format slip in either writer must fail here first
    checks = benchmark_module("checks")
    cfg = SynthConfig(length_range=(900, 900), onset_lead=100, gap_probability=0.02,
                      spike_probability=0.01, seed=3)
    rec, _ = generate_series(cfg, Label.SYNCOPE, "syn000", np.random.default_rng(3))
    assert all(len(samples) < 900 for samples in rec.channels.values())
    raw_path = tmp_path / "syncope" / "syn000.csv"
    write_recording(rec, raw_path)
    loaded = load_recording(raw_path)
    assert checks.read_raw_recording(raw_path, DEFAULT_RATE_HZ) == {
        c: {round(t * DEFAULT_RATE_HZ): v for t, v in loaded.channels[c].tolist()}
        for c in checks.CHANNELS}

    series = fill_gaps(rec)
    assert series.marker_index is not None
    series.norm_params = {"mBP": (61.25, 112.5), "HR": (48.0, 99.75)}
    clean_path = tmp_path / "clean" / "syn000.csv"
    save_clean_series(series, clean_path)
    back, theirs = load_clean_series(clean_path), checks.read_clean_series(clean_path)
    assert theirs["mBP"].tolist() == back.mbp.tolist()
    assert theirs["HR"].tolist() == back.hr.tolist()
    meta = theirs["meta"]
    assert (meta["id"], meta["label"]) == (back.id, back.label.value)
    assert (float(meta["rate_hz"]), int(meta["marker_index"])) == (
        back.rate_hz, back.marker_index)
    assert {name: (float(meta[f"norm_min_{name.lower()}"]),
                   float(meta[f"norm_max_{name.lower()}"]))
            for name in back.norm_params} == back.norm_params


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


def test_trace_calls_forward_batch_once_per_chunk_with_its_windows(layers, monkeypatch):
    # the traced `detect` and `hpo` runs count a trace's windows twice: by
    # `evaluate.series_probabilities`'s result and by the windows each
    # `forward_batch` call it makes is given, which are stride-1 views of the
    # series, so that forward_batch can share their samples
    rng = np.random.default_rng(5)
    series = CleanSeries(id="s", label=Label.SYNCOPE, mbp=rng.uniform(-1, 1, 420),
                         hr=rng.uniform(-1, 1, 420), marker_index=None, rate_hz=1.25,
                         norm_params={"mBP": (60.0, 110.0), "HR": (50.0, 120.0)})
    model = nn.init_params(nn.ModelSpec(1, [3], True, 20), seed=1)
    seen = []
    real = evaluate.forward_batch

    def spy(*args, **kwargs):
        seen.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "forward_batch", spy)
    trace = evaluate.series_probabilities(model, series)
    tracer = benchmark_module("spans").Tracer()
    for args in seen:
        layers._count_forward(tracer, args, {}, None)
    layers._count_trace(tracer, (model, series), {}, trace)
    assert len(trace) == 401
    assert len(seen) == -(-len(trace) // evaluate.EVAL_CHUNK)
    assert all(m is model for m, _ in seen)
    assert tracer.counts["setup", "nn.windows"] == tracer.counts[
        "setup", "evaluate.trace_windows"] == len(trace)
    assert all(w.strides[0] == w.strides[1] and not w.flags.owndata for _, w in seen)
