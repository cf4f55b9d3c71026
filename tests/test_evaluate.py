"""Metric formulas, threshold detection semantics, sweep monotonicity,
and report persistence."""

import csv
import json
import os
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sentinel import evaluate, nn
from sentinel.data import Label
from sentinel.errors import (
    ConfigError,
    EmptyEvaluation,
    NoDetections,
    NoPositives,
    SeriesTooShort,
    UndefinedF,
)
from sentinel.data import scan_dataset
from sentinel.preprocess import CleanSeries, PreprocessConfig, preprocess_pipeline
from sentinel.report import render_csv
from sentinel.synth import SynthConfig, generate_dataset


def make_series(sid, label, length=400, marker=None, seed=0):
    rng = np.random.default_rng(seed)
    return CleanSeries(
        id=sid, label=label,
        mbp=rng.uniform(-1, 1, size=length),
        hr=rng.uniform(-1, 1, size=length),
        marker_index=marker, rate_hz=1.25,
        norm_params={"mBP": (60.0, 110.0), "HR": (50.0, 120.0)},
    )


def tiny_model(window=100):
    return nn.init_params(
        nn.ModelSpec(1, [4], bidirectional=False, window_size=window), seed=0)


def wide_model(window=12):
    """Two bidirectional layers wide enough for the trace to use the pool."""
    units = [evaluate.POOL_MIN_UNITS, evaluate.POOL_MIN_UNITS + 8]
    return nn.init_params(
        nn.ModelSpec(2, units, bidirectional=True, window_size=window), seed=2)


def trace_on(monkeypatch, workers, model, series):
    monkeypatch.setattr(evaluate, "_trace_workers", lambda m: workers)
    return evaluate.series_probabilities(model, series)


class TestMetrics:
    def test_recall(self):
        assert evaluate.recall(3, 1) == 0.75
        assert evaluate.recall(5, 0) == 1.0
        assert evaluate.recall(19, 2) == pytest.approx(0.904762, abs=5e-7)
        with pytest.raises(NoPositives):
            evaluate.recall(0, 0)

    def test_precision(self):
        assert evaluate.precision(3, 3) == 0.5
        assert evaluate.precision(7, 0) == 1.0
        assert evaluate.precision(17, 4) == pytest.approx(0.809524, abs=5e-7)
        with pytest.raises(NoDetections):
            evaluate.precision(0, 0)

    def test_f_measure(self):
        for p in (0.1, 0.5, 0.9):
            assert evaluate.f_measure(p, p) == pytest.approx(p)
        assert evaluate.f_measure(0.75, 0.5) == pytest.approx(0.6)
        assert evaluate.f_measure(1.0, 0.5, beta=2.0) == pytest.approx(2.5 / 3)
        with pytest.raises(UndefinedF):
            evaluate.f_measure(0.0, 0.0)

    def test_accuracy(self):
        assert evaluate.accuracy(34, 4) == pytest.approx(0.895, abs=5e-4)
        assert evaluate.accuracy(10, 0) == 1.0
        assert evaluate.accuracy(25, 13) == pytest.approx(0.6579, abs=5e-5)
        with pytest.raises(EmptyEvaluation):
            evaluate.accuracy(0, 0)

    def test_identities_brute_force(self):
        for tp in range(11):
            for fn in range(11):
                if tp + fn:
                    assert evaluate.recall(tp, fn) == tp / (tp + fn)
                for fp in range(11):
                    if tp + fp == 0 or tp + fn == 0:
                        continue
                    r = evaluate.recall(tp, fn)
                    p = evaluate.precision(tp, fp)
                    if r + p:
                        f1 = evaluate.f_measure(r, p)
                        assert min(r, p) - 1e-12 <= f1 <= max(r, p) + 1e-12


class TestDetectTrace:
    def test_constant_trace(self):
        trace = np.full(10, 0.8)
        assert evaluate.detect_from_trace(trace, 0.7, 1) == 0
        assert evaluate.detect_from_trace(trace, 0.85, 1) is None

    def test_consecutive_run(self):
        trace = np.array([0.2, 0.2, 0.9, 0.6, 0.9, 0.9])
        assert evaluate.detect_from_trace(trace, 0.8, consecutive=2) == 4
        assert evaluate.detect_from_trace(trace, 0.8, consecutive=1) == 2
        assert evaluate.detect_from_trace(trace, 0.8, consecutive=3) is None

    def test_threshold_boundary_inclusive(self):
        trace = np.array([0.699999, 0.7])
        assert evaluate.detect_from_trace(trace, 0.7) == 1

    def test_run_shorter_than_trace(self):
        assert evaluate.detect_from_trace(np.array([0.9]), 0.5, consecutive=2) is None
        with pytest.raises(ConfigError):
            evaluate.detect_from_trace(np.array([0.9]), 0.5, consecutive=0)


class TestSeriesProbabilities:
    def test_matches_per_window_forward(self):
        model = tiny_model(window=10)
        s = make_series("a", Label.NOSYNCOPE, length=300, seed=1)
        trace = evaluate.series_probabilities(model, s)
        assert len(trace) == 300 - 10 + 1
        assert len(trace) > evaluate.EVAL_CHUNK  # exercises chunking
        x = s.window_input()
        for i in (0, 7, 150, 255, 290):
            probs = nn.forward_batch(model, x[None, i:i + 10])[0][0]
            assert_allclose(trace[i], probs[1], atol=1e-12)
        assert np.all((trace > 0) & (trace < 1))

    def test_short_series_raises(self):
        model = tiny_model(window=100)
        s = make_series("a", Label.NOSYNCOPE, length=99)
        with pytest.raises(SeriesTooShort):
            evaluate.series_probabilities(model, s)

    def test_detect_series_offsets_by_window(self, monkeypatch):
        model = tiny_model(window=100)
        s = make_series("a", Label.SYNCOPE, length=400, marker=350)
        trace = np.zeros(301)
        trace[40:] = 0.95
        monkeypatch.setattr(evaluate, "series_probabilities",
                            lambda m, x, rule=None: trace)
        assert evaluate.detect_series(model, s, 0.8) == 40 + 99
        with pytest.raises(ConfigError):
            evaluate.detect_series(model, s, 1.5)


class TestPooledTrace:
    # 389 windows: three chunks of 128 and a partial one of 5
    LENGTH = 400
    WORKERS = (1, 2, 3, 8, 37, 64)

    def series(self):
        return make_series("p", Label.SYNCOPE, length=self.LENGTH, seed=4)

    def test_worker_count_follows_width(self):
        narrow = nn.init_params(nn.ModelSpec(
            2, [evaluate.POOL_MIN_UNITS - 1] * 2, bidirectional=True, window_size=12), seed=2)
        assert evaluate._trace_workers(narrow) == 1
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        want = cpus if nn.openblas() is not None else 1
        assert evaluate._trace_workers(wide_model()) == want

    @pytest.fixture(scope="class")
    def cleaned(self, tmp_path_factory):
        """A cleaned synthetic series on which chunks of 256 // workers
        windows gave other bits at 3 and at 37 workers than at 1."""
        root = tmp_path_factory.mktemp("pooled")
        generate_dataset(SynthConfig(n_syncope=3, n_nosyncope=3, seed=9,
                                     length_range=(1700, 1900)), root)
        split, _ = preprocess_pipeline(scan_dataset(root), PreprocessConfig(), seed=9)
        return split.train[0]

    def test_pooled_equals_one_worker_bitwise(self, monkeypatch, cleaned):
        real = evaluate.forward_batch
        paper = nn.init_params(nn.ModelSpec(2, [32, 32], True, 100), seed=3)
        for model, s in ((wide_model(), self.series()), (paper, cleaned)):
            n = len(s.mbp) - model.spec.window_size + 1
            chunks = [min(evaluate.EVAL_CHUNK, n - lo)
                      for lo in range(0, n, evaluate.EVAL_CHUNK)]
            traces = {}
            for workers in self.WORKERS:
                seen = []

                def spy(model, windows, need_cache=True):
                    seen.append(len(windows))
                    return real(model, windows, need_cache)

                monkeypatch.setattr(evaluate, "forward_batch", spy)
                traces[workers] = trace_on(monkeypatch, workers, model, s)
                assert sorted(seen, reverse=True) == chunks, workers
                assert np.array_equal(traces[workers], traces[1]), workers

    def test_stress_many_workers_short_switch_interval(self, monkeypatch):
        model, s = wide_model(), self.series()
        serial = trace_on(monkeypatch, 1, model, s)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs, deadline = 0, time.monotonic() + 2.0
            while runs < 3 or (time.monotonic() < deadline and runs < 20):
                assert np.array_equal(trace_on(monkeypatch, 8, model, s), serial)
                runs += 1
        finally:
            sys.setswitchinterval(interval)

    def test_matches_single_window_forward_at_chunk_edges(self, monkeypatch):
        model, s = wide_model(), self.series()
        window = model.spec.window_size
        trace = trace_on(monkeypatch, 2, model, s)
        step = evaluate.EVAL_CHUNK
        x = s.window_input()
        edges = [0, step - 1, step, 2 * step - 1, 2 * step, 3 * step - 1, 3 * step,
                 len(trace) - 1]
        for i in edges:
            probs = nn.forward_batch(model, x[None, i:i + window])[0][0]
            assert_allclose(trace[i], probs[1], rtol=0, atol=1e-12)

    def test_blas_threads_restored(self, monkeypatch):
        blas = nn.openblas()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get = blas.get
        model, s = wide_model(), self.series()
        before = get()
        seen = []
        real = evaluate.forward_batch

        def spy(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate, "forward_batch", spy)
        trace_on(monkeypatch, 2, model, s)
        assert set(seen) == {1}
        assert get() == before

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(evaluate, "forward_batch", boom)
        with pytest.raises(RuntimeError, match="boom"):
            trace_on(monkeypatch, 2, model, s)
        assert get() == before

    def test_serial_trace_holds_one_blas_thread(self, monkeypatch):
        blas = nn.openblas()
        if blas is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        narrow = nn.init_params(nn.ModelSpec(
            2, [evaluate.POOL_MIN_UNITS - 1] * 2, bidirectional=True, window_size=12), seed=2)
        assert evaluate._trace_workers(narrow) == 1
        seen = []
        real = evaluate.forward_batch

        def spy(*args, **kwargs):
            seen.append(blas.get())
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate, "forward_batch", spy)
        before = blas.get()
        blas.put(2)
        try:
            evaluate.series_probabilities(narrow, self.series())
            assert seen and set(seen) == {1}
            assert blas.get() == 2
        finally:
            blas.put(before)


def patched_eval(monkeypatch, traces_by_id):
    def fake(model, series, rule=None):
        return np.asarray(traces_by_id[series.id], dtype=float)
    monkeypatch.setattr(evaluate, "series_probabilities", fake)


class TestEvaluateDataset:
    def test_perfect_detector(self, monkeypatch):
        model = tiny_model(window=100)
        series, traces = [], {}
        for i in range(4):
            sid = f"s{i}"
            series.append(make_series(sid, Label.SYNCOPE, marker=380, seed=i))
            traces[sid] = np.concatenate([np.zeros(100), np.ones(201) * 0.99])
        for i in range(4):
            sid = f"n{i}"
            series.append(make_series(sid, Label.NOSYNCOPE, seed=10 + i))
            traces[sid] = np.full(301, 0.01)
        patched_eval(monkeypatch, traces)
        report = evaluate.evaluate_dataset(model, series, 0.7)
        assert (report.confusion.tp, report.confusion.fp,
                report.confusion.fn, report.confusion.tn) == (4, 0, 0, 4)
        assert report.recall == report.precision == report.accuracy == 1.0
        assert report.f_beta == 1.0
        assert report.confusion.total == len(series)

    def test_never_fires(self, monkeypatch):
        model = tiny_model(window=100)
        series = [make_series(f"s{i}", Label.SYNCOPE, marker=380, seed=i)
                  for i in range(3)]
        series += [make_series("n0", Label.NOSYNCOPE, seed=9)]
        traces = {s.id: np.zeros(301) for s in series}
        patched_eval(monkeypatch, traces)
        report = evaluate.evaluate_dataset(model, series, 0.7)
        assert report.confusion.fn == 3
        assert report.recall == 0.0
        assert report.precision is None  # absent, not 0 or 1
        assert report.f_beta is None
        assert report.accuracy == pytest.approx(0.25)

    def test_reaction_time_arithmetic(self, monkeypatch):
        # detection at sample 1250 against a marker at 2000 is 600 s early
        model = tiny_model(window=100)
        s = make_series("s0", Label.SYNCOPE, length=2500, marker=2000)
        trace = np.zeros(2401)
        trace[1151:] = 0.99  # 1151 + 99 = detection index 1250
        patched_eval(monkeypatch, {"s0": trace})
        report = evaluate.evaluate_dataset(model, [s], 0.7)
        out = report.per_series[0]
        assert out.detection_index == 1250
        assert out.reaction_seconds == pytest.approx(600.0)
        assert evaluate.median_reaction(report) == pytest.approx(600.0)

    def test_reaction_sign_convention(self, monkeypatch):
        model = tiny_model(window=100)
        s = make_series("s0", Label.SYNCOPE, length=500, marker=150)
        trace = np.zeros(401)
        trace[200:] = 0.99  # fires at 299, after the marker
        patched_eval(monkeypatch, {"s0": trace})
        report = evaluate.evaluate_dataset(model, [s], 0.7)
        out = report.per_series[0]
        assert out.detected
        assert out.reaction_seconds < 0

    def test_no_reaction_without_marker_or_detection(self, monkeypatch):
        model = tiny_model(window=100)
        a = make_series("a", Label.SYNCOPE, marker=None)
        b = make_series("b", Label.NOSYNCOPE)
        traces = {"a": np.full(301, 0.99), "b": np.full(301, 0.99)}
        patched_eval(monkeypatch, traces)
        report = evaluate.evaluate_dataset(model, [a, b], 0.7)
        assert all(o.reaction_seconds is None for o in report.per_series)
        assert report.per_series[0].detected

    def test_empty_list(self):
        with pytest.raises(EmptyEvaluation):
            evaluate.evaluate_dataset(tiny_model(), [], 0.7)

    def test_accuracy_consistent_with_confusion(self, monkeypatch):
        model = tiny_model(window=100)
        rng = np.random.default_rng(5)
        series, traces = [], {}
        for i in range(12):
            label = Label.SYNCOPE if i % 2 else Label.NOSYNCOPE
            sid = f"x{i}"
            series.append(make_series(sid, label,
                                      marker=380 if label is Label.SYNCOPE else None,
                                      seed=i))
            traces[sid] = rng.uniform(0, 1, size=301)
        patched_eval(monkeypatch, traces)
        report = evaluate.evaluate_dataset(model, series, 0.5)
        c = report.confusion
        assert report.accuracy == (c.tp + c.tn) / c.total


class TestEarlyStop:
    """Without ``traces``, evaluate_dataset scores each series only up to the
    chunk that completes its first alarm; the outcomes are those of full
    traces."""

    WINDOW = 10
    N_WINDOWS = 700  # five chunks of 128 and one of 60

    def scripted(self, sid, label, alarms):
        """A series whose window i carries P(syncope) 0.9 for i in
        ``alarms`` and 0.1 otherwise, as the last mBP sample of the window,
        for :meth:`scripted_forward` to read back."""
        probs = np.full(self.N_WINDOWS, 0.1)
        probs[list(alarms)] = 0.9
        mbp = np.concatenate([np.zeros(self.WINDOW - 1), probs])
        marker = len(mbp) - 1 if label is Label.SYNCOPE else None
        return CleanSeries(id=sid, label=label, mbp=mbp, hr=np.zeros(len(mbp)),
                           marker_index=marker, rate_hz=1.25, norm_params={})

    @pytest.fixture
    def chunks(self, monkeypatch):
        """Windows per forward_batch call, with the pass scripted."""
        seen = []

        def scripted_forward(model, windows, need_cache=True):
            seen.append(len(windows))
            p = windows[:, -1, 0]
            return np.stack([1 - p, p], axis=1), None

        monkeypatch.setattr(evaluate, "forward_batch", scripted_forward)
        return seen

    def corpus(self):
        sy, no = Label.SYNCOPE, Label.NOSYNCOPE
        return [
            self.scripted("first-chunk", sy, [5]),
            # a run of 3 opening at 254 straddles the chunk edge at 256; the
            # shorter runs before it alarm only at consecutive 1
            self.scripted("straddle", sy, [100, 200, 201, 254, 255, 256, 257]),
            self.scripted("last-chunk", no, [650, 651, 652]),
            self.scripted("never", no, []),
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("consecutive", [1, 3])
    def test_outcomes_equal_full_traces(self, monkeypatch, chunks, workers,
                                        consecutive):
        monkeypatch.setattr(evaluate, "_trace_workers", lambda m: workers)
        model, series = tiny_model(window=self.WINDOW), self.corpus()
        early = evaluate.evaluate_dataset(model, series, 0.5, consecutive)
        scored = sum(chunks)
        [full] = evaluate.threshold_sweep(model, series, [0.5], consecutive)
        assert sum(chunks) - scored == len(series) * self.N_WINDOWS
        assert early.per_series == full.per_series
        assert early.confusion == full.confusion
        detections = [o.detection_index for o in early.per_series]
        end = self.WINDOW - 1
        if consecutive == 1:
            assert detections == [5 + end, 100 + end, 650 + end, None]
        else:
            assert detections == [None, 254 + end, 650 + end, None]
        # each series is scored through the chunk holding the last entry of
        # its first alarm run; a pool may also finish chunks already started
        step = evaluate.EVAL_CHUNK
        needed = sum(self.N_WINDOWS if d is None else
                     min(self.N_WINDOWS, (d - end + consecutive - 1) // step * step + step)
                     for d in detections)
        if workers == 1:
            assert scored == needed
        else:
            assert scored >= needed

    def test_alarm_in_first_chunk_costs_one_call(self, monkeypatch, chunks):
        monkeypatch.setattr(evaluate, "_trace_workers", lambda m: 1)
        model = tiny_model(window=self.WINDOW)
        s = self.scripted("first-chunk", Label.SYNCOPE, [5])
        assert evaluate.evaluate_dataset(model, [s], 0.5).per_series[0].detected
        assert chunks == [evaluate.EVAL_CHUNK]
        assert evaluate.detect_series(model, s, 0.5) == 5 + self.WINDOW - 1
        assert chunks == [evaluate.EVAL_CHUNK] * 2
        evaluate.threshold_sweep(model, [s], [0.5])
        assert chunks[2:] == [128] * 5 + [self.N_WINDOWS - 640]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("threshold, consecutive", [(0.5, 0), (1.5, 1)])
    @pytest.mark.parametrize("entry", ["evaluate_dataset", "detect_series",
                                       "threshold_sweep"])
    def test_bad_rule_raises_before_any_window_is_scored(
            self, monkeypatch, chunks, workers, threshold, consecutive, entry):
        monkeypatch.setattr(evaluate, "_trace_workers", lambda m: workers)
        model = tiny_model(window=self.WINDOW)
        s = self.scripted("never", Label.NOSYNCOPE, [])
        calls = {
            "evaluate_dataset": lambda: evaluate.evaluate_dataset(
                model, [s], threshold, consecutive),
            "detect_series": lambda: evaluate.detect_series(
                model, s, threshold, consecutive),
            "threshold_sweep": lambda: evaluate.threshold_sweep(
                model, [s], [0.25, threshold], consecutive),
        }
        with pytest.raises(ConfigError):
            calls[entry]()
        assert chunks == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_cancels_chunks_not_started(self, monkeypatch, workers):
        # the first chunk returns at once and every other takes 0.2 s, so
        # by the time the first alarm is seen only the workers' first
        # chunks and one more have started
        monkeypatch.setattr(evaluate, "_trace_workers", lambda m: workers)
        starts = []

        def slow_after_first(model, windows, need_cache=True):
            starts.append(len(windows))
            if len(starts) > 1:
                time.sleep(0.2)
            p = windows[:, -1, 0]
            return np.stack([1 - p, p], axis=1), None

        monkeypatch.setattr(evaluate, "forward_batch", slow_after_first)
        s = self.scripted("first-chunk", Label.SYNCOPE, [5])
        trace = evaluate.series_probabilities(tiny_model(window=self.WINDOW), s,
                                              (0.5, 1))
        step = evaluate.EVAL_CHUNK
        assert len(trace) == step
        assert len(starts) < -(-self.N_WINDOWS // step)

    def test_pool_raises_the_error_of_a_chunk_that_ran(self, monkeypatch):
        # the second chunk fails while the first, which alarms, is read
        monkeypatch.setattr(evaluate, "_trace_workers", lambda m: 2)

        def fail_on_window_200(model, windows, need_cache=True):
            p = windows[:, -1, 0]
            if np.any(p == 0.3):
                time.sleep(0.1)
                raise RuntimeError("chunk failed")
            return np.stack([1 - p, p], axis=1), None

        monkeypatch.setattr(evaluate, "forward_batch", fail_on_window_200)
        s = self.scripted("first-chunk", Label.SYNCOPE, [5])
        s.mbp[self.WINDOW - 1 + 200] = 0.3
        with pytest.raises(RuntimeError, match="chunk failed"):
            evaluate.series_probabilities(tiny_model(window=self.WINDOW), s,
                                          (0.5, 1))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pooled_model_prefix_of_full_trace(self, monkeypatch, workers):
        monkeypatch.setattr(evaluate, "_trace_workers", lambda m: workers)
        model = wide_model()
        series = [make_series(f"s{i}", Label.SYNCOPE if i % 2 else Label.NOSYNCOPE,
                              marker=390 if i % 2 else None, seed=i)
                  for i in range(4)]
        full = {s.id: evaluate.series_probabilities(model, s) for s in series}
        values = np.concatenate(list(full.values()))
        thresholds = [*np.quantile(values, [0.5, 0.9, 0.99]),
                      (values.max() + 1.0) / 2]  # the last never alarms
        shortened = 0
        for consecutive in (1, 3):
            swept = evaluate.threshold_sweep(model, series, thresholds, consecutive)
            for t, want in zip(thresholds, swept):
                got = evaluate.evaluate_dataset(model, series, t, consecutive)
                assert got.per_series == want.per_series
                assert got.confusion == want.confusion
                for s in series:
                    prefix = evaluate.series_probabilities(model, s, (t, consecutive))
                    assert np.array_equal(prefix, full[s.id][:len(prefix)])
                    shortened += len(prefix) < len(full[s.id])
        assert shortened > 0
        assert any(o.detected for o in swept[0].per_series)
        assert not any(o.detected for o in swept[-1].per_series)


class TestThresholdSweep:
    def test_single_threshold_matches_evaluate(self, monkeypatch):
        model = tiny_model(window=100)
        rng = np.random.default_rng(3)
        series, traces = [], {}
        for i in range(6):
            label = Label.SYNCOPE if i < 3 else Label.NOSYNCOPE
            sid = f"s{i}"
            series.append(make_series(sid, label,
                                      marker=350 if i < 3 else None, seed=i))
            traces[sid] = rng.uniform(0, 1, size=301)
        patched_eval(monkeypatch, traces)
        [swept] = evaluate.threshold_sweep(model, series, [0.6])
        direct = evaluate.evaluate_dataset(model, series, 0.6)
        assert swept.confusion == direct.confusion
        assert swept.recall == direct.recall
        assert swept.accuracy == direct.accuracy

    def test_monotone_in_threshold(self, monkeypatch):
        model = tiny_model(window=100)
        rng = np.random.default_rng(11)
        series, traces = [], {}
        for i in range(10):
            label = Label.SYNCOPE if i % 2 else Label.NOSYNCOPE
            sid = f"s{i}"
            series.append(make_series(sid, label,
                                      marker=350 if i % 2 else None, seed=i))
            traces[sid] = rng.uniform(0, 1, size=301)
        patched_eval(monkeypatch, traces)
        reports = evaluate.threshold_sweep(model, series,
                                           evaluate.default_threshold_grid())
        assert len(reports) == 19
        detections = [r.confusion.tp + r.confusion.fp for r in reports]
        assert all(a >= b for a, b in zip(detections, detections[1:]))
        recalls = [r.recall for r in reports]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_grid_default(self):
        grid = evaluate.default_threshold_grid()
        assert len(grid) == 19
        assert grid[0] == 0.05 and grid[-1] == 0.95
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_bad_threshold_lists(self):
        model = tiny_model()
        s = [make_series("a", Label.NOSYNCOPE)]
        with pytest.raises(ConfigError):
            evaluate.threshold_sweep(model, s, [])
        with pytest.raises(ConfigError):
            evaluate.threshold_sweep(model, s, [0.5, 0.4])
        with pytest.raises(ConfigError):
            evaluate.threshold_sweep(model, s, [0.0, 0.5])


class TestPersistence:
    def build_report(self, monkeypatch):
        model = tiny_model(window=100)
        s1 = make_series("sy", Label.SYNCOPE, length=500, marker=400)
        s2 = make_series("no", Label.NOSYNCOPE, length=500)
        traces = {"sy": np.concatenate([np.zeros(100), np.full(301, 0.9)]),
                  "no": np.full(401, 0.1)}
        patched_eval(monkeypatch, traces)
        return evaluate.evaluate_dataset(model, [s1, s2], 0.7)

    def test_csv_round_trip(self, tmp_path, monkeypatch):
        report = self.build_report(monkeypatch)
        path = tmp_path / "report.csv"
        evaluate.write_report_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series_id", "label", "detected",
                           "detection_index", "reaction_s"]
        assert len(rows) == 3
        sy = rows[1]
        assert sy[0] == "sy" and sy[1] == "syncope" and sy[2] == "1"
        assert int(sy[3]) == report.per_series[0].detection_index
        assert float(sy[4]) == report.per_series[0].reaction_seconds
        no = rows[2]
        assert no[2] == "0" and no[3] == "" and no[4] == ""

    def test_json_summary(self, tmp_path, monkeypatch):
        report = self.build_report(monkeypatch)
        path = tmp_path / "summary.json"
        evaluate.write_report_json(report, path)
        doc = json.loads(path.read_text())
        assert doc["threshold"] == 0.7
        assert doc["confusion"] == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
        assert doc["recall"] == 1.0
        assert doc["accuracy"] == 1.0
        assert doc["n_series"] == 2

    def test_sweep_csv(self, tmp_path, monkeypatch):
        model = tiny_model(window=100)
        s = make_series("sy", Label.SYNCOPE, length=500, marker=400)
        traces = {"sy": np.concatenate([np.zeros(100), np.full(301, 0.52)])}
        patched_eval(monkeypatch, traces)
        reports = evaluate.threshold_sweep(model, [s], [0.3, 0.6])
        path = tmp_path / "sweep.csv"
        evaluate.write_sweep_csv(reports, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "threshold"
        assert len(rows) == 3
        assert float(rows[1][0]) == 0.3
        assert rows[1][6] == "1"  # detected below 0.52
        assert rows[2][6] == "0"  # not detected above it
        assert rows[2][1] == "0.0"  # recall defined (zero)
        assert rows[2][2] == ""     # precision absent -> blank cell

    def test_sweep_over_a_numpy_array(self, tmp_path, monkeypatch):
        # numpy floats reach sweep.csv as the cells Python floats give, and
        # the file renders
        model = tiny_model(window=100)
        series = [make_series("sy", Label.SYNCOPE, length=500, marker=400),
                  make_series("no", Label.NOSYNCOPE, length=500, seed=1)]
        ramp = np.linspace(0.0, 1.0, 401)
        patched_eval(monkeypatch, {"sy": ramp, "no": 0.5 * ramp[::-1]})
        grid = np.linspace(0.1, 0.9, 9)
        paths = []
        for thresholds in (grid, grid.tolist()):
            paths.append(tmp_path / f"sweep{len(paths)}.csv")
            evaluate.write_sweep_csv(
                evaluate.threshold_sweep(model, series, thresholds), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes().startswith(
            b"threshold,recall,precision,f_beta,accuracy,median_reaction_s,detections\r\n"
            b"0.1,")
        assert render_csv(paths[0]) is not None
