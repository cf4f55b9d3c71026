"""Windowing rule, training loop determinism, and checkpoint round trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sentinel import nn, train
from sentinel.data import Label, read_table
from sentinel.errors import (
    BadWindow,
    ConfigError,
    CorruptCheckpoint,
    NonFiniteLoss,
    NoPositiveWindows,
    SeriesTooShort,
    VersionMismatch,
)
from sentinel.preprocess import CleanSeries, SplitDataset


def make_series(sid, label, length, marker=None, seed=0):
    rng = np.random.default_rng(seed)
    return CleanSeries(
        id=sid,
        label=label,
        mbp=rng.uniform(-1, 1, size=length),
        hr=rng.uniform(-1, 1, size=length),
        marker_index=marker,
        rate_hz=1.25,
        norm_params={"mBP": (60.0, 110.0), "HR": (50.0, 120.0)},
    )


def cfg(**kw):
    base = dict(window_size=100, epochs=1, stride=10, positive_horizon=750,
                batch_size=16, seed=0)
    base.update(kw)
    return train.TrainConfig(**base)


class TestMakeWindows:
    # the cutter (CleanSeries.windows) and the labels build_window_set gives
    # the windows it cuts

    def test_nosyncope_all_negative(self):
        s = make_series("a", Label.NOSYNCOPE, 500)
        assert s.windows(100, 100)[1].tolist() == [99, 199, 299, 399, 499]
        ws = train.build_window_set([s], cfg(stride=100))
        assert len(ws) == 5
        assert (ws.labels == train.NEGATIVE).all()

    def test_syncope_labeling_against_bruteforce(self):
        # horizon 750, window 100, stride 50: positives end in
        # [marker - 750, marker], negatives end earlier, nothing ends after
        # the marker; at marker 999 a window ends on each of those bounds
        for marker in (1000, 999):
            s = make_series("b", Label.SYNCOPE, 1200, marker=marker)
            ws = train.build_window_set([s], cfg(stride=50, positive_horizon=750))
            expected = []
            for start in range(0, 1200 - 100 + 1, 50):
                end = start + 99
                if end > marker:
                    continue
                expected.append((end, 1 if end >= marker - 750 else 0))
            # the kept windows are the cutter's first ones, in order
            ends = s.windows(100, 50)[1][:len(ws)].tolist()
            assert list(zip(ends, ws.labels.tolist())) == expected
            assert ws.labels.any() and not ws.labels.all()
            x = s.window_input()
            for w, end in zip(ws.inputs, ends):
                assert_allclose(w, x[end - 99:end + 1], atol=0)

    def test_window_contents_match_source(self):
        s = make_series("c", Label.NOSYNCOPE, 300, seed=3)
        windows, ends = s.windows(50, 70)
        assert windows.shape == (len(ends), 50, 2)
        assert not windows.flags.writeable
        x = s.window_input()
        for w, end in zip(windows, ends):
            assert_allclose(w, x[end - 49:end + 1], atol=0)
        ws = train.build_window_set([s], cfg(window_size=50, stride=70))
        assert_allclose(ws.inputs, windows, atol=0)

    def test_too_short_raises(self):
        s = make_series("d", Label.NOSYNCOPE, 99)
        with pytest.raises(SeriesTooShort):
            s.windows(100)
        with pytest.raises(SeriesTooShort):
            train.build_window_set([s], cfg(window_size=100))

    def test_markerless_syncope_yields_nothing(self):
        s = make_series("e", Label.SYNCOPE, 400, marker=None)
        ws = train.build_window_set([s], cfg())
        assert len(ws) == 0
        assert ws.inputs.shape == (0, 100, 2)
        assert ws.skipped_series == ["e"]

    def test_window_count_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            length = int(rng.integers(100, 900))
            window = int(rng.integers(10, 99))
            stride = int(rng.integers(1, 60))
            s = make_series("f", Label.NOSYNCOPE, length)
            want = (length - window) // stride + 1
            windows, ends = s.windows(window, stride)
            assert len(windows) == len(ends) == want
            ws = train.build_window_set(
                [s], cfg(window_size=window, stride=stride, positive_horizon=window))
            assert len(ws) == want

    def test_config_validation(self):
        with pytest.raises(BadWindow):
            cfg(window_size=0)
        with pytest.raises(BadWindow):
            cfg(stride=0)
        with pytest.raises(BadWindow):
            cfg(window_size=100, positive_horizon=99)
        with pytest.raises(ConfigError):
            cfg(batch_size=0)
        with pytest.raises(ConfigError):
            cfg(epochs=-1)


def row_of(ws):
    """Each window's row in the window set, keyed by its bytes (the windows
    of random series are all different)."""
    return {w.tobytes(): i for i, w in enumerate(ws.inputs)}


class TestBatches:
    def test_shuffle_is_permutation(self):
        series = [make_series("a", Label.NOSYNCOPE, 300, seed=1),
                  make_series("b", Label.SYNCOPE, 300, marker=250, seed=2)]
        ws = train.build_window_set(series, cfg(window_size=50, stride=25,
                                                positive_horizon=100))
        rows = row_of(ws)
        assert len(rows) == len(ws)
        rng = np.random.default_rng(0)
        first = [rows[w.tobytes()] for inputs, _ in train.iter_batches(ws, 4, rng)
                 for w in inputs]
        second = [rows[w.tobytes()] for inputs, _ in train.iter_batches(ws, 4, rng)
                  for w in inputs]
        assert sorted(first) == sorted(second) == list(range(len(ws)))
        assert first != second  # actually reshuffles

    def test_batch_labels_match_rows(self):
        series = [make_series("a", Label.SYNCOPE, 200, marker=180)]
        ws = train.build_window_set(series, cfg(window_size=50, stride=10,
                                                positive_horizon=60))
        rows = row_of(ws)
        for inputs, labels in train.iter_batches(ws, 8, np.random.default_rng(1)):
            assert len(labels) == len(inputs)
            assert_allclose(labels, ws.labels[[rows[w.tobytes()] for w in inputs]])

    def test_short_final_batch_kept(self):
        series = [make_series("a", Label.NOSYNCOPE, 200)]
        ws = train.build_window_set(series, cfg(window_size=50, stride=10))
        n = len(ws)
        sizes = [len(labels)
                 for _, labels in train.iter_batches(ws, 7, np.random.default_rng(0))]
        assert sum(sizes) == n
        assert sizes[-1] == n % 7 or n % 7 == 0


def tiny_split(seed=0):
    train_series = [
        make_series("s1", Label.SYNCOPE, 260, marker=240, seed=seed + 1),
        make_series("n1", Label.NOSYNCOPE, 260, seed=seed + 2),
    ]
    test_series = [make_series("t1", Label.NOSYNCOPE, 260, seed=seed + 3)]
    return SplitDataset(train=train_series, test=test_series, seed=seed)


def tiny_spec(window=60):
    return nn.ModelSpec(1, [6], bidirectional=False, window_size=window)


SRC = Path(__file__).resolve().parent.parent / "src"

# Trains a 2x32b bidirectional model for one epoch on two random series and
# saves it, with its optimizer state, to the path given as argument.
FIT_2X32B = """
import sys
import numpy as np
from sentinel import nn, train
from sentinel.data import Label, read_table
from sentinel.preprocess import CleanSeries, SplitDataset

def series(sid, label, marker, seed):
    rng = np.random.default_rng(seed)
    return CleanSeries(id=sid, label=label, mbp=rng.uniform(-1, 1, 400),
                       hr=rng.uniform(-1, 1, 400), marker_index=marker, rate_hz=1.25,
                       norm_params={"mBP": (60.0, 110.0), "HR": (50.0, 120.0)})

split = SplitDataset(train=[series("s", Label.SYNCOPE, 380, 1),
                            series("n", Label.NOSYNCOPE, None, 2)], test=[], seed=0)
spec = nn.ModelSpec(2, [32, 32], bidirectional=True, window_size=100)
cfg = train.TrainConfig(window_size=100, epochs=1, stride=10, positive_horizon=300, seed=0)
model, state, _ = train.fit(split, spec, cfg)
train.save_checkpoint(model, sys.argv[1], optimizer=state)
"""


class TestFit:
    def test_epochs_zero_returns_init(self):
        split = tiny_split()
        c = cfg(window_size=60, epochs=0, stride=20, positive_horizon=80, seed=5)
        model, state, history = train.fit(split, tiny_spec(), c)
        reference = nn.init_params(tiny_spec(), seed=5)
        for (_, p), (_, q) in zip(model.parameters(), reference.parameters()):
            assert_allclose(p, q, atol=0)
        assert history.epoch_losses == []

    def test_same_seed_identical_trace(self):
        c = cfg(window_size=60, epochs=3, stride=20, positive_horizon=80, seed=7)
        m1, _, h1 = train.fit(tiny_split(), tiny_spec(), c)
        m2, _, h2 = train.fit(tiny_split(), tiny_spec(), c)
        assert h1.epoch_losses == h2.epoch_losses
        for (_, p), (_, q) in zip(m1.parameters(), m2.parameters()):
            assert_allclose(p, q, atol=0)

    def test_overfits_repeated_positive_window(self):
        # one positive window replicated across many identical series
        base = make_series("p", Label.SYNCOPE, 60, marker=59, seed=4)
        copies = [CleanSeries(id=f"p{i}", label=base.label, mbp=base.mbp,
                              hr=base.hr, marker_index=base.marker_index,
                              rate_hz=base.rate_hz, norm_params=base.norm_params)
                  for i in range(64)]
        split = SplitDataset(train=copies, test=[], seed=0)
        c = cfg(window_size=60, epochs=50, stride=60, positive_horizon=60, seed=1)
        model, _, history = train.fit(split, tiny_spec(), c)
        assert history.n_windows == 64
        assert history.n_positive == 64
        assert history.epoch_losses[-1] < 0.1
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_loss_trace_finite_and_decreasing_overall(self):
        c = cfg(window_size=60, epochs=8, stride=10, positive_horizon=80, seed=3)
        _, _, history = train.fit(tiny_split(), tiny_spec(), c)
        assert len(history.epoch_losses) == 8
        assert all(np.isfinite(v) for v in history.epoch_losses)

    def test_no_positive_windows_raises(self):
        split = SplitDataset(train=[make_series("n", Label.NOSYNCOPE, 260)],
                             test=[], seed=0)
        with pytest.raises(NoPositiveWindows):
            train.fit(split, tiny_spec(), cfg(window_size=60, positive_horizon=80))

    def test_markerless_syncope_skipped_and_reported(self):
        split = tiny_split()
        split.train.append(make_series("m0", Label.SYNCOPE, 260, marker=None))
        c = cfg(window_size=60, epochs=1, stride=20, positive_horizon=80)
        _, _, history = train.fit(split, tiny_spec(), c)
        assert history.skipped_series == ["m0"]

    def test_window_size_mismatch_rejected(self):
        with pytest.raises(BadWindow):
            train.fit(tiny_split(), tiny_spec(window=50),
                      cfg(window_size=60, positive_horizon=80))

    def test_divergence_raises_with_last_good(self):
        c = cfg(window_size=60, epochs=5, stride=10, positive_horizon=80,
                seed=2, lr_multiplier=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLoss) as err:
                train.fit(tiny_split(), tiny_spec(), c)
        assert isinstance(err.value.last_good_model, nn.GruModel)

    def test_weights_independent_of_blas_threads(self, tmp_path):
        # a 2x32b model's sums over rows are large enough for OpenBLAS to
        # split across threads; fit holds it to one, so the bytes agree
        paths = []
        for threads in ("1", "2"):
            path = tmp_path / f"model-{threads}.ckpt"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
            done = subprocess.run([sys.executable, "-c", FIT_2X32B, str(path)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("spec, digest", [
        (nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=60),
         "0fb2ed3be82b61722a29f40eb434a589589ea20b03f70b162b2b309814021149"),
        (nn.ModelSpec(1, [6], bidirectional=False, window_size=60),
         "7bd77db6c011df0f7bf1e44ad1c1adfed40c81598299aed5f4c5d8e07bff21f6"),
    ])
    def test_golden_fit_checkpoint(self, spec, digest, tmp_path):
        # windowing at stride 20 (a markerless syncope series skipped), the
        # shuffle, BPTT and ADADELTA over two epochs, pinned. Unlike the
        # init-only golden file, these bytes pass through OpenBLAS (held to
        # one thread) and numpy's tanh: pinned with numpy 2.4.6 on x86-64, a
        # CPU or build whose kernels round otherwise can read other bytes.
        import hashlib
        split = tiny_split(seed=3)
        split.train.append(make_series("m0", Label.SYNCOPE, 260, marker=None, seed=9))
        c = cfg(window_size=60, epochs=2, stride=20, positive_horizon=80,
                batch_size=4, seed=6)
        model, state, history = train.fit(split, spec, c)
        assert history.skipped_series == ["m0"]
        assert (history.n_windows, history.n_positive) == (21, 4)
        path = tmp_path / "model.ckpt"
        train.save_checkpoint(model, path, optimizer=state)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_golden_fit_2x32b_checkpoint(self, tmp_path):
        # the paper's layer shapes at batch 16, with a short last batch of
        # 12 (60 windows): the shapes whose scan and BPTT buffers a fit
        # reuses. Pinned, like the fits above, with numpy 2.4.6 on x86-64.
        import hashlib
        path = tmp_path / "model.ckpt"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", FIT_2X32B, str(path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "4b76a86ac301e418cde125df8b27881180d5bde03b4b458c9312fdc6ee17a134")

    def test_no_workspace_buffer_allocated_after_the_first_epoch(self, monkeypatch):
        # 21 windows at batch 8: two full batches and a short one per epoch
        seen = []
        real = train.forward_batch

        def spy(model, windows, *args, workspace, **kwargs):
            seen.append((workspace, workspace.allocations))
            return real(model, windows, *args, workspace=workspace, **kwargs)

        monkeypatch.setattr(train, "forward_batch", spy)
        c = cfg(window_size=60, epochs=3, stride=20, positive_horizon=80, batch_size=8)
        _, _, history = train.fit(tiny_split(), nn.ModelSpec(2, [5, 4], True, 60), c)
        assert history.n_windows == 21 and len(seen) == 9
        ws = seen[0][0]
        assert all(w is ws for w, _ in seen)
        # counted before the first batch of epoch 2, after all of epoch 1
        assert seen[3][1] == ws.allocations > 0

    def test_no_leakage_from_test_series(self):
        split = tiny_split()
        ws = train.build_window_set(split.train,
                                    cfg(window_size=60, stride=20, positive_horizon=80))
        def rows(series_list):
            return {w.tobytes() for s in series_list for w in s.windows(60, 20)[0]}

        train_rows, test_rows = rows(split.train), rows(split.test)
        seen = {w.tobytes() for w in ws.inputs}
        assert seen and seen <= train_rows
        assert not (seen & test_rows)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        spec = nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=30)
        model = nn.init_params(spec, seed=11)
        state = nn.AdadeltaState.for_model(model, rho=0.9, lr_multiplier=0.7,
                                           lr_decay=0.99)
        # make optimizer state non-trivial
        grads = {n: np.full_like(p, 0.01) for n, p in model.parameters()}
        nn.adadelta_update(model, grads, state)
        path = tmp_path / "model.ckpt"
        train.save_checkpoint(model, path, optimizer=state)
        loaded, opt = train.load_checkpoint(path, with_optimizer=True)
        for (na, pa), (nb, pb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            assert_allclose(pa, pb, atol=0)
        assert opt.rho == state.rho
        assert opt.lr_multiplier == state.lr_multiplier
        for name in state.eg2:
            assert_allclose(opt.eg2[name], state.eg2[name], atol=0)
            assert_allclose(opt.edx2[name], state.edx2[name], atol=0)
        rng = np.random.default_rng(0)
        w = rng.normal(size=(10, 30, 2))
        p1, _ = nn.forward_batch(model, w, need_cache=False)
        p2, _ = nn.forward_batch(loaded, w, need_cache=False)
        assert_allclose(p1, p2, atol=0)

    def test_load_without_optimizer_flag(self, tmp_path):
        model = nn.init_params(tiny_spec(), seed=1)
        path = tmp_path / "m.ckpt"
        train.save_checkpoint(model, path)
        loaded = train.load_checkpoint(path)
        assert isinstance(loaded, nn.GruModel)
        _, opt = train.load_checkpoint(path, with_optimizer=True)
        assert opt is None

    def test_truncated_file_corrupt(self, tmp_path):
        model = nn.init_params(tiny_spec(), seed=1)
        path = tmp_path / "m.ckpt"
        train.save_checkpoint(model, path)
        blob = path.read_text()
        path.write_text(blob[:len(blob) // 2])
        with pytest.raises(CorruptCheckpoint):
            train.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        import json
        model = nn.init_params(tiny_spec(), seed=1)
        path = tmp_path / "m.ckpt"
        train.save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            train.load_checkpoint(path)

    def test_wrong_shape_corrupt(self, tmp_path):
        import json
        model = nn.init_params(tiny_spec(), seed=1)
        path = tmp_path / "m.ckpt"
        train.save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["model"]["layers"][0]["forward"]["w_z"] = [[0.0, 0.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpoint):
            train.load_checkpoint(path)

    def test_forward_only_spec_with_backward_params_corrupt(self, tmp_path):
        import json
        model = nn.init_params(tiny_spec(), seed=1)
        path = tmp_path / "m.ckpt"
        train.save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        layer = doc["model"]["layers"][0]
        assert layer["backward"] is None
        layer["backward"] = layer["forward"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpoint, match="layer 0"):
            train.load_checkpoint(path)

    def test_bidirectional_spec_without_backward_params_corrupt(self, tmp_path):
        import json
        spec = nn.ModelSpec(2, [3, 2], bidirectional=True, window_size=5)
        path = tmp_path / "m.ckpt"
        train.save_checkpoint(nn.init_params(spec, seed=1), path)
        doc = json.loads(path.read_text())
        doc["model"]["layers"][1]["backward"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptCheckpoint, match="layer 1"):
            train.load_checkpoint(path)

    def test_golden_bytes(self, tmp_path):
        # format v1, the parameter names and the init sampling order, pinned:
        # init and ADADELTA use no BLAS and JSON writes floats by repr, so
        # these bytes are the same on every machine
        import hashlib
        spec = nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=30)
        model = nn.init_params(spec, seed=11)
        state = nn.AdadeltaState.for_model(model, rho=0.9, lr_multiplier=0.7,
                                           lr_decay=0.99)
        rng = np.random.default_rng(3)
        grads = {n: rng.normal(size=p.shape) for n, p in model.parameters()}
        nn.adadelta_update(model, grads, state)
        path = tmp_path / "model.ckpt"
        train.save_checkpoint(model, path, optimizer=state)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b3cec0e2fa7c77c818456a98bf3c4130427d2aa85f91824de43a209b13d3e7bb")

    def test_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(CorruptCheckpoint):
            train.load_checkpoint(path)
        missing = tmp_path / "absent.ckpt"
        with pytest.raises(CorruptCheckpoint):
            train.load_checkpoint(missing)

    def test_loss_trace_round_trip(self, tmp_path):
        losses = [0.7, 0.35123456789012345, 0.1]
        path = tmp_path / "trace.csv"
        train.save_loss_trace(losses, path)
        header, rows = read_table(path)
        assert [float(loss) for _, loss in rows] == losses
        assert header == ["epoch", "loss"]
        assert path.read_bytes().startswith(b"epoch,loss\r\n0,0.7\r\n")
