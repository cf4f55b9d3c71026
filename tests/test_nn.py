"""Network-core tests: gate algebra, scan consistency, exact gradients
against central finite differences, and ADADELTA update arithmetic."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from sentinel import nn
from sentinel.data import Label
from sentinel.errors import DimensionMismatch, NoActivationCache
from sentinel.preprocess import CleanSeries


def direction(layer, k):
    """Direction ``k`` of a stacked layer as ``gru_cell_forward`` arguments."""
    return layer.wx[k], layer.u_zr[k], layer.u_c[k], layer.b[k]


def gru_cell_forward(x, h, wx, u_zr, u_c, b):
    """One GRU step on vectors, for one direction's fused weights (slices
    such as ``layer.wx[k]``): the unbatched oracle of ``nn._scan``."""
    n = u_c.shape[0]
    pre = x @ wx + b
    zr = nn.sigmoid(pre[:2 * n] + h @ u_zr)
    z, r = zr[:n], zr[n:]
    c = np.tanh(pre[2 * n:] + (r * h) @ u_c)
    return (1.0 - z) * h + z * c


def scalar_cell(x, h, layer, k):
    """Independent per-element re-implementation of the GRU step.

    Deliberately written with explicit loops and per-gate weight views so a
    bookkeeping mistake in the fused kernel cannot hide in both places.
    """
    n = layer.units
    wz, uz, bz = layer.gate_weights(k, "z")
    wr, ur, br = layer.gate_weights(k, "r")
    wc, uc, bc = layer.gate_weights(k, "c")
    z_vec = np.empty(n)
    r_vec = np.empty(n)
    for i in range(n):
        z_pre = bz[i] + sum(wz[i, j] * x[j] for j in range(len(x)))
        z_pre += sum(uz[i, j] * h[j] for j in range(n))
        r_pre = br[i] + sum(wr[i, j] * x[j] for j in range(len(x)))
        r_pre += sum(ur[i, j] * h[j] for j in range(n))
        z_vec[i] = 1.0 / (1.0 + np.exp(-z_pre))
        r_vec[i] = 1.0 / (1.0 + np.exp(-r_pre))
    gated = r_vec * h  # candidate sees the reset-gated state
    out = np.empty(n)
    for i in range(n):
        c_pre = bc[i] + sum(wc[i, j] * x[j] for j in range(len(x)))
        c_pre += sum(uc[i, j] * gated[j] for j in range(n))
        c = np.tanh(c_pre)
        out[i] = (1.0 - z_vec[i]) * h[i] + z_vec[i] * c
    return out


class TestSigmoid:
    GRID = np.linspace(-800.0, 800.0, 160_001)

    def test_matches_expit(self):
        assert np.abs(nn.sigmoid(self.GRID) - expit(self.GRID)).max() <= 1e-15

    def test_half_at_zero(self):
        assert nn.sigmoid(np.array(0.0)) == 0.5
        assert nn.sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_symmetric(self):
        x = self.GRID
        assert np.abs(nn.sigmoid(-x) - (1.0 - nn.sigmoid(x))).max() <= 2.3e-16

    def test_no_floating_point_warning(self):
        x = np.concatenate([self.GRID, [-1e4, 1e4]])
        with np.errstate(over="raise", invalid="raise"):
            y = nn.sigmoid(x)
        assert y[-2] == 0.0 and y[-1] == 1.0
        assert np.all((y >= 0.0) & (y <= 1.0))


class TestGruCell:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            spec = nn.ModelSpec(1, [6], bidirectional=False, window_size=4, input_channels=3)
            model = nn.init_params(spec, seed=int(rng.integers(1 << 30)))
            x = rng.normal(size=3)
            h = rng.normal(size=6)
            got = gru_cell_forward(x, h, *direction(model.layers[0], 0))
            want = scalar_cell(x, h, model.layers[0], 0)
            assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_weights_zero_state_fixed_point(self):
        spec = nn.ModelSpec(1, [5], bidirectional=False, window_size=4)
        model = nn.init_params(spec, seed=0)
        params = direction(model.layers[0], 0)
        for p in params:
            p[:] = 0.0
        h = np.zeros(5)
        for x in np.random.default_rng(1).normal(size=(10, 2)):
            h = gru_cell_forward(x, h, *params)
            assert_allclose(h, np.zeros(5), atol=0)

    def test_saturated_update_gate_replaces_state(self):
        # with b_z huge, z ~= 1 and the new state is just the candidate
        rng = np.random.default_rng(3)
        spec = nn.ModelSpec(1, [5], bidirectional=False, window_size=4)
        layer = nn.init_params(spec, seed=9).layers[0]
        layer.b[0, :5] = 60.0
        x = rng.normal(size=2)
        h = rng.normal(size=5) * 0.5
        got = gru_cell_forward(x, h, *direction(layer, 0))
        wr, ur, br = layer.gate_weights(0, "r")
        r = 1.0 / (1.0 + np.exp(-(wr @ x + ur @ h + br)))
        wc, uc, bc = layer.gate_weights(0, "c")
        want = np.tanh(wc @ x + uc @ (r * h) + bc)
        assert_allclose(got, want, atol=1e-12)

    def test_state_stays_bounded(self):
        rng = np.random.default_rng(11)
        spec = nn.ModelSpec(1, [8], bidirectional=False, window_size=4)
        params = direction(nn.init_params(spec, seed=2).layers[0], 0)
        h = np.zeros(8)
        for _ in range(500):
            h = gru_cell_forward(rng.normal(size=2) * 3, h, *params)
            assert np.all(np.abs(h) < 1.0)


class TestForward:
    def test_scan_agrees_with_cell_steps(self):
        # the backward direction steps through the window from its end
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 9, 2))
        for bidir in (False, True):
            spec = nn.ModelSpec(1, [7], bidirectional=bidir, window_size=9)
            layer = nn.init_params(spec, seed=5).layers[0]
            cache = nn._scan(x.transpose(1, 0, 2), layer, nn.Workspace(), need_cache=True)
            for k in range(layer.n_dir):
                for b in range(3):
                    h = np.zeros(7)
                    for t in range(9):
                        h = gru_cell_forward(x[b, t if k == 0 else 8 - t], h,
                                             *direction(layer, k))
                        assert_allclose(cache.hs[t, k, b], h, atol=1e-12)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(4)
        spec = nn.ModelSpec(2, [6, 5], bidirectional=True, window_size=12)
        model = nn.init_params(spec, seed=1)
        probs, _ = nn.forward_batch(model, rng.normal(size=(5, 12, 2)))
        assert probs.shape == (5, 2)
        assert np.all(probs > 0)
        assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)

    def test_no_cache_path_identical(self):
        rng = np.random.default_rng(8)
        spec = nn.ModelSpec(2, [6, 4], bidirectional=True, window_size=10)
        model = nn.init_params(spec, seed=3)
        x = rng.normal(size=(4, 10, 2))
        p1, _ = nn.forward_batch(model, x, need_cache=True)
        p2, _ = nn.forward_batch(model, x, need_cache=False)
        assert_allclose(p1, p2, atol=0)

    def test_palindrome_with_mirrored_params_gives_symmetric_features(self):
        # if the backward direction shares the forward weights and the
        # window reads the same in both directions, both feature halves
        # must agree exactly
        rng = np.random.default_rng(13)
        spec = nn.ModelSpec(1, [6], bidirectional=True, window_size=9)
        model = nn.init_params(spec, seed=17)
        layer = model.layers[0]
        for p in (layer.wx, layer.u_zr, layer.u_c, layer.b):
            p[1] = p[0]
        half = rng.normal(size=(2, 4, 2))
        mid = rng.normal(size=(2, 1, 2))
        window = np.concatenate([half, mid, half[:, ::-1]], axis=1)
        _, cache = nn.forward_batch(model, window)
        assert_allclose(cache.feat[:, :6], cache.feat[:, 6:], atol=1e-12)

    def test_window_shape_checked(self):
        spec = nn.ModelSpec(1, [5], bidirectional=False, window_size=8)
        model = nn.init_params(spec, seed=0)
        with pytest.raises(DimensionMismatch):
            nn.forward_batch(model, np.zeros((2, 7, 2)))
        with pytest.raises(DimensionMismatch):
            nn.forward_batch(model, np.zeros((2, 8, 3)))
        with pytest.raises(DimensionMismatch):
            nn.forward_batch(model, np.zeros((8, 2)))


def finite_difference_grads(model, windows, targets, step=1e-5):
    """Central-difference gradients of the mean batch loss, per parameter."""
    def loss():
        probs, _ = nn.forward_batch(model, windows)
        return nn.batch_loss(probs, targets)

    out = {}
    for name, p in model.parameters():
        g = np.zeros_like(p)
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss()
            flat[i] = orig - step
            lm = loss()
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * step)
        out[name] = g
    return out


def max_relative_error(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def oracle_gradients(model, windows, targets):
    """Gradients of the mean batch loss by BPTT written per window, per
    direction and per step on vectors, with the per-gate sums taken in the
    textbook form: the unbatched oracle of ``nn.backward_batch``."""
    grads = {name: np.zeros_like(p) for name, p in model.parameters()}
    for window, target in zip(windows, targets):
        # forward: every layer's input in natural time, and per direction the
        # steps in processing order as (t, h_prev, z, r, c)
        inputs, tapes = [window], []
        for layer in model.layers:
            x, n = inputs[-1], layer.units
            outs, tape_k = [], []
            for k in range(layer.n_dir):
                wx, u_zr, u_c, b = direction(layer, k)
                h, out, tape = np.zeros(n), np.zeros((len(x), n)), []
                for t in (range(len(x)) if k == 0 else range(len(x) - 1, -1, -1)):
                    pre = x[t] @ wx + b
                    zr = nn.sigmoid(pre[:2 * n] + h @ u_zr)
                    z, r = zr[:n], zr[n:]
                    c = np.tanh(pre[2 * n:] + (r * h) @ u_c)
                    tape.append((t, h, z, r, c))
                    h = (1.0 - z) * h + z * c
                    out[t] = h
                outs.append(out)
                tape_k.append(tape)
            inputs.append(np.concatenate(outs, axis=1))
            tapes.append(tape_k)
        # head: the forward direction ends at the last step, the backward at the first
        top, n = inputs[-1], model.layers[-1].units
        feat = np.concatenate([top[-1, :n], top[0, n:]])
        probs = nn.softmax(feat @ model.head.w + model.head.b)
        d_logits = probs - np.eye(2)[target]
        d_logits /= len(windows)
        grads["head.w"] += np.outer(feat, d_logits)
        grads["head.b"] += d_logits
        d_feat = model.head.w @ d_logits
        d_out = np.zeros_like(top)
        d_out[-1, :n] = d_feat[:n]
        d_out[0, n:] = d_feat[n:]
        for li in range(len(model.layers) - 1, -1, -1):
            layer, x, n = model.layers[li], inputs[li], model.layers[li].units
            d_in = np.zeros_like(x)
            for k, tape in enumerate(tapes[li]):
                wx, u_zr, u_c, _ = direction(layer, k)
                tag = f"layer{li}.{nn.DIRECTIONS[k]}"
                dh = np.zeros(n)
                for t, h_prev, z, r, c in reversed(tape):
                    dh = dh + d_out[t, k * n:(k + 1) * n]
                    dc = dh * z * (1.0 - c * c)
                    dz = dh * (c - h_prev) * z * (1.0 - z)
                    d_rh = u_c @ dc
                    dr = d_rh * h_prev * r * (1.0 - r)
                    d_pre = np.concatenate([dz, dr, dc])
                    grads[f"{tag}.wx"] += np.outer(x[t], d_pre)
                    grads[f"{tag}.u_zr"] += np.outer(h_prev, d_pre[:2 * n])
                    grads[f"{tag}.u_c"] += np.outer(r * h_prev, dc)
                    grads[f"{tag}.b"] += d_pre
                    d_in[t] += wx @ d_pre
                    dh = dh * (1.0 - z) + d_rh * r + u_zr @ d_pre[:2 * n]
            d_out = d_in
    return grads


class TestGradients:
    @pytest.mark.parametrize("num_layers,units,bidir", [
        (1, [8], False),
        (2, [8, 8], False),
        (2, [8, 8], True),
        (3, [6, 10, 4], True),  # unequal widths: every layer's input dim differs
    ])
    def test_backward_matches_finite_differences(self, num_layers, units, bidir):
        rng = np.random.default_rng(100 + num_layers + int(bidir))
        spec = nn.ModelSpec(num_layers, units, bidirectional=bidir,
                            window_size=20, input_channels=2)
        model = nn.init_params(spec, seed=42)
        windows = rng.normal(size=(3, 20, 2))
        targets = np.array([0, 1, 1])
        probs, cache = nn.forward_batch(model, windows)
        analytic = nn.backward_batch(model, cache, targets)
        numeric = finite_difference_grads(model, windows, targets)
        assert set(analytic) == set(numeric)
        for name in numeric:
            err = max_relative_error(analytic[name], numeric[name])
            assert err < 1e-4, f"{name}: relative error {err:.2e}"

    @pytest.mark.parametrize("num_layers,units,bidir,window,batch", [
        (1, [5], True, 1, 3),  # no step reads a previous state
        (1, [5], True, 2, 3),  # one step does
        (2, [4, 3], True, 6, 1),
        (2, [6, 5], False, 7, 4),
        (3, [6, 10, 4], True, 5, 2),
    ])
    def test_backward_matches_per_step_oracle(self, num_layers, units, bidir, window, batch):
        rng = np.random.default_rng(window * 10 + batch)
        spec = nn.ModelSpec(num_layers, units, bidirectional=bidir, window_size=window)
        model = nn.init_params(spec, seed=window + batch)
        for layer in model.layers:  # nonzero biases, so no gate sits at 1/2
            layer.b[:] = rng.normal(scale=0.5, size=layer.b.shape)
        windows = rng.normal(size=(batch, window, 2))
        targets = rng.integers(0, 2, size=batch)
        _, cache = nn.forward_batch(model, windows)
        analytic = nn.backward_batch(model, cache, targets)
        oracle = oracle_gradients(model, windows, targets)
        assert set(analytic) == set(oracle)
        for name, want in oracle.items():
            # relative to the largest entry; a window of one step has exactly
            # zero recurrent-weight gradients
            err = np.abs(analytic[name] - want).max()
            assert err <= 1e-12 * np.abs(want).max(), f"{name}: error {err:.2e}"

    def test_backward_consumes_the_cache(self):
        spec = nn.ModelSpec(1, [4], bidirectional=True, window_size=5)
        model = nn.init_params(spec, seed=2)
        windows = np.random.default_rng(4).normal(size=(2, 5, 2))
        _, cache = nn.forward_batch(model, windows)
        nn.backward_batch(model, cache, np.array([0, 1]))
        with pytest.raises(NoActivationCache, match="already consumed"):
            nn.backward_batch(model, cache, np.array([0, 1]))

    def test_batch_gradient_is_mean_of_singles(self):
        rng = np.random.default_rng(55)
        spec = nn.ModelSpec(1, [6], bidirectional=True, window_size=10)
        model = nn.init_params(spec, seed=8)
        windows = rng.normal(size=(4, 10, 2))
        targets = np.array([1, 0, 1, 0])
        _, cache = nn.forward_batch(model, windows)
        batch_grads = nn.backward_batch(model, cache, targets)
        singles = []
        for b in range(4):
            _, c1 = nn.forward_batch(model, windows[b:b + 1])
            singles.append(nn.backward_batch(model, c1, [targets[b]]))
        for name in batch_grads:
            mean = sum(s[name] for s in singles) / 4.0
            assert_allclose(batch_grads[name], mean, atol=1e-12)

    def test_inference_cache_rejected_by_name(self):
        spec = nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=6)
        model = nn.init_params(spec, seed=9)
        windows = np.random.default_rng(3).normal(size=(2, 6, 2))
        _, cache = nn.forward_batch(model, windows, need_cache=False)
        with pytest.raises(NoActivationCache, match="need_cache=False"):
            nn.backward_batch(model, cache, np.array([0, 1]))

    def test_loss_values(self):
        assert nn.batch_loss(np.array([[0.25, 0.75]]), [1]) == pytest.approx(-np.log(0.75))
        assert nn.batch_loss(np.array([[1.0, 0.0]]), [0]) == 0.0
        # floored, never inf
        assert np.isfinite(nn.batch_loss(np.array([[1.0, 0.0]]), [1]))
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        want = (-np.log(0.9) - np.log(0.6)) / 2
        assert nn.batch_loss(probs, np.array([0, 1])) == pytest.approx(want)

    def test_softmax_stability(self):
        p = nn.softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(p))
        assert_allclose(p.sum(), 1.0, atol=1e-12)
        assert_allclose(p, nn.softmax(np.array([0.0, 1.0])), atol=1e-12)


class TestWorkspace:
    @pytest.mark.parametrize("need_cache", [True, False], ids=["training", "inference"])
    def test_cache_stale_after_workspace_reused(self, need_cache):
        spec = nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=6)
        model = nn.init_params(spec, seed=9)
        windows = np.random.default_rng(3).normal(size=(2, 6, 2))
        ws = nn.Workspace()
        _, cache = nn.forward_batch(model, windows, workspace=ws)
        nn.forward_batch(model, windows[:1], need_cache, workspace=ws)
        with pytest.raises(NoActivationCache, match="later forward_batch reused its workspace"):
            nn.backward_batch(model, cache, np.array([0, 1]))

    def test_inference_layers_share_one_slot(self):
        # each layer's states are overwritten by the next layer's once its
        # input is built; the probabilities are those of a training pass
        rng = np.random.default_rng(12)
        spec = nn.ModelSpec(3, [4, 7, 5], bidirectional=True, window_size=9)
        model = nn.init_params(spec, seed=6)
        windows = rng.normal(size=(3, 9, 2))
        cached, _ = nn.forward_batch(model, windows)
        inferred, _ = nn.forward_batch(model, windows, need_cache=False)
        assert cached.tobytes() == inferred.tobytes()

    @pytest.mark.parametrize("spec", [
        nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=8),
        nn.ModelSpec(1, [6], bidirectional=False, window_size=8),
        nn.ModelSpec(3, [6, 5, 4], bidirectional=True, window_size=8),
    ], ids=["2x(5,4)b", "1x6f", "3x(6,5,4)b"])
    def test_reused_workspace_matches_a_fresh_one_bitwise(self, spec):
        # a full batch, a short one in the full one's buffers, and a full
        # one again; every buffer is filled with NaN before each reuse, so
        # an element read before it is written would show
        rng = np.random.default_rng(31)
        model = nn.init_params(spec, seed=4)
        ws = nn.Workspace()
        for batch in (5, 3, 5):
            windows = rng.normal(size=(batch, 8, 2))
            targets = rng.integers(0, 2, size=batch)
            for buf in ws._buffers.values():
                buf.fill(np.nan)
            probs, cache = nn.forward_batch(model, windows, workspace=ws)
            grads = nn.backward_batch(model, cache, targets)
            fresh_probs, fresh_cache = nn.forward_batch(model, windows)
            fresh_grads = nn.backward_batch(model, fresh_cache, targets)
            assert probs.tobytes() == fresh_probs.tobytes()
            assert {n: g.tobytes() for n, g in grads.items()} == {
                n: g.tobytes() for n, g in fresh_grads.items()}

    def test_caller_may_reuse_its_windows_before_backward(self):
        # BPTT reads layer 0's input again; the cache holds its own copy
        spec = nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=8)
        model = nn.init_params(spec, seed=8)
        rng = np.random.default_rng(17)
        windows, targets = rng.normal(size=(4, 8, 2)), np.array([0, 1, 1, 0])
        want = nn.backward_batch(model, nn.forward_batch(model, windows.copy())[1], targets)
        _, cache = nn.forward_batch(model, windows)
        windows.fill(np.nan)
        got = nn.backward_batch(model, cache, targets)
        assert {n: g.tobytes() for n, g in got.items()} == {
            n: g.tobytes() for n, g in want.items()}

    def test_training_buffers_fit_the_budget(self):
        # 2x32b, window 100, batch 16: 4L + 6.5 units of T*n_dir*B*H floats
        # (0.78 MiB) and the 25 KiB copy of the windows
        spec = nn.ModelSpec(2, [32, 32], bidirectional=True, window_size=100)
        model = nn.init_params(spec, seed=2)
        rng = np.random.default_rng(5)
        ws = nn.Workspace()
        _, cache = nn.forward_batch(model, rng.normal(size=(16, 100, 2)), workspace=ws)
        nn.backward_batch(model, cache, rng.integers(0, 2, size=16))
        assert sum(buf.nbytes for buf in ws._buffers.values()) <= 12 * 2**20


def stride_one_windows(window, n_windows, seed):
    """A random series and ``n_windows`` of its stride-1 window views,
    starting three windows in, as ``CleanSeries.windows`` gives them."""
    rng = np.random.default_rng(seed)
    series = CleanSeries(id="s", label=Label.SYNCOPE, mbp=rng.uniform(-1, 1, window + n_windows + 5),
                         hr=rng.uniform(-1, 1, window + n_windows + 5), marker_index=None,
                         rate_hz=1.25, norm_params={})
    views = series.windows(window)[0][3:3 + n_windows]
    assert views.strides[0] == views.strides[1] and len(views) == n_windows
    return series, views


class TestStrideOneWindows:
    # A stride-1 view lets layer 0 take its input shares per sample, with its
    # backward direction running the batch last-first; the probabilities and
    # features must be those of a contiguous copy, bit for bit.
    @pytest.mark.parametrize("spec", [
        nn.ModelSpec(2, [32, 32], bidirectional=True, window_size=100),
        nn.ModelSpec(1, [4], bidirectional=True, window_size=40),
        nn.ModelSpec(1, [6], bidirectional=True, window_size=50),
        nn.ModelSpec(3, [24, 40, 16], bidirectional=True, window_size=30),
        nn.ModelSpec(1, [256], bidirectional=True, window_size=12),
        nn.ModelSpec(1, [16], bidirectional=False, window_size=40),
        nn.ModelSpec(2, [8, 8], bidirectional=False, window_size=25),
        nn.ModelSpec(1, [5], bidirectional=True, window_size=1),
        nn.ModelSpec(2, [5, 3], bidirectional=True, window_size=2),
    ], ids=["2x32b", "1x4b", "1x6b", "3x(24,40,16)b", "1x256b", "1x16f", "2x8f",
            "window1", "window2"])
    @pytest.mark.parametrize("n_windows", [1, 5, 127, 128])
    def test_view_matches_its_contiguous_copy_bitwise(self, spec, n_windows):
        model = nn.init_params(spec, seed=n_windows)
        for layer in model.layers:  # nonzero biases, so a misplaced one would show
            layer.b[:] = np.random.default_rng(7).normal(scale=0.5, size=layer.b.shape)
        series, views = stride_one_windows(spec.window_size, n_windows, seed=spec.window_size)
        before = (series.mbp.tobytes(), series.hr.tobytes(), views.tobytes())
        probs, cache = nn.forward_batch(model, views, need_cache=False)
        want, want_cache = nn.forward_batch(model, np.ascontiguousarray(views), need_cache=False)
        assert probs.tobytes() == want.tobytes()
        assert cache.feat.tobytes() == want_cache.feat.tobytes()
        assert (series.mbp.tobytes(), series.hr.tobytes(), views.tobytes()) == before

    @pytest.mark.parametrize("spec", [
        nn.ModelSpec(2, [5, 4], bidirectional=True, window_size=8),
        nn.ModelSpec(1, [6], bidirectional=False, window_size=8),
    ], ids=["2x(5,4)b", "1x6f"])
    def test_training_on_a_view_gives_the_gradients_of_its_copy(self, spec):
        model = nn.init_params(spec, seed=3)
        _, views = stride_one_windows(spec.window_size, 6, seed=8)
        targets = np.array([0, 1, 1, 0, 1, 0])
        probs, cache = nn.forward_batch(model, views)
        grads = nn.backward_batch(model, cache, targets)
        want, want_cache = nn.forward_batch(model, np.ascontiguousarray(views))
        want_grads = nn.backward_batch(model, want_cache, targets)
        assert probs.tobytes() == want.tobytes()
        assert {n: g.tobytes() for n, g in grads.items()} == {
            n: g.tobytes() for n, g in want_grads.items()}


class TestInferenceBlocks:
    # An inference pass takes the input shares of the layers it does not
    # take per sample in blocks of ceil(BLOCK_ROWS / B) steps, and keeps
    # only the states the layer above still reads; a training pass takes
    # one block of all T steps. Both must give the same bits, on a stride-1
    # view and on its contiguous copy, with BLAS held as a trace holds it.
    @pytest.mark.parametrize("spec", [
        nn.ModelSpec(2, [32, 32], bidirectional=True, window_size=100),
        nn.ModelSpec(3, [24, 40, 16], bidirectional=True, window_size=30),
        nn.ModelSpec(2, [8, 8], bidirectional=False, window_size=25),
        nn.ModelSpec(2, [5, 3], bidirectional=True, window_size=2),
        nn.ModelSpec(1, [4], bidirectional=True, window_size=40),
        nn.ModelSpec(1, [256], bidirectional=True, window_size=12),
        nn.ModelSpec(1, [16], bidirectional=False, window_size=40),
        nn.ModelSpec(1, [5], bidirectional=True, window_size=1),
    ], ids=["2x32b", "3x(24,40,16)b", "2x8f", "2x(5,3)b", "1x4b", "1x256b", "1x16f",
            "window1"])
    @pytest.mark.parametrize("n_windows", [1, 5, 127, 128])
    def test_inference_matches_a_training_pass_bitwise(self, spec, n_windows):
        model = nn.init_params(spec, seed=n_windows)
        for layer in model.layers:  # nonzero biases, so a misplaced one would show
            layer.b[:] = np.random.default_rng(7).normal(scale=0.5, size=layer.b.shape)
        _, views = stride_one_windows(spec.window_size, n_windows, seed=spec.window_size)
        with nn.one_blas_thread():
            want, want_cache = nn.forward_batch(model, views, need_cache=True)
            for windows in (views, np.ascontiguousarray(views)):
                probs, cache = nn.forward_batch(model, windows, need_cache=False)
                assert probs.tobytes() == want.tobytes()
                assert cache.feat.tobytes() == want_cache.feat.tobytes()

    def test_blocks_round_within_an_ulp_where_blas_changes_kernel(self):
        # Above about 10^6 multiply-adds OpenBLAS picks its product kernel by
        # row count, and for widths such as 12 units those kernels round
        # differently: layer 1's 1,024-row blocks may then differ from the
        # training pass's one 12,800-row product in the last bit.
        spec = nn.ModelSpec(2, [12, 12], bidirectional=True, window_size=100)
        model = nn.init_params(spec, seed=128)
        _, views = stride_one_windows(spec.window_size, 128, seed=spec.window_size)
        with nn.one_blas_thread():
            want, _ = nn.forward_batch(model, views, need_cache=True)
            probs, _ = nn.forward_batch(model, views, need_cache=False)
        assert_allclose(probs, want, rtol=0, atol=1e-15)

    def test_a_trace_chunk_peaks_below_12_mib(self):
        # one 128-window stride-1 chunk of the paper's 2x32b model: the whole
        # sequence products of a training pass peak at about 32 MiB
        model = nn.init_params(nn.ModelSpec(2, [32, 32], bidirectional=True,
                                            window_size=100), seed=1)
        _, views = stride_one_windows(100, 128, seed=3)
        nn.forward_batch(model, views, need_cache=False)
        tracemalloc.start()
        try:
            nn.forward_batch(model, views, need_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestInit:
    def test_deterministic_and_bounded(self):
        spec = nn.ModelSpec(2, [12, 8], bidirectional=True, window_size=30)
        a = nn.init_params(spec, seed=99)
        b = nn.init_params(spec, seed=99)
        c = nn.init_params(spec, seed=100)
        any_diff = False
        for (name, pa), (_, pb), (_, pc) in zip(a.parameters(), b.parameters(), c.parameters()):
            assert_allclose(pa, pb, atol=0)
            if pa.size and not np.array_equal(pa, pc):
                any_diff = True
            if name.endswith(".b"):
                assert np.all(pa == 0.0)
        assert any_diff

    def test_fan_bounds_respected(self):
        spec = nn.ModelSpec(1, [16], bidirectional=False, window_size=10, input_channels=2)
        layer = nn.init_params(spec, seed=5).layers[0]
        bound_w = np.sqrt(6.0 / (2 + 16))
        bound_u = np.sqrt(6.0 / 32)
        assert np.max(np.abs(layer.wx)) <= bound_w
        assert np.max(np.abs(layer.u_zr)) <= bound_u
        assert np.max(np.abs(layer.u_c)) <= bound_u
        # spread sanity: values actually fill the range
        assert np.max(np.abs(layer.wx)) > 0.5 * bound_w

    def test_copy_is_deep(self):
        spec = nn.ModelSpec(1, [4], bidirectional=True, window_size=6)
        model = nn.init_params(spec, seed=1)
        clone = model.copy()
        for (name, p), (_, q) in zip(model.parameters(), clone.parameters()):
            if name.endswith(".b"):
                continue  # biases start at zero
            q[:] = 0.0
            assert np.any(p != 0.0), name

    def test_parameters_are_live_views_of_the_stacked_arrays(self):
        # ADADELTA updates the parameters() entries in place, so each must
        # be the memory the scans read
        spec = nn.ModelSpec(2, [5, 3], bidirectional=True, window_size=6)
        model = nn.init_params(spec, seed=4)
        names = [name for name, _ in model.parameters()]
        assert names[:8] == [f"layer0.{d}.{a}" for d in ("fwd", "bwd")
                             for a in ("wx", "u_zr", "u_c", "b")]
        for name, p in model.parameters()[:-2]:
            layer_i, tag, attr = name.split(".")
            stacked = getattr(model.layers[int(layer_i[5:])], attr)
            assert p.flags.c_contiguous, name
            assert np.shares_memory(p, stacked[nn.DIRECTIONS.index(tag)]), name
        state = nn.AdadeltaState.for_model(model)
        before = model.layers[1].u_c.copy()
        grads = {n: np.ones_like(p) for n, p in model.parameters()}
        nn.adadelta_update(model, grads, state)
        assert np.all(model.layers[1].u_c < before)


class TestAdadelta:
    def test_first_step_hand_computed(self):
        # fresh accumulators, unit gradient, rho=0.95, eps=1e-6:
        #   E[g2] = 0.05, delta = -sqrt(1e-6)/sqrt(0.050001) ~= -4.47209e-3
        spec = nn.ModelSpec(1, [2], bidirectional=False, window_size=3)
        model = nn.init_params(spec, seed=0)
        state = nn.AdadeltaState.for_model(model, rho=0.95, epsilon=1e-6)
        before = {n: p.copy() for n, p in model.parameters()}
        grads = {n: np.ones_like(p) for n, p in model.parameters()}
        nn.adadelta_update(model, grads, state)
        expected = -np.sqrt(1e-6) / np.sqrt(0.05 + 1e-6)
        assert expected == pytest.approx(-4.4720899e-3, rel=1e-6)
        for name, p in model.parameters():
            assert_allclose(p - before[name], expected, rtol=1e-12)
            assert_allclose(state.eg2[name], 0.05, rtol=1e-12)
            assert_allclose(state.edx2[name], 0.05 * expected ** 2, rtol=1e-12)

    def test_two_steps_track_hand_recurrence(self):
        rho, eps = 0.9, 1e-6
        spec = nn.ModelSpec(1, [2], bidirectional=False, window_size=3)
        model = nn.init_params(spec, seed=1)
        state = nn.AdadeltaState.for_model(model, rho=rho, epsilon=eps)
        name0, p0 = model.parameters()[0]
        rng = np.random.default_rng(2)
        g1 = {n: rng.normal(size=p.shape) for n, p in model.parameters()}
        g2 = {n: rng.normal(size=p.shape) for n, p in model.parameters()}
        start = p0.copy()
        nn.adadelta_update(model, g1, state)
        nn.adadelta_update(model, g2, state)
        # independent recurrence on the first parameter tensor
        eg2 = (1 - rho) * g1[name0] ** 2
        d1 = -np.sqrt(eps) / np.sqrt(eg2 + eps) * g1[name0]
        edx2 = (1 - rho) * d1 ** 2
        eg2 = rho * eg2 + (1 - rho) * g2[name0] ** 2
        d2 = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g2[name0]
        assert_allclose(p0, start + d1 + d2, rtol=1e-12)

    def test_lr_multiplier_scales_update_and_decays(self):
        spec = nn.ModelSpec(1, [2], bidirectional=False, window_size=3)
        model_a = nn.init_params(spec, seed=3)
        model_b = model_a.copy()
        grads = {n: np.ones_like(p) for n, p in model_a.parameters()}
        sa = nn.AdadeltaState.for_model(model_a, lr_multiplier=1.0)
        sb = nn.AdadeltaState.for_model(model_b, lr_multiplier=0.5)
        pa0 = model_a.parameters()[0][1].copy()
        nn.adadelta_update(model_a, grads, sa)
        nn.adadelta_update(model_b, grads, sb)
        da = model_a.parameters()[0][1] - pa0
        db = model_b.parameters()[0][1] - pa0
        assert_allclose(db, 0.5 * da, rtol=1e-12)
        state = nn.AdadeltaState.for_model(model_a, lr_multiplier=1.0, lr_decay=0.9)
        state.end_epoch()
        state.end_epoch()
        assert state.lr_multiplier == pytest.approx(0.81)

    def test_descends_on_fixed_batch(self):
        rng = np.random.default_rng(77)
        spec = nn.ModelSpec(1, [6], bidirectional=False, window_size=12)
        model = nn.init_params(spec, seed=10)
        state = nn.AdadeltaState.for_model(model)
        windows = rng.normal(size=(8, 12, 2))
        targets = np.array([0, 1] * 4)
        probs, cache = nn.forward_batch(model, windows)
        first = nn.batch_loss(probs, targets)
        for _ in range(150):
            probs, cache = nn.forward_batch(model, windows)
            grads = nn.backward_batch(model, cache, targets)
            nn.adadelta_update(model, grads, state)
        probs, _ = nn.forward_batch(model, windows)
        last = nn.batch_loss(probs, targets)
        assert last < first * 0.5
