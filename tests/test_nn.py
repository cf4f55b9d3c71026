"""Network-core tests: gate algebra, scan consistency, exact gradients
against central finite differences, and ADADELTA update arithmetic."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from sentinel import nn
from sentinel.errors import DimensionMismatch, NoActivationCache


def scalar_cell(x, h, params):
    """Independent per-element re-implementation of the GRU step.

    Deliberately written with explicit loops and per-gate weight views so a
    bookkeeping mistake in the fused kernel cannot hide in both places.
    """
    n = params.units
    wz, uz, bz = params.gate_weights("z")
    wr, ur, br = params.gate_weights("r")
    wc, uc, bc = params.gate_weights("c")
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
            params = model.layers[0].forward
            x = rng.normal(size=3)
            h = rng.normal(size=6)
            got = nn.gru_cell_forward(x, h, params)
            want = scalar_cell(x, h, params)
            assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_weights_zero_state_fixed_point(self):
        spec = nn.ModelSpec(1, [5], bidirectional=False, window_size=4)
        model = nn.init_params(spec, seed=0)
        params = model.layers[0].forward
        params.wx[:] = 0.0
        params.u_zr[:] = 0.0
        params.u_c[:] = 0.0
        params.b[:] = 0.0
        h = np.zeros(5)
        for x in np.random.default_rng(1).normal(size=(10, 2)):
            h = nn.gru_cell_forward(x, h, params)
            assert_allclose(h, np.zeros(5), atol=0)

    def test_saturated_update_gate_replaces_state(self):
        # with b_z huge, z ~= 1 and the new state is just the candidate
        rng = np.random.default_rng(3)
        spec = nn.ModelSpec(1, [5], bidirectional=False, window_size=4)
        params = nn.init_params(spec, seed=9).layers[0].forward
        params.b[:5] = 60.0
        x = rng.normal(size=2)
        h = rng.normal(size=5) * 0.5
        got = nn.gru_cell_forward(x, h, params)
        wr, ur, br = params.gate_weights("r")
        r = 1.0 / (1.0 + np.exp(-(wr @ x + ur @ h + br)))
        wc, uc, bc = params.gate_weights("c")
        want = np.tanh(wc @ x + uc @ (r * h) + bc)
        assert_allclose(got, want, atol=1e-12)

    def test_state_stays_bounded(self):
        rng = np.random.default_rng(11)
        spec = nn.ModelSpec(1, [8], bidirectional=False, window_size=4)
        params = nn.init_params(spec, seed=2).layers[0].forward
        h = np.zeros(8)
        for _ in range(500):
            h = nn.gru_cell_forward(rng.normal(size=2) * 3, h, params)
            assert np.all(np.abs(h) < 1.0)

    def test_dimension_mismatch(self):
        spec = nn.ModelSpec(1, [5], bidirectional=False, window_size=4)
        params = nn.init_params(spec, seed=0).layers[0].forward
        with pytest.raises(DimensionMismatch):
            nn.gru_cell_forward(np.zeros(3), np.zeros(5), params)
        with pytest.raises(DimensionMismatch):
            nn.gru_cell_forward(np.zeros(2), np.zeros(4), params)


class TestForward:
    def test_scan_agrees_with_cell_steps(self):
        rng = np.random.default_rng(21)
        spec = nn.ModelSpec(1, [7], bidirectional=False, window_size=9)
        model = nn.init_params(spec, seed=5)
        params = model.layers[0].forward
        x = rng.normal(size=(3, 9, 2))
        cache = nn._scan(x, params, need_cache=True)
        for b in range(3):
            h = np.zeros(7)
            for t in range(9):
                h = nn.gru_cell_forward(x[b, t], h, params)
                assert_allclose(cache.hs[b, t], h, atol=1e-12)

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
        f = model.layers[0].forward
        model.layers[0].backward = nn.DirectionParams(
            f.wx.copy(), f.u_zr.copy(), f.u_c.copy(), f.b.copy())
        half = rng.normal(size=(2, 4, 2))
        mid = rng.normal(size=(2, 1, 2))
        window = np.concatenate([half, mid, half[:, ::-1]], axis=1)
        _, cache = nn.forward_batch(model, window)
        assert_allclose(cache.feat[:, :6], cache.feat[:, 6:], atol=1e-12)

    def test_single_window_wrapper(self):
        rng = np.random.default_rng(30)
        spec = nn.ModelSpec(1, [5], bidirectional=False, window_size=8)
        model = nn.init_params(spec, seed=6)
        w = rng.normal(size=(8, 2))
        p_one, _ = nn.forward_sequence(w, model)
        p_batch, _ = nn.forward_batch(model, w[None])
        assert_allclose(p_one, p_batch[0], atol=0)

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


class TestGradients:
    @pytest.mark.parametrize("num_layers,units,bidir", [
        (1, [8], False),
        (2, [8, 8], False),
        (2, [8, 8], True),
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
            singles.append(nn.backward(model, c1, int(targets[b])))
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
        assert nn.cross_entropy_loss(np.array([0.25, 0.75]), 1) == pytest.approx(-np.log(0.75))
        assert nn.cross_entropy_loss(np.array([1.0, 0.0]), 0) == 0.0
        # floored, never inf
        assert np.isfinite(nn.cross_entropy_loss(np.array([1.0, 0.0]), 1))
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        want = (-np.log(0.9) - np.log(0.6)) / 2
        assert nn.batch_loss(probs, np.array([0, 1])) == pytest.approx(want)

    def test_softmax_stability(self):
        p = nn.softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.all(np.isfinite(p))
        assert_allclose(p.sum(), 1.0, atol=1e-12)
        assert_allclose(p, nn.softmax(np.array([0.0, 1.0])), atol=1e-12)


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
        model = nn.init_params(spec, seed=5)
        params = model.layers[0].forward
        bound_w = np.sqrt(6.0 / (2 + 16))
        bound_u = np.sqrt(6.0 / 32)
        assert np.max(np.abs(params.wx)) <= bound_w
        assert np.max(np.abs(params.u_zr)) <= bound_u
        assert np.max(np.abs(params.u_c)) <= bound_u
        # spread sanity: values actually fill the range
        assert np.max(np.abs(params.wx)) > 0.5 * bound_w

    def test_copy_is_deep(self):
        spec = nn.ModelSpec(1, [4], bidirectional=True, window_size=6)
        model = nn.init_params(spec, seed=1)
        clone = model.copy()
        clone.layers[0].forward.wx[:] = 0.0
        assert np.any(model.layers[0].forward.wx != 0.0)


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
