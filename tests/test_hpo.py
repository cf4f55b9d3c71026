"""Search-space mapping, GP surrogate behavior, EI acquisition, the
two-phase loop, and partial dependence."""

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sentinel import evaluate, hpo, train
from sentinel.data import Label
from sentinel.errors import AllTrialsFailed, ConfigError, ConfigInvalid, DegenerateSurrogate
from sentinel.nn import ModelSpec
from sentinel.train import TrainConfig


def unit_space(n=2):
    return hpo.SearchSpace([hpo.Dimension(f"u{i}", "real", 0.0, 1.0)
                            for i in range(n)])


class TestSpace:
    def test_default_space_dimensions(self):
        space = hpo.default_space()
        assert space.names == ["gru_units", "gru_layers", "window_size",
                               "batch_size", "learning_rate", "lr_decay",
                               "output_threshold"]
        by_name = {d.name: d for d in space.dimensions}
        assert by_name["gru_units"].kind == "integer"
        assert by_name["learning_rate"].kind == "log-real"
        assert (by_name["learning_rate"].lower,
                by_name["learning_rate"].upper) == (1e-3, 1.0)
        assert (by_name["output_threshold"].lower,
                by_name["output_threshold"].upper) == (0.3, 0.9)

    def test_default_space_is_unchanged(self):
        # repr, so that the bounds keep their types as well as their values
        assert repr(hpo.default_space().dimensions) == repr([
            hpo.Dimension("gru_units", "integer", 32, 256),
            hpo.Dimension("gru_layers", "integer", 1, 3),
            hpo.Dimension("window_size", "integer", 50, 500),
            hpo.Dimension("batch_size", "integer", 8, 64),
            hpo.Dimension("learning_rate", "log-real", 1e-3, 1.0),
            hpo.Dimension("lr_decay", "real", 0.8, 1.0),
            hpo.Dimension("output_threshold", "real", 0.3, 0.9),
        ])

    def test_integer_rounding_and_bounds(self):
        d = hpo.Dimension("n", "integer", 1, 3)
        assert d.from_unit(0.0) == 1
        assert d.from_unit(1.0) == 3
        assert d.from_unit(0.49) == 2
        assert isinstance(d.from_unit(0.7), int)
        # clipping out-of-range unit coords
        assert d.from_unit(-0.5) == 1
        assert d.from_unit(1.5) == 3

    def test_log_real_mapping(self):
        d = hpo.Dimension("lr", "log-real", 1e-3, 1.0)
        assert d.from_unit(0.0) == pytest.approx(1e-3)
        assert d.from_unit(1.0) == pytest.approx(1.0)
        # midpoint in log space is the geometric mean
        assert d.from_unit(0.5) == pytest.approx(math.sqrt(1e-3))
        assert d.to_unit(d.from_unit(0.37)) == pytest.approx(0.37)

    def test_round_trip_unit_coords(self):
        space = hpo.default_space()
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = space.from_unit(rng.uniform(size=7))
            assert space.contains(params)
            u = space.to_unit(params)
            again = space.from_unit(u)
            assert again == params

    def test_validation(self):
        with pytest.raises(ConfigError):
            hpo.Dimension("x", "real", 1.0, 1.0)
        with pytest.raises(ConfigError):
            hpo.Dimension("x", "integer", 0.5, 3)
        with pytest.raises(ConfigError):
            hpo.Dimension("x", "log-real", 0.0, 1.0)
        with pytest.raises(ConfigError):
            hpo.Dimension("x", "weird", 0.0, 1.0)
        with pytest.raises(ConfigError):
            hpo.SearchSpace([hpo.Dimension("a", "real", 0, 1),
                             hpo.Dimension("a", "real", 0, 1)])

    def test_phase2_subset(self):
        space = hpo.default_space()
        sub = hpo.phase2_space(space)
        assert sub.names == ["gru_units", "gru_layers", "window_size"]
        assert set(sub.names) < set(space.names)
        with pytest.raises(ConfigError):
            hpo.phase2_space(unit_space())


class TestSurrogate:
    def smooth_fn(self, u):
        return 0.3 + 0.4 * (u[0] - 0.4) ** 2 + 0.2 * math.sin(3 * u[1])

    def test_posterior_interpolates_observations(self):
        space = unit_space(2)
        surr = hpo.Surrogate(space, seed=1)
        rng = np.random.default_rng(2)
        points = rng.uniform(size=(10, 2))
        for u in points:
            hpo.observe(surr, space.from_unit(u), self.smooth_fn(u))
        mu, var = surr.posterior(surr.x)
        assert_allclose(mu, surr.y, atol=1e-3)
        tol = 3.0 * math.sqrt(surr.noise_var) + 1e-6
        assert np.all(np.abs(mu - surr.y) <= tol)

    def test_far_point_variance_approaches_prior(self):
        space = unit_space(2)
        surr = hpo.Surrogate(space, seed=1)
        for u in np.random.default_rng(3).uniform(0, 0.2, size=(5, 2)):
            hpo.observe(surr, space.from_unit(u), float(u.sum()))
        surr.log_ell = np.log([0.05, 0.05])
        surr.log_sf = 0.5 * math.log(2.0)
        surr.log_sn = 0.5 * math.log(1e-6)
        surr._chol = None  # refactorized on the next posterior
        _, var = surr.posterior(np.array([[0.95, 0.95]]))
        assert var[0] == pytest.approx(2.0, rel=1e-6)

    def test_duplicate_observations_absorbed(self):
        space = unit_space(2)
        surr = hpo.Surrogate(space, seed=1)
        params = {"u0": 0.5, "u1": 0.5}
        hpo.observe(surr, params, 0.4)
        hpo.observe(surr, params, 0.4)
        hpo.observe(surr, {"u0": 0.1, "u1": 0.9}, 0.6)
        mu, var = surr.posterior(np.array([[0.5, 0.5]]))
        assert np.isfinite(mu[0]) and np.isfinite(var[0])

    def test_degenerate_kernel_detected(self):
        space = unit_space(2)
        surr = hpo.Surrogate(space, seed=1)
        surr.x = np.tile([[0.5, 0.5]], (3, 1))
        surr.y = np.array([0.1, 0.1, 0.1])
        surr.log_ell = np.log([10.0, 10.0])
        surr.log_sf = 0.5 * math.log(1e18)
        surr.log_sn = 0.5 * math.log(1e-30)
        surr._chol = None
        with pytest.raises(DegenerateSurrogate):
            surr.posterior(np.array([[0.5, 0.5]]))

    def test_empty_surrogate_prior(self):
        surr = hpo.Surrogate(unit_space(2), seed=0)
        mu, var = surr.posterior(np.array([[0.3, 0.3]]))
        assert mu[0] == 0.0
        assert var[0] == pytest.approx(surr.signal_var)
        with pytest.raises(DegenerateSurrogate):
            _ = surr.best_objective


class TestLikelihoodGradient:
    """The analytic gradient of the refit's negative log likelihood against
    central differences."""

    STEP = 1e-5

    def check(self, theta, x, y):
        nll, grad = hpo._negative_log_likelihood(theta, x, y)
        numeric = np.empty_like(grad)
        for i, e in enumerate(np.eye(len(theta))):
            up, _ = hpo._negative_log_likelihood(theta + self.STEP * e, x, y)
            down, _ = hpo._negative_log_likelihood(theta - self.STEP * e, x, y)
            numeric[i] = (up - down) / (2 * self.STEP)
        # The differences lose about eps * cond(K) * |nll| / STEP to rounding,
        # which swamps small components where the kernel is ill-conditioned.
        d = x.shape[1]
        k = (hpo._kernel(x, x, theta[:d], theta[d])
             + (math.exp(2 * theta[d + 1]) + hpo.JITTER) * np.eye(len(x)))
        lost = np.finfo(float).eps * np.linalg.cond(k) * abs(nll) / self.STEP
        assert_allclose(grad, numeric, rtol=1e-5,
                        atol=1e-5 * np.abs(numeric).max() + 10 * lost)

    def data(self, n, d, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(n, d)), rng.choice([0.0, 0.25, 0.5, 1.0], size=n)

    @pytest.mark.parametrize("n, d", [(2, 1), (2, 4), (6, 1), (9, 3), (14, 7)])
    def test_interior(self, n, d):
        lo, hi = np.array(hpo._theta_bounds(d)).T
        for seed in range(4):
            x, y = self.data(n, d, seed)
            u = np.random.default_rng([seed, 1]).uniform(0.05, 0.95, size=d + 2)
            self.check(lo + u * (hi - lo), x, y)

    @pytest.mark.parametrize("n, d", [(2, 1), (5, 2), (8, 3)])
    def test_on_the_bounds(self, n, d):
        lo, hi = np.array(hpo._theta_bounds(d)).T
        x, y = self.data(n, d, seed=n)
        corners = np.random.default_rng(d).integers(0, 2, size=(6, d + 2))
        for corner in [np.zeros(d + 2), np.ones(d + 2), *corners]:
            self.check(np.where(corner == 1, hi, lo), x, y)

    def test_not_positive_definite(self):
        x = np.tile([[0.5, 0.5]], (3, 1))
        theta = np.array([math.log(10.0), math.log(10.0),
                          0.5 * math.log(1e18), 0.5 * math.log(1e-30)])
        nll, grad = hpo._negative_log_likelihood(theta, x, np.full(3, 0.1))
        assert nll == 1e25
        assert np.array_equal(grad, np.zeros(4))


class TestExpectedImprovement:
    def test_zero_variance_is_zero(self):
        ei = hpo.expected_improvement(np.array([0.2, 0.5]),
                                      np.array([0.0, 0.0]), best=0.4)
        assert_allclose(ei, 0.0)

    def test_at_best_with_unit_sigma(self):
        # gamma = 0: EI = sigma * pdf(0) = 1/sqrt(2*pi)
        ei = hpo.expected_improvement(np.array([0.4]), np.array([1.0]), best=0.4)
        assert ei[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert ei[0] == pytest.approx(0.3989, abs=5e-5)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(size=300)
        sigma = np.abs(rng.normal(size=300))
        sigma[::7] = 0.0
        ei = hpo.expected_improvement(mu, sigma, best=0.0)
        assert np.all(ei >= 0.0)

    def test_lower_mean_more_attractive(self):
        lo = hpo.expected_improvement(np.array([-1.0]), np.array([1.0]), 0.0)
        hi = hpo.expected_improvement(np.array([1.0]), np.array([1.0]), 0.0)
        assert lo[0] > hi[0]


class TestSuggest:
    def test_first_point_deterministic(self):
        space = hpo.default_space()
        a = hpo.suggest_next(hpo.Surrogate(space, seed=5))
        b = hpo.suggest_next(hpo.Surrogate(space, seed=5))
        c = hpo.suggest_next(hpo.Surrogate(space, seed=6))
        assert a == b
        assert space.contains(a)
        assert a != c

    def test_all_suggestions_respect_bounds(self):
        space = hpo.default_space()
        surr = hpo.Surrogate(space, seed=7)
        rng = np.random.default_rng(7)
        for _ in range(12):
            params = hpo.suggest_next(surr)
            assert space.contains(params)
            for d in space.dimensions:
                if d.kind == "integer":
                    assert isinstance(params[d.name], int)
            hpo.observe(surr, params, float(rng.uniform(0.2, 0.8)))


def quadratic_objective(params):
    return (params["u0"] - 0.5) ** 2 + (params["u1"] - 0.5) ** 2


class TestRunPhase:
    def test_finds_known_optimum(self):
        trials, best = hpo.run_phase(unit_space(2), budget=20,
                                     objective_fn=quadratic_objective, seed=3)
        assert len(trials) == 20
        assert best.objective < 0.01

    def test_budget_equal_to_n_init(self):
        trials, best = hpo.run_phase(unit_space(2), budget=8,
                                     objective_fn=quadratic_objective, seed=1)
        assert len(trials) == 8
        assert all(t.status == "done" for t in trials)
        assert best.objective == min(t.objective for t in trials)

    def test_deterministic_for_seed(self):
        t1, b1 = hpo.run_phase(unit_space(2), 12, quadratic_objective, seed=9)
        t2, b2 = hpo.run_phase(unit_space(2), 12, quadratic_objective, seed=9)
        assert [t.params for t in t1] == [t.params for t in t2]
        assert [t.objective for t in t1] == [t.objective for t in t2]
        assert b1.params == b2.params

    def test_best_so_far_non_increasing(self):
        trials, _ = hpo.run_phase(unit_space(2), 16, quadratic_objective, seed=2)
        best_so_far = np.minimum.accumulate([t.objective for t in trials])
        assert all(a >= b for a, b in zip(best_so_far, best_so_far[1:]))

    def test_failed_trials_recorded(self, caplog):
        def flaky(params):
            if params["u0"] > 0.5:
                raise RuntimeError("boom")
            return params["u0"]

        caplog.set_level(logging.WARNING, logger="sentinel.hpo")
        trials, best = hpo.run_phase(unit_space(2), 12, flaky, seed=4)
        statuses = {t.status for t in trials}
        assert "failed" in statuses and "done" in statuses
        for t in trials:
            if t.status == "failed":
                assert t.objective == 1.0
            else:
                assert t.params["u0"] <= 0.5
        assert best.status == "done"
        warnings = [r for r in caplog.records
                    if r.name == "sentinel.hpo" and r.levelno == logging.WARNING]
        assert len(warnings) == sum(t.status == "failed" for t in trials)
        assert all("RuntimeError: boom" in r.getMessage() for r in warnings)

    def test_all_failed_raises(self):
        def broken(params):
            raise RuntimeError("nope")

        with pytest.raises(AllTrialsFailed):
            hpo.run_phase(unit_space(2), 8, broken, seed=0)

    def test_non_finite_objective_is_failure(self):
        def nan_fn(params):
            return float("nan")

        with pytest.raises(AllTrialsFailed):
            hpo.run_phase(unit_space(2), 8, nan_fn, seed=0)

    def test_budget_below_n_init(self):
        with pytest.raises(ConfigError):
            hpo.run_phase(unit_space(2), 3, quadratic_objective, seed=0)
        # but a smaller explicit n_init is fine
        trials, _ = hpo.run_phase(unit_space(2), 3, quadratic_objective,
                                  seed=0, n_init=2)
        assert len(trials) == 3

    @pytest.mark.parametrize("n_init", [0, -2])
    def test_n_init_below_one_rejected_before_any_trial(self, n_init):
        calls = []
        with pytest.raises(ConfigError, match="n_init"):
            hpo.run_phase(unit_space(2), 3, calls.append, seed=0, n_init=n_init)
        assert calls == []


class TestTwoPhase:
    def test_phase2_restricted_and_pinned(self):
        space = hpo.default_space()

        def objective(params):
            u = space.to_unit(params)
            return float(np.mean((u - 0.5) ** 2))

        result = hpo.run_two_phase(space, budget1=6, budget2=5,
                                   objective_fn=objective, seed=11, n_init=4)
        assert len(result.phase1) == 6
        assert len(result.phase2) == 5
        for t in result.phase2:
            assert set(t.params) == {"gru_units", "gru_layers", "window_size"}
        best1 = hpo.best_trial(result.phase1)
        best2 = hpo.best_trial(result.phase2)
        assert set(result.best_params) == set(space.names)
        for name in ("batch_size", "learning_rate", "lr_decay", "output_threshold"):
            assert result.best_params[name] == best1.params[name]
        assert result.best_objective == min(best1.objective, best2.objective)
        assert result.best_objective <= best1.objective
        assert result.seed2 == 12


    @pytest.mark.parametrize("space, budget2, named", [
        (hpo.default_space(), 3, "budget2 3 is below n_init 4"),
        (unit_space(2), 5, "none of the phase-2 dimensions"),
    ], ids=["budget2-below-n_init", "no-phase2-dimension"])
    def test_phase2_that_cannot_run_refused_before_phase1(self, space, budget2,
                                                          named):
        calls = []
        with pytest.raises(ConfigError, match=named):
            hpo.run_two_phase(space, 6, budget2, calls.append, seed=1, n_init=4)
        assert calls == []


class TestPipelineObjective:
    """The trial: what a point trains and scores, with spies in place of
    ``train.fit`` and ``evaluate.evaluate_dataset``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def fit(split, spec, cfg):
            calls.append(("fit", split, spec, cfg))
            return "model", None, None

        def evaluate_dataset(model, series, threshold):
            calls.append(("evaluate", model, series, threshold))
            return SimpleNamespace(accuracy=0.75)

        monkeypatch.setattr(train, "fit", fit)
        monkeypatch.setattr(evaluate, "evaluate_dataset", evaluate_dataset)
        return calls

    # the inner split reads only each series' label
    SERIES = [SimpleNamespace(label=lab) for lab in [Label.SYNCOPE, Label.NOSYNCOPE] * 5]

    def test_point_that_leaves_dimensions_out_trains_with_table_values(
            self, calls):
        objective = hpo.make_pipeline_objective(self.SERIES, seed=7)
        assert objective({"window_size": 60}) == 0.25
        (_, split, spec, cfg), (_, model, scored, threshold) = calls
        assert spec == ModelSpec(num_layers=1, units=[32], bidirectional=True,
                                 window_size=60)
        assert cfg == TrainConfig(window_size=60, epochs=5, stride=10,
                                  positive_horizon=750, batch_size=16, seed=7,
                                  lr_multiplier=1.0, lr_decay=1.0)
        assert threshold == 0.5
        assert model == "model" and scored == split.test
        assert (len(split.train), len(split.test)) == (8, 2)

    def test_point_values_cast_to_the_table_types(self, calls):
        objective = hpo.make_pipeline_objective(
            self.SERIES, seed=3, epochs=2, stride=40, horizon=120,
            inner_fraction=0.6, bidirectional=False)
        objective({"gru_units": 12.0, "gru_layers": 2.0, "window_size": 150.0,
                   "batch_size": 8.0, "learning_rate": 1, "lr_decay": 1,
                   "output_threshold": 0.7})
        (_, split, spec, cfg), (*_, threshold) = calls
        assert spec == ModelSpec(num_layers=2, units=[12, 12],
                                 bidirectional=False, window_size=150)
        # the horizon clamps up to the window
        assert cfg == TrainConfig(window_size=150, epochs=2, stride=40,
                                  positive_horizon=150, batch_size=8, seed=3,
                                  lr_multiplier=1.0, lr_decay=1.0)
        assert threshold == 0.7
        assert [type(v) for v in (*spec.units, cfg.window_size, cfg.batch_size,
                                  cfg.lr_multiplier, cfg.lr_decay)] == \
            [int, int, int, int, float, float]
        assert (len(split.train), len(split.test)) == (6, 4)


class TestPartialDependence:
    def seeded_surrogate(self, n=6, dims=2, seed=0):
        space = unit_space(dims)
        surr = hpo.Surrogate(space, seed=seed)
        rng = np.random.default_rng(seed)
        for u in rng.uniform(size=(n, dims)):
            hpo.observe(surr, space.from_unit(u), float(u.mean()))
        return surr

    def test_additive_posterior_recovers_component(self):
        surr = self.seeded_surrogate()
        surr.posterior = lambda xq: (np.atleast_2d(xq)[:, 0] ** 2
                                     + np.atleast_2d(xq)[:, 1],
                                     np.zeros(len(np.atleast_2d(xq))))
        pd = hpo.partial_dependence(surr, [0], grid=15)
        shift = pd.values - pd.grids[0] ** 2
        assert np.std(shift) < 1e-12

    def test_constant_posterior_flat(self):
        surr = self.seeded_surrogate()
        surr.posterior = lambda xq: (np.full(len(np.atleast_2d(xq)), 0.7),
                                     np.zeros(len(np.atleast_2d(xq))))
        pd = hpo.partial_dependence(surr, [1], grid=10)
        assert_allclose(pd.values, 0.7)

    def test_monotone_dimension_detected(self):
        space = unit_space(3)
        surr = hpo.Surrogate(space, seed=5)
        rng = np.random.default_rng(5)
        for u in rng.uniform(size=(14, 3)):
            # strongly increasing in the third coordinate
            hpo.observe(surr, space.from_unit(u), float(0.8 * u[2] + 0.05 * u[0]))
        pd = hpo.partial_dependence(surr, [2], grid=12)
        diffs = np.diff(pd.values)
        assert np.all(diffs > -1e-3)
        assert pd.values[-1] > pd.values[0] + 0.3

    def test_two_dim_grid_shape(self):
        surr = self.seeded_surrogate(dims=3)
        pd = hpo.partial_dependence(surr, [0, 2], grid=7)
        assert pd.values.shape == (7, 7)
        assert pd.dim_names == ["u0", "u2"]

    def test_integer_grid_deduplicated(self):
        space = hpo.SearchSpace([hpo.Dimension("layers", "integer", 1, 3),
                                 hpo.Dimension("x", "real", 0, 1)])
        surr = hpo.Surrogate(space, seed=2)
        rng = np.random.default_rng(2)
        for u in rng.uniform(size=(5, 2)):
            hpo.observe(surr, space.from_unit(u), float(u.mean()))
        pd = hpo.partial_dependence(surr, [0], grid=20)
        assert list(pd.grids[0]) == [1, 2, 3]
        assert pd.values.shape == (3,)

    def test_preconditions(self):
        surr = self.seeded_surrogate()
        with pytest.raises(ConfigError):
            hpo.partial_dependence(hpo.Surrogate(unit_space(2), seed=0), [0])
        with pytest.raises(ConfigError):
            hpo.partial_dependence(surr, [0, 1, 0])
        with pytest.raises(ConfigError):
            hpo.partial_dependence(surr, [0, 0])


class TestPersistence:
    def test_trials_csv_round_trip(self, tmp_path):
        space = hpo.default_space()
        trials, _ = hpo.run_phase(
            space, budget=4,
            objective_fn=lambda p: float(np.mean(space.to_unit(p) ** 2)),
            seed=13, n_init=4)
        path = tmp_path / "trials.csv"
        hpo.write_trials_csv(trials, space, path)
        loaded = hpo.read_trials_csv(path, space)
        assert len(loaded) == len(trials)
        for a, b in zip(trials, loaded):
            assert a.params == b.params
            assert a.objective == b.objective
            assert a.status == b.status
        header = path.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["trial", "gru_units"]

    def test_trials_log_rows_are_numbered_without_blank_lines(self, tmp_path):
        # the header is row 1 and a blank line is not a row, the rule of
        # data.load_recording's messages
        space = hpo.default_space()
        point = space.from_unit(np.full(len(space.names), 0.5))
        path = tmp_path / "trials.csv"
        hpo.write_trials_csv([hpo.HpoTrial(point, 0.5, "done"),
                              hpo.HpoTrial(point, 0.5, "maybe")], space, path)
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, "", first, "", "", second]) + "\n")
        with pytest.raises(ConfigInvalid) as info:
            hpo.read_trials_csv(path, space)
        assert str(info.value) == f"{path}: row 3: status 'maybe' is not done or failed"

    def test_pd_csv(self, tmp_path):
        space = unit_space(2)
        surr = hpo.Surrogate(space, seed=3)
        rng = np.random.default_rng(3)
        for u in rng.uniform(size=(5, 2)):
            hpo.observe(surr, space.from_unit(u), float(u.mean()))
        pd1 = hpo.partial_dependence(surr, [0], grid=6)
        p1 = tmp_path / "pd1.csv"
        hpo.write_pd_csv(pd1, p1)
        lines = p1.read_text().splitlines()
        assert lines[0] == "u0,mean_objective"
        assert len(lines) == 7
        pd2 = hpo.partial_dependence(surr, [0, 1], grid=4)
        p2 = tmp_path / "pd2.csv"
        hpo.write_pd_csv(pd2, p2)
        lines2 = p2.read_text().splitlines()
        assert lines2[0] == "u0,u1,mean_objective"
        assert len(lines2) == 1 + 16
