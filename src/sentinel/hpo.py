"""Two-phase Bayesian hyperparameter optimization.

A Gaussian-process surrogate (squared-exponential ARD kernel, noise term,
hyperparameters refit by maximum likelihood after every observation, with
L-BFGS-B on the analytic gradient of the log likelihood) models the
classification error over a seven-dimensional search space; expected
improvement picks each next candidate from a seeded pool. Phase 1 searches
all dimensions, phase 2 re-searches only the three most influential ones
(units, layers, window size) with the rest pinned at the phase-1 best. Phase
2 always searches with the phase-1 seed + 1 and reports the better of the
two phases' best points, whether it follows phase 1 in one run
(:func:`run_two_phase`) or reads phase 1 back from its trials log
(:func:`run_phase2`), so both give the same trials and the same best.

The GP works in a unit hypercube; integer dimensions round on the way out,
log-real dimensions map exponentially. The objective convention is
minimization of 1 - series accuracy on a validation split carved from the
training data (never the test set).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.linalg import lapack
from scipy.stats import norm, qmc

from .errors import AllTrialsFailed, ConfigError, ConfigInvalid, DegenerateSurrogate

log = logging.getLogger(__name__)

JITTER = 1e-8
N_INIT = 8
N_CANDIDATES = 1024
PHASE2_DIMS = ("gru_units", "gru_layers", "window_size")


@dataclass(frozen=True)
class Dimension:
    name: str
    kind: str  # "integer" | "real" | "log-real"
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in ("integer", "real", "log-real"):
            raise ConfigError(f"unknown dimension kind {self.kind!r}")
        if not self.lower < self.upper:
            raise ConfigError(f"{self.name}: lower must be < upper")
        if self.kind == "integer" and (self.lower != int(self.lower)
                                       or self.upper != int(self.upper)):
            raise ConfigError(f"{self.name}: integer bounds must be integral")
        if self.kind == "log-real" and self.lower <= 0:
            raise ConfigError(f"{self.name}: log-real bounds must be positive")

    def from_unit(self, u: float):
        u = min(max(float(u), 0.0), 1.0)
        if self.kind == "log-real":
            return float(math.exp(math.log(self.lower)
                                  + u * (math.log(self.upper) - math.log(self.lower))))
        value = self.lower + u * (self.upper - self.lower)
        if self.kind == "integer":
            return int(min(max(round(value), self.lower), self.upper))
        return float(value)

    def to_unit(self, value) -> float:
        if self.kind == "log-real":
            return (math.log(value) - math.log(self.lower)) / (
                math.log(self.upper) - math.log(self.lower))
        return (float(value) - self.lower) / (self.upper - self.lower)


@dataclass
class SearchSpace:
    dimensions: list[Dimension]

    def __post_init__(self):
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate dimension names")

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.dimensions]

    def __len__(self) -> int:
        return len(self.dimensions)

    def from_unit(self, u: np.ndarray) -> dict:
        return {d.name: d.from_unit(u[i]) for i, d in enumerate(self.dimensions)}

    def to_unit(self, params: dict) -> np.ndarray:
        return np.array([d.to_unit(params[d.name]) for d in self.dimensions])

    def contains(self, params: dict) -> bool:
        for d in self.dimensions:
            v = params[d.name]
            if not d.lower <= v <= d.upper:
                return False
            if d.kind == "integer" and v != int(v):
                return False
        return True


def default_space() -> SearchSpace:
    """The seven tuned parameters with bounds bracketing every reported value."""
    return SearchSpace([
        Dimension("gru_units", "integer", 32, 256),
        Dimension("gru_layers", "integer", 1, 3),
        Dimension("window_size", "integer", 50, 500),
        Dimension("batch_size", "integer", 8, 64),
        Dimension("learning_rate", "log-real", 1e-3, 1.0),
        Dimension("lr_decay", "real", 0.8, 1.0),
        Dimension("output_threshold", "real", 0.3, 0.9),
    ])


def phase2_space(base: SearchSpace) -> SearchSpace:
    """Restrict to the most influential dimensions: units, layers, window."""
    dims = [d for d in base.dimensions if d.name in PHASE2_DIMS]
    if not dims:
        raise ConfigError("base space has none of the phase-2 dimensions")
    return SearchSpace(dims)


@dataclass
class HpoTrial:
    params: dict
    objective: float
    status: str  # "done" | "failed"


# --- Gaussian-process surrogate --------------------------------------------------


def _kernel_terms(xa: np.ndarray, xb: np.ndarray, log_ell: np.ndarray,
                  log_sf: float) -> tuple[np.ndarray, np.ndarray]:
    """The kernel matrix and the squared scaled distances (Δ_k/ℓ_k)² it is
    built from, shape (len(xa), len(xb), d)."""
    ell = np.exp(log_ell)
    d = (xa[:, None, :] - xb[None, :, :]) / ell
    sq = d * d
    return np.exp(2.0 * log_sf) * np.exp(-0.5 * np.sum(sq, axis=2)), sq


def _kernel(xa: np.ndarray, xb: np.ndarray, log_ell: np.ndarray, log_sf: float) -> np.ndarray:
    return _kernel_terms(xa, xb, log_ell, log_sf)[0]


@dataclass
class Surrogate:
    space: SearchSpace
    seed: int = 0
    x: np.ndarray = None          # (n, d) unit coordinates
    y: np.ndarray = None          # (n,)
    log_ell: np.ndarray = None
    log_sf: float = 0.0
    log_sn: float = math.log(1e-3) / 2  # log of noise *std*
    _chol: np.ndarray = field(default=None, repr=False)
    _alpha: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        d = len(self.space)
        if self.x is None:
            self.x = np.zeros((0, d))
        if self.y is None:
            self.y = np.zeros(0)
        if self.log_ell is None:
            self.log_ell = np.full(d, math.log(0.3))

    @property
    def n_observed(self) -> int:
        return len(self.y)

    @property
    def length_scales(self) -> np.ndarray:
        return np.exp(self.log_ell)

    @property
    def signal_var(self) -> float:
        return float(np.exp(2.0 * self.log_sf))

    @property
    def noise_var(self) -> float:
        return float(np.exp(2.0 * self.log_sn))

    @property
    def best_objective(self) -> float:
        if self.n_observed == 0:
            raise DegenerateSurrogate("no observations yet")
        return float(self.y.min())

    def _y_mean(self) -> float:
        return float(self.y.mean()) if self.n_observed else 0.0

    def _factorize(self) -> None:
        if self.n_observed == 0:
            self._chol = self._alpha = None
            return
        k = _kernel(self.x, self.x, self.log_ell, self.log_sf)
        k[np.diag_indices_from(k)] += self.noise_var + JITTER
        try:
            self._chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError as exc:
            raise DegenerateSurrogate(
                f"kernel matrix not positive definite after jitter: {exc}"
            ) from exc
        resid = self.y - self._y_mean()
        z = np.linalg.solve(self._chol, resid)
        self._alpha = np.linalg.solve(self._chol.T, z)

    def posterior(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Latent posterior mean and variance at unit-cube query points."""
        xq = np.atleast_2d(xq)
        if self.n_observed == 0:
            return (np.full(len(xq), 0.0),
                    np.full(len(xq), self.signal_var))
        if self._chol is None:
            self._factorize()
        ks = _kernel(self.x, xq, self.log_ell, self.log_sf)
        mu = self._y_mean() + ks.T @ self._alpha
        v = np.linalg.solve(self._chol, ks)
        var = self.signal_var - np.sum(v * v, axis=0)
        return mu, np.maximum(var, 0.0)


def _negative_log_likelihood(theta: np.ndarray, x: np.ndarray,
                             y: np.ndarray) -> tuple[float, np.ndarray]:
    """GP negative log marginal likelihood at theta = (log ℓ, log σ_f, log σ_n)
    and its gradient, both from one Cholesky factorisation (Rasmussen &
    Williams 2006, eq. 5.9). With W = K⁻¹ − ααᵀ the gradient is
    ½ Σ W∘K_f∘(Δ_k/ℓ_k)² per log ℓ_k, Σ W∘K_f for log σ_f and σ_n² tr W for
    log σ_n. A kernel that is not positive definite scores 1e25 with a zero
    gradient."""
    n, d = x.shape
    log_ell, log_sf, log_sn = theta[:d], theta[d], theta[d + 1]
    kf, sq = _kernel_terms(x, x, log_ell, log_sf)
    noise = math.exp(2.0 * log_sn)
    chol, info = lapack.dpotrf(kf + (noise + JITTER) * np.eye(n), lower=1, clean=1)
    if info:
        return 1e25, np.zeros(d + 2)
    chol_inv, _ = lapack.dtrtri(chol, lower=1)
    z = chol_inv @ (y - y.mean())
    alpha = chol_inv.T @ z
    w = chol_inv.T @ chol_inv - np.outer(alpha, alpha)
    wk = w * kf
    grad = np.empty(d + 2)
    grad[:d] = 0.5 * (wk.reshape(-1) @ sq.reshape(-1, d))
    grad[d] = wk.sum()
    grad[d + 1] = noise * np.trace(w)
    nll = float(0.5 * z @ z + np.log(np.diag(chol)).sum()
                + 0.5 * n * math.log(2.0 * math.pi))
    return nll, grad


def _theta_bounds(d: int) -> list[tuple[float, float]]:
    """Bounds of the refit's theta = (log ℓ_1..d, log σ_f, log σ_n)."""
    return ([(math.log(1e-2), math.log(10.0))] * d    # length scales
            + [(math.log(1e-3), math.log(10.0))]      # signal std
            + [(math.log(1e-4), math.log(1.0))])      # noise std


def _fit_hyperparameters(surr: Surrogate) -> None:
    """Maximum-likelihood kernel hyperparameters via seeded multi-start."""
    if surr.n_observed < 2:
        surr._factorize()
        return
    d = len(surr.space)
    bounds = _theta_bounds(d)
    current = np.concatenate([surr.log_ell, [surr.log_sf, surr.log_sn]])
    rng = np.random.default_rng([surr.seed, surr.n_observed, 1])
    starts = [current,
              np.concatenate([np.full(d, math.log(0.3)),
                              [math.log(max(surr.y.std(), 1e-2)), math.log(1e-2)]])]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts += [lo + rng.uniform(size=d + 2) * (hi - lo) for _ in range(2)]
    best_theta, best_nll = None, np.inf
    for s in starts:
        res = optimize.minimize(_negative_log_likelihood, np.clip(s, lo, hi),
                                args=(surr.x, surr.y), method="L-BFGS-B",
                                jac=True, bounds=bounds)
        if res.fun < best_nll:
            best_nll, best_theta = res.fun, res.x
    surr.log_ell = best_theta[:d]
    surr.log_sf = float(best_theta[d])
    surr.log_sn = float(best_theta[d + 1])
    surr._factorize()


def observe(surr: Surrogate, params: dict | list[dict],
            objective: float | list[float]) -> Surrogate:
    """Add one (point, objective) pair, or lists of them, and refit the GP
    once. Returns the surrogate."""
    batch = [params] if isinstance(params, dict) else params
    u = np.clip([surr.space.to_unit(p) for p in batch], 0.0, 1.0)
    surr.x = np.vstack([surr.x, u])
    surr.y = np.append(surr.y, np.asarray(objective, dtype=float))
    _fit_hyperparameters(surr)
    return surr


def expected_improvement(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization; exactly zero wherever sigma is zero."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    ei = np.zeros_like(mu)
    ok = sigma > 0
    gamma = (best - mu[ok]) / sigma[ok]
    ei[ok] = sigma[ok] * (gamma * norm.cdf(gamma) + norm.pdf(gamma))
    return ei


def _sobol_point(d: int, index: int, seed: int) -> np.ndarray:
    count = 1 << max(4, (index + 1).bit_length())  # power of two >= index+1
    sob = qmc.Sobol(d, scramble=True, seed=seed)
    return sob.random(count)[index]


def suggest_next(surr: Surrogate, n_init: int = N_INIT) -> dict:
    """Next point of the surrogate's space to evaluate, seeded by its seed:
    quasi-random for the first n_init calls, then the best of N_CANDIDATES
    seeded uniform candidates by expected improvement."""
    space, seed, n = surr.space, surr.seed, surr.n_observed
    if n < n_init:
        return space.from_unit(_sobol_point(len(space), n, seed))
    rng = np.random.default_rng([seed, n, 2])
    candidates = rng.uniform(size=(N_CANDIDATES, len(space)))
    mu, var = surr.posterior(candidates)
    ei = expected_improvement(mu, np.sqrt(var), surr.best_objective)
    return space.from_unit(candidates[int(np.argmax(ei))])


def run_phase(space: SearchSpace, budget: int, objective_fn, seed: int,
              n_init: int = N_INIT) -> tuple[list[HpoTrial], HpoTrial]:
    """Sequential suggest -> evaluate -> observe loop.

    A trial whose objective raises or returns a non-finite value is logged
    at warning with the exception type and message, recorded as failed and
    observed at the worst case 1.0 so the surrogate learns to avoid the
    region.
    """
    if n_init < 1:
        raise ConfigError(f"n_init must be >= 1, got {n_init}")
    if budget < n_init:
        raise ConfigError(f"budget {budget} is below n_init {n_init}")
    surr = Surrogate(space, seed=seed)
    trials: list[HpoTrial] = []
    for _ in range(budget):
        params = suggest_next(surr, n_init=n_init)
        try:
            value = float(objective_fn(params))
            if not np.isfinite(value):
                raise ValueError(f"non-finite objective {value!r}")
            value = min(max(value, 0.0), 1.0)
            trials.append(HpoTrial(params=params, objective=value, status="done"))
            observe(surr, params, value)
        except Exception as exc:
            log.warning("trial %d of %d failed (%s: %s) at %s",
                        len(trials) + 1, budget, type(exc).__name__, exc,
                        {k: params[k] for k in sorted(params)})
            trials.append(HpoTrial(params=params, objective=1.0, status="failed"))
            observe(surr, params, 1.0)
    return trials, best_trial(trials)


def best_trial(trials: list[HpoTrial]) -> HpoTrial:
    """The first of the lowest-objective trials marked done."""
    done = [t for t in trials if t.status == "done"]
    if not done:
        raise AllTrialsFailed(f"none of {len(trials)} trials succeeded")
    return min(done, key=lambda t: t.objective)


@dataclass
class TwoPhaseResult:
    phase1: list[HpoTrial]
    phase2: list[HpoTrial]
    best_params: dict
    best_objective: float
    seed2: int  # the seed phase 2 searched with


def run_phase2(space: SearchSpace, phase1_trials: list[HpoTrial], budget: int,
               objective_fn, seed: int, n_init: int = N_INIT) -> TwoPhaseResult:
    """Phase 2 after a phase-1 search of ``space`` with ``seed``: search
    units/layers/window with seed + 1 and the remaining parameters pinned at
    the phase-1 best. The result's best is the better of the two phases,
    phase 2 winning ties."""
    best1 = best_trial(phase1_trials)
    sub = phase2_space(space)
    fixed = {k: v for k, v in best1.params.items() if k not in sub.names}
    seed2 = seed + 1
    trials2, best2 = run_phase(sub, budget, lambda p: objective_fn({**fixed, **p}),
                               seed2, n_init=n_init)
    if best2.objective <= best1.objective:
        best_params, best_objective = {**fixed, **best2.params}, best2.objective
    else:
        best_params, best_objective = dict(best1.params), best1.objective
    return TwoPhaseResult(phase1_trials, trials2, best_params, best_objective,
                          seed2)


def run_two_phase(space: SearchSpace, budget1: int, budget2: int, objective_fn,
                  seed: int, n_init: int = N_INIT) -> TwoPhaseResult:
    """Phase 1 over all dims with ``seed``, then :func:`run_phase2`."""
    trials1, _ = run_phase(space, budget1, objective_fn, seed, n_init=n_init)
    return run_phase2(space, trials1, budget2, objective_fn, seed, n_init=n_init)


# --- partial dependence -----------------------------------------------------------


@dataclass
class PartialDependence:
    dim_names: list[str]
    grids: list[np.ndarray]   # parameter-space grid values per dim
    values: np.ndarray        # (g,) for 1 dim, (g1, g2) for 2 dims


def _dim_grid(dim: Dimension, grid: int) -> tuple[np.ndarray, np.ndarray]:
    if dim.kind == "integer":
        vals = np.unique(np.round(np.linspace(dim.lower, dim.upper, grid)).astype(int))
    elif dim.kind == "log-real":
        vals = np.exp(np.linspace(math.log(dim.lower), math.log(dim.upper), grid))
    else:
        vals = np.linspace(dim.lower, dim.upper, grid)
    units = np.array([dim.to_unit(v) for v in vals])
    return vals, units


def partial_dependence(surr: Surrogate, dims: list[int], grid: int = 20) -> PartialDependence:
    """Average the posterior mean over observed values of the other dims
    while sweeping the chosen one or two dims across a grid."""
    if surr.n_observed < 2:
        raise ConfigError("partial dependence needs at least 2 observations")
    if len(dims) not in (1, 2):
        raise ConfigError("dims must select 1 or 2 dimensions")
    if len(set(dims)) != len(dims):
        raise ConfigError("dims must be distinct")
    space_dims = [surr.space.dimensions[i] for i in dims]
    grids = [_dim_grid(d, grid) for d in space_dims]
    out = np.empty([len(vals) for vals, _ in grids])
    for idx in np.ndindex(out.shape):  # row-major, the last dim fastest
        xq = surr.x.copy()
        for dim, (_, units), g in zip(dims, grids, idx):
            xq[:, dim] = units[g]
        mu, _ = surr.posterior(xq)
        out[idx] = mu.mean()
    return PartialDependence([d.name for d in space_dims],
                             [vals for vals, _ in grids], out)


# --- persistence ------------------------------------------------------------------


def write_trials_csv(trials: list[HpoTrial], space: SearchSpace, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", *space.names, "objective", "status"])
        for i, t in enumerate(trials):
            row = [i]
            for name in space.names:
                v = t.params[name]
                row.append(repr(v) if isinstance(v, float) else v)
            row.extend([repr(t.objective), t.status])
            w.writerow(row)


def read_trials_csv(path, space: SearchSpace) -> list[HpoTrial]:
    """Read a trials log of ``space``. A log comes from outside the program,
    so a missing column, a bad value, a point outside ``space`` or an unknown
    status raises ConfigInvalid naming the file, the row and the cause."""
    import csv

    columns = [(d.name, int if d.kind == "integer" else float)
               for d in space.dimensions] + [("objective", float)]
    trials = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for name in (*space.names, "objective", "status"):
                if name not in (reader.fieldnames or ()):
                    raise ConfigInvalid(f"{path}: header lacks column '{name}'")
            for row in reader:
                where = f"{path}: row {reader.line_num}"
                params = {}
                for name, kind in columns:
                    try:
                        params[name] = kind(row[name])
                    except (TypeError, ValueError):
                        raise ConfigInvalid(
                            f"{where}: bad {name} value {row[name]!r}") from None
                objective = params.pop("objective")
                if not space.contains(params):
                    raise ConfigInvalid(f"{where}: {params} is outside the space")
                if not np.isfinite(objective):
                    raise ConfigInvalid(f"{where}: objective {objective!r}")
                if row["status"] not in ("done", "failed"):
                    raise ConfigInvalid(f"{where}: status {row['status']!r} "
                                        f"is not done or failed")
                trials.append(HpoTrial(params, objective, row["status"]))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read trials log {path}: {exc}") from exc
    return trials


def write_pd_csv(pd: PartialDependence, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*pd.dim_names, "mean_objective"])
        for idx in np.ndindex(pd.values.shape):
            w.writerow([*(repr(float(vals[g])) for vals, g in zip(pd.grids, idx)),
                        repr(float(pd.values[idx]))])
