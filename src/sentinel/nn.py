"""From-scratch GRU network: stacked and bidirectional layers, a dense
softmax head, exact backpropagation through time, and ADADELTA updates.

Gate convention (fixed here to prevent drift):

    z  = sigmoid(W_z x + U_z h + b_z)
    r  = sigmoid(W_r x + U_r h + b_r)
    c  = tanh(W_c x + U_c (r * h) + b_c)
    h' = (1 - z) * h + z * c

Bidirectional layers feed the next layer the per-step concatenation of the
forward and (time-aligned) backward outputs; the classification head reads
the forward final state concatenated with the backward final state.

Storage: a layer holds its directions stacked on a leading axis of size
n_dir (2 when bidirectional, else 1), forward first: ``wx`` (n_dir, D, 3H),
``u_zr`` (n_dir, H, 2H), ``u_c`` (n_dir, H, H), ``b`` (n_dir, 3H).
``GruModel.parameters`` names each direction's contiguous slice
(``layer{i}.fwd.*``, ``layer{i}.bwd.*``), so optimizer state, gradients and
checkpoints stay per direction. The backward direction's input is reversed
in time once, before the loop; one time loop then advances every direction
with leading-axis matmuls. Forward-only models run the same code with
n_dir = 1. Scans are time-major, (n_dir, T, batch, ...).

Reduction order: BPTT's sums over rows, d_wx = x^T d_pre and
d_b = sum(d_pre), take the rows in (batch, time) order. Float sums depend on
their order, so any other order would change the trained weights.

All arithmetic is float64; batched kernels keep the per-step work to two
small matmuls and one sigmoid (on the fused z|r pre-activation) for all
directions together so CPU training stays fast. The sigmoid is taken in
tanh form, which cannot overflow at any input and needs no sign masks.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, NoActivationCache

PROB_FLOOR = 1e-12


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) == (1+tanh(x/2))/2: tanh saturates where exp would
    # overflow, so no input raises a warning and no split by sign (masks
    # and gathered temporaries) is needed.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ModelSpec:
    num_layers: int
    units: list[int]
    bidirectional: bool
    window_size: int
    input_channels: int = 2

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if len(self.units) != self.num_layers:
            raise ValueError("units list length must equal num_layers")
        if any(u < 1 for u in self.units) or self.window_size < 1:
            raise ValueError("units and window_size must be positive")

    @property
    def n_dir(self) -> int:
        """Directions per layer: 2 when bidirectional, else 1."""
        return 2 if self.bidirectional else 1

    def feature_dim(self) -> int:
        return self.n_dir * self.units[-1]


DIRECTIONS = ("fwd", "bwd")  # parameter-name tags of a layer's stacked directions


@dataclass
class GruLayer:
    """One GRU layer with fused gate storage, its directions stacked on
    the leading axis (forward first, then backward when bidirectional).

    ``wx`` holds the input weights of all three gates as columns [z|r|c],
    ``u_zr`` the recurrent weights of the z and r gates, ``u_c`` the
    candidate's recurrent weights, ``b`` the three gate biases.
    """

    wx: np.ndarray    # (n_dir, input_dim, 3*units)
    u_zr: np.ndarray  # (n_dir, units, 2*units)
    u_c: np.ndarray   # (n_dir, units, units)
    b: np.ndarray     # (n_dir, 3*units)

    @classmethod
    def from_gates(cls, directions) -> "GruLayer":
        """Fuse per-direction (W, U, b) lists of per-gate arrays, gates in
        z, r, c order: W (input_dim, units), U (units, units), b (units,)."""
        return cls(
            wx=np.array([np.concatenate(w, axis=1) for w, _, _ in directions]),
            u_zr=np.array([np.concatenate(u[:2], axis=1) for _, u, _ in directions]),
            u_c=np.array([u[2] for _, u, _ in directions]),
            b=np.array([np.concatenate(b) for _, _, b in directions]),
        )

    @property
    def n_dir(self) -> int:
        return self.wx.shape[0]

    @property
    def units(self) -> int:
        return self.u_c.shape[1]

    def named(self, i: int) -> list[tuple[str, np.ndarray]]:
        """``layer{i}.{fwd|bwd}.{wx|u_zr|u_c|b}`` with the live, contiguous
        per-direction slice of each array, directions first."""
        return [(f"layer{i}.{tag}.{f.name}", getattr(self, f.name)[k])
                for k, tag in enumerate(DIRECTIONS[:self.n_dir])
                for f in fields(self)]

    def gate_weights(self, k: int, gate: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Direction ``k``'s per-gate (W, U, b) in the conventional
        (units x input_dim) layout."""
        h = self.units
        g = {"z": 0, "r": 1, "c": 2}[gate]
        w = self.wx[k, :, g * h:(g + 1) * h].T
        u = self.u_c[k].T if gate == "c" else self.u_zr[k, :, g * h:(g + 1) * h].T
        return w, u, self.b[k, g * h:(g + 1) * h]


@dataclass
class DenseSoftmaxHead:
    w: np.ndarray  # (feature_dim, 2)
    b: np.ndarray  # (2,)


@dataclass
class GruModel:
    spec: ModelSpec
    layers: list[GruLayer]
    head: DenseSoftmaxHead
    init_seed: int = 0

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named live references to every parameter array, canonical order."""
        out = [p for i, layer in enumerate(self.layers) for p in layer.named(i)]
        out.append(("head.w", self.head.w))
        out.append(("head.b", self.head.b))
        return out

    def copy(self) -> "GruModel":
        return deepcopy(self)


def init_params(spec: ModelSpec, seed: int) -> GruModel:
    """Deterministic fan-based uniform initialization, biases zero.

    Every matrix is sampled within +-sqrt(6 / (fan_in + fan_out)); the
    sampling order (layer, direction, gates z/r/c, W before U) is fixed,
    so a given seed always yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    layers = []
    input_dim = spec.input_channels
    for units in spec.units:
        bw = np.sqrt(6.0 / (input_dim + units))
        bu = np.sqrt(6.0 / (units + units))
        directions = []
        for _ in range(spec.n_dir):
            w = [rng.uniform(-bw, bw, size=(input_dim, units)) for _ in range(3)]
            u = [rng.uniform(-bu, bu, size=(units, units)) for _ in range(3)]
            directions.append((w, u, [np.zeros(units)] * 3))
        layers.append(GruLayer.from_gates(directions))
        input_dim = spec.n_dir * units
    feat = spec.feature_dim()
    bh = np.sqrt(6.0 / (feat + 2))
    head = DenseSoftmaxHead(w=rng.uniform(-bh, bh, size=(feat, 2)), b=np.zeros(2))
    return GruModel(spec=spec, layers=layers, head=head, init_seed=seed)


# --- batched scan over time -----------------------------------------------------


def _time_aligned(seqs) -> list[np.ndarray]:
    """Per-direction sequences (time on their first axis) with the backward
    one reversed in time: maps natural time to each direction's processing
    order, and back."""
    return [s[::(-1) ** k] for k, s in enumerate(seqs)]


@dataclass
class _ScanCache:
    seq: np.ndarray | None  # (T, B, D) input in natural time; None: inference
    zrs: np.ndarray | None  # (n_dir, T, B, 2H) update|reset gates
    cs: np.ndarray | None   # (n_dir, T, B, H) candidates
    hs: np.ndarray          # (n_dir, T, B, H) emitted states in processing order


def _scan(seq: np.ndarray, layer: GruLayer, need_cache: bool) -> _ScanCache:
    """Run every direction of ``layer`` over the time-major sequence
    ``seq`` (T, B, D), all of them in one time loop."""
    T, B, D = seq.shape
    n, H = layer.n_dir, layer.units
    # One (T*B, D) @ (D, 3H) product per direction, into one buffer: no
    # stacked copy of the input is made. A product split over time can
    # round differently (OpenBLAS picks its kernels by shape).
    xp = np.empty((n, T, B, 3 * H))
    for k, x in enumerate(_time_aligned([seq] * n)):
        np.matmul(x.reshape(T * B, D), layer.wx[k], out=xp[k].reshape(T * B, 3 * H))
    xp += layer.b[:, None, None]
    hs = np.empty((n, T, B, H))
    if need_cache:
        zrs = np.empty((n, T, B, 2 * H))
        cs = np.empty((n, T, B, H))
    h = np.zeros((n, B, H))
    for t in range(T):
        zr = sigmoid(xp[:, t, :, :2 * H] + h @ layer.u_zr)
        z, r = zr[..., :H], zr[..., H:]
        c = np.tanh(xp[:, t, :, 2 * H:] + (r * h) @ layer.u_c)
        h = (1.0 - z) * h + z * c
        hs[:, t] = h
        if need_cache:
            zrs[:, t] = zr
            cs[:, t] = c
    if not need_cache:
        seq = zrs = cs = None
    return _ScanCache(seq=seq, zrs=zrs, cs=cs, hs=hs)


def _scan_backward(layer: GruLayer, cache: _ScanCache, d_hs: np.ndarray) -> tuple[GruLayer, np.ndarray]:
    """Exact BPTT through one scan. ``d_hs`` is the gradient w.r.t. every
    emitted state in processing order; returns the parameter gradients,
    stacked like ``layer``, and the gradient w.r.t. the scanned input
    sequence in processing order, (n_dir, T, B, D)."""
    n, T, B, H = cache.hs.shape
    D = cache.seq.shape[-1]
    zeros = np.zeros((n, B, H))
    d_pre = np.empty((n, T, B, 3 * H))
    du_zr = np.zeros_like(layer.u_zr)
    du_c = np.zeros_like(layer.u_c)
    dh = np.zeros((n, B, H))
    u_c_t, u_zr_t = layer.u_c.transpose(0, 2, 1), layer.u_zr.transpose(0, 2, 1)
    for t in range(T - 1, -1, -1):
        h_prev = cache.hs[:, t - 1] if t > 0 else zeros
        z, r = cache.zrs[:, t, :, :H], cache.zrs[:, t, :, H:]
        c = cache.cs[:, t]
        dht = d_hs[:, t] + dh
        dc_pre = (dht * z) * (1.0 - c * c)
        d_rh = dc_pre @ u_c_t
        dz_pre = (dht * (c - h_prev)) * z * (1.0 - z)
        dr_pre = (d_rh * h_prev) * r * (1.0 - r)
        d_pre[:, t, :, :H] = dz_pre
        d_pre[:, t, :, H:2 * H] = dr_pre
        d_pre[:, t, :, 2 * H:] = dc_pre
        d_zr = d_pre[:, t, :, :2 * H]
        dh = dht * (1.0 - z) + d_rh * r + d_zr @ u_zr_t
        if t > 0:
            du_zr += h_prev.transpose(0, 2, 1) @ d_zr
            du_c += (r * h_prev).transpose(0, 2, 1) @ dc_pre
    # The sums over rows take the rows in (batch, time) order: another
    # order rounds differently and so changes the trained weights.
    rows = d_pre.transpose(0, 2, 1, 3).reshape(n, B * T, 3 * H)
    x_rows = np.stack([x.transpose(1, 0, 2) for x in _time_aligned([cache.seq] * n)])
    x_rows = x_rows.reshape(n, B * T, D)
    grads = GruLayer(wx=x_rows.transpose(0, 2, 1) @ rows, u_zr=du_zr, u_c=du_c,
                     b=rows.sum(axis=1))
    d_x = (d_pre.reshape(n, T * B, 3 * H) @ layer.wx.transpose(0, 2, 1)).reshape(n, T, B, D)
    return grads, d_x


# --- full model forward / backward ----------------------------------------------


@dataclass
class ForwardCache:
    probs: np.ndarray          # (B, 2)
    feat: np.ndarray           # (B, feature_dim)
    layer_caches: list[_ScanCache] | None  # None: inference only


def forward_batch(model: GruModel, windows: np.ndarray, need_cache: bool = True) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of windows through the network.

    ``windows`` has shape (batch, window_size, input_channels). Returns
    class probabilities (batch, 2) ordered (nosyncope, syncope) and a
    cache. With ``need_cache=True`` the cache holds the activations that
    :func:`backward_batch` needs; with ``need_cache=False`` (inference)
    it keeps only ``probs`` and ``feat``, and ``backward_batch`` rejects it.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 3:
        raise DimensionMismatch(f"windows must be 3-D, got shape {windows.shape}")
    spec = model.spec
    if windows.shape[1] != spec.window_size or windows.shape[2] != spec.input_channels:
        raise DimensionMismatch(
            f"expected (*, {spec.window_size}, {spec.input_channels}) windows, "
            f"got {windows.shape}"
        )
    seq = windows.transpose(1, 0, 2)  # time-major
    layer_caches: list[_ScanCache] = []
    top = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        cache = _scan(seq, layer, need_cache)
        if need_cache:
            layer_caches.append(cache)
        if li < top:  # the top layer's sequence is never read, only its final states
            seq = np.concatenate(_time_aligned(cache.hs), axis=-1)
            del cache  # inference: frees the states before the next scan
    feat = cache.hs[:, -1].transpose(1, 0, 2).reshape(len(windows), -1)
    probs = softmax(feat @ model.head.w + model.head.b)
    return probs, ForwardCache(probs=probs, feat=feat,
                               layer_caches=layer_caches if need_cache else None)


def forward_sequence(window: np.ndarray, model: GruModel) -> tuple[np.ndarray, ForwardCache]:
    """Single-window convenience wrapper around :func:`forward_batch`."""
    window = np.asarray(window, dtype=float)
    if window.ndim != 2:
        raise DimensionMismatch(f"window must be 2-D, got shape {window.shape}")
    probs, cache = forward_batch(model, window[None], need_cache=True)
    return probs[0], cache


def cross_entropy_loss(probs: np.ndarray, target: int) -> float:
    """Categorical cross-entropy with the probability floored at 1e-12."""
    return float(-np.log(max(float(probs[target]), PROB_FLOOR)))


def batch_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy over a batch."""
    p = np.maximum(probs[np.arange(len(targets)), targets], PROB_FLOOR)
    return float(-np.log(p).mean())


def backward_batch(model: GruModel, cache: ForwardCache, targets: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy over the batch, by parameter name."""
    if cache.layer_caches is None:
        raise NoActivationCache(
            "backward_batch needs the activations of forward_batch(need_cache=True); "
            "this cache was made with need_cache=False"
        )
    targets = np.asarray(targets, dtype=int)
    B = cache.probs.shape[0]
    grads: dict[str, np.ndarray] = {}

    d_logits = cache.probs.copy()
    d_logits[np.arange(B), targets] -= 1.0
    d_logits /= B
    grads["head.w"] = cache.feat.T @ d_logits
    grads["head.b"] = d_logits.sum(axis=0)
    d_feat = d_logits @ model.head.w.T

    # the head reads each direction's final state, the last in processing order
    n = model.spec.n_dir
    d_hs = np.zeros(cache.layer_caches[-1].hs.shape)
    d_hs[:, -1] = d_feat.reshape(B, n, -1).transpose(1, 0, 2)
    for li in range(len(model.layers) - 1, -1, -1):
        g, d_x = _scan_backward(model.layers[li], cache.layer_caches[li], d_hs)
        grads.update(g.named(li))
        if li > 0:  # split the gradient w.r.t. the lower layer's output by direction
            d_seq = np.sum(_time_aligned(d_x), axis=0)
            d_hs = np.stack(_time_aligned(np.split(d_seq, n, axis=-1)))
    return grads


def backward(model: GruModel, cache: ForwardCache, target: int) -> dict[str, np.ndarray]:
    """Single-example gradients (batch of one)."""
    return backward_batch(model, cache, np.array([target]))


# --- ADADELTA --------------------------------------------------------------------


@dataclass
class AdadeltaState:
    """Running squared-gradient and squared-update averages per parameter.

    ADADELTA is nominally rate-free; ``lr_multiplier`` scales each update
    anyway and ``lr_decay`` shrinks the multiplier once per epoch, because
    both are exposed as tunable hyperparameters.
    """

    rho: float = 0.95
    epsilon: float = 1e-6
    lr_multiplier: float = 1.0
    lr_decay: float = 1.0
    eg2: dict[str, np.ndarray] = field(default_factory=dict)
    edx2: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: GruModel, rho: float = 0.95, epsilon: float = 1e-6,
                  lr_multiplier: float = 1.0, lr_decay: float = 1.0) -> "AdadeltaState":
        state = cls(rho=rho, epsilon=epsilon, lr_multiplier=lr_multiplier, lr_decay=lr_decay)
        for name, p in model.parameters():
            state.eg2[name] = np.zeros_like(p)
            state.edx2[name] = np.zeros_like(p)
        return state

    def end_epoch(self) -> None:
        self.lr_multiplier *= self.lr_decay


def adadelta_update(model: GruModel, grads: dict[str, np.ndarray],
                    state: AdadeltaState) -> tuple[GruModel, AdadeltaState]:
    """One ADADELTA step, in place:

        E[g2]  <- rho E[g2] + (1-rho) g^2
        delta  = -sqrt(E[dx2]+eps) / sqrt(E[g2]+eps) * g * lr_multiplier
        E[dx2] <- rho E[dx2] + (1-rho) delta^2
        p      += delta
    """
    rho, eps, lr = state.rho, state.epsilon, state.lr_multiplier
    for name, p in model.parameters():
        g = grads[name]
        eg2 = state.eg2[name]
        np.multiply(eg2, rho, out=eg2)
        eg2 += (1.0 - rho) * g * g
        delta = -np.sqrt(state.edx2[name] + eps) / np.sqrt(eg2 + eps) * g * lr
        edx2 = state.edx2[name]
        np.multiply(edx2, rho, out=edx2)
        edx2 += (1.0 - rho) * delta * delta
        p += delta
    return model, state
