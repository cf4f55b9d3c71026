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

All arithmetic is float64; batched kernels keep the per-step work to two
small matmuls and one sigmoid (on the fused z|r pre-activation) per
direction so CPU training stays fast. The sigmoid is taken in tanh form,
which cannot overflow at any input and needs no sign masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def feature_dim(self) -> int:
        top = self.units[-1]
        return 2 * top if self.bidirectional else top


@dataclass
class DirectionParams:
    """One direction of one GRU layer, with fused gate storage.

    ``wx`` holds the input weights of all three gates as columns [z|r|c],
    ``u_zr`` the recurrent weights of the z and r gates, ``u_c`` the
    candidate's recurrent weights, ``b`` the three gate biases.
    """

    wx: np.ndarray    # (input_dim, 3*units)
    u_zr: np.ndarray  # (units, 2*units)
    u_c: np.ndarray   # (units, units)
    b: np.ndarray     # (3*units,)

    @property
    def units(self) -> int:
        return self.u_c.shape[0]

    @property
    def input_dim(self) -> int:
        return self.wx.shape[0]

    def gate_weights(self, gate: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-gate (W, U, b) in the conventional (units x input_dim) layout."""
        h = self.units
        k = {"z": 0, "r": 1, "c": 2}[gate]
        w = self.wx[:, k * h:(k + 1) * h].T
        u = self.u_c.T if gate == "c" else self.u_zr[:, k * h:(k + 1) * h].T
        return w, u, self.b[k * h:(k + 1) * h]


@dataclass
class GruLayerParams:
    forward: DirectionParams
    backward: DirectionParams | None = None


@dataclass
class DenseSoftmaxHead:
    w: np.ndarray  # (feature_dim, 2)
    b: np.ndarray  # (2,)


@dataclass
class GruModel:
    spec: ModelSpec
    layers: list[GruLayerParams]
    head: DenseSoftmaxHead
    init_seed: int = 0

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Named live references to every parameter array, canonical order."""
        out = []
        for i, layer in enumerate(self.layers):
            dirs = [("fwd", layer.forward)]
            if layer.backward is not None:
                dirs.append(("bwd", layer.backward))
            for tag, d in dirs:
                prefix = f"layer{i}.{tag}"
                out.append((f"{prefix}.wx", d.wx))
                out.append((f"{prefix}.u_zr", d.u_zr))
                out.append((f"{prefix}.u_c", d.u_c))
                out.append((f"{prefix}.b", d.b))
        out.append(("head.w", self.head.w))
        out.append(("head.b", self.head.b))
        return out

    def copy(self) -> "GruModel":
        layers = []
        for layer in self.layers:
            fwd = DirectionParams(
                layer.forward.wx.copy(), layer.forward.u_zr.copy(),
                layer.forward.u_c.copy(), layer.forward.b.copy(),
            )
            bwd = None
            if layer.backward is not None:
                bwd = DirectionParams(
                    layer.backward.wx.copy(), layer.backward.u_zr.copy(),
                    layer.backward.u_c.copy(), layer.backward.b.copy(),
                )
            layers.append(GruLayerParams(fwd, bwd))
        head = DenseSoftmaxHead(self.head.w.copy(), self.head.b.copy())
        return GruModel(spec=self.spec, layers=layers, head=head, init_seed=self.init_seed)


def _init_direction(rng: np.random.Generator, input_dim: int, units: int) -> DirectionParams:
    bw = np.sqrt(6.0 / (input_dim + units))
    bu = np.sqrt(6.0 / (units + units))
    gates_w = [rng.uniform(-bw, bw, size=(input_dim, units)) for _ in range(3)]
    gates_u = [rng.uniform(-bu, bu, size=(units, units)) for _ in range(3)]
    return DirectionParams(
        wx=np.concatenate(gates_w, axis=1),
        u_zr=np.concatenate(gates_u[:2], axis=1),
        u_c=gates_u[2],
        b=np.zeros(3 * units),
    )


def init_params(spec: ModelSpec, seed: int) -> GruModel:
    """Deterministic fan-based uniform initialization, biases zero.

    Every matrix is sampled within +-sqrt(6 / (fan_in + fan_out)); the
    sampling order (layer, direction, gates z/r/c, W before U) is fixed,
    so a given seed always yields bit-identical parameters.
    """
    rng = np.random.default_rng(seed)
    layers = []
    input_dim = spec.input_channels
    for li in range(spec.num_layers):
        units = spec.units[li]
        fwd = _init_direction(rng, input_dim, units)
        bwd = _init_direction(rng, input_dim, units) if spec.bidirectional else None
        layers.append(GruLayerParams(fwd, bwd))
        input_dim = 2 * units if spec.bidirectional else units
    feat = spec.feature_dim()
    bh = np.sqrt(6.0 / (feat + 2))
    head = DenseSoftmaxHead(w=rng.uniform(-bh, bh, size=(feat, 2)), b=np.zeros(2))
    return GruModel(spec=spec, layers=layers, head=head, init_seed=seed)


def gru_cell_forward(x: np.ndarray, h: np.ndarray, params: DirectionParams) -> np.ndarray:
    """Single GRU cell step on vectors; the reference (unbatched) path."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.shape != (params.input_dim,) or h.shape != (params.units,):
        raise DimensionMismatch(
            f"expected x{(params.input_dim,)}, h{(params.units,)}; "
            f"got x{x.shape}, h{h.shape}"
        )
    n = params.units
    pre = x @ params.wx + params.b
    zr = sigmoid(pre[:2 * n] + h @ params.u_zr)
    z, r = zr[:n], zr[n:]
    c = np.tanh(pre[2 * n:] + (r * h) @ params.u_c)
    return (1.0 - z) * h + z * c


# --- batched scan over time -----------------------------------------------------


@dataclass
class _ScanCache:
    x_seq: np.ndarray  # (B, T, D) in processing order
    zrs: np.ndarray | None  # (B, T, 2H) update|reset gates
    cs: np.ndarray | None
    hs: np.ndarray     # (B, T, H) emitted states in processing order


def _scan(x_seq: np.ndarray, dp: DirectionParams, need_cache: bool) -> _ScanCache:
    B, T, D = x_seq.shape
    H = dp.units
    xp = (x_seq.reshape(B * T, D) @ dp.wx).reshape(B, T, 3 * H)
    xp += dp.b
    hs = np.empty((B, T, H))
    if need_cache:
        zrs = np.empty((B, T, 2 * H))
        cs = np.empty((B, T, H))
    h = np.zeros((B, H))
    for t in range(T):
        zr = sigmoid(xp[:, t, :2 * H] + h @ dp.u_zr)
        z, r = zr[:, :H], zr[:, H:]
        c = np.tanh(xp[:, t, 2 * H:] + (r * h) @ dp.u_c)
        h = (1.0 - z) * h + z * c
        hs[:, t] = h
        if need_cache:
            zrs[:, t] = zr
            cs[:, t] = c
    if not need_cache:
        zrs = cs = None
    return _ScanCache(x_seq=x_seq, zrs=zrs, cs=cs, hs=hs)


@dataclass
class _DirGrads:
    wx: np.ndarray
    u_zr: np.ndarray
    u_c: np.ndarray
    b: np.ndarray


def _scan_backward(dp: DirectionParams, cache: _ScanCache, d_hs: np.ndarray) -> tuple[_DirGrads, np.ndarray]:
    """Exact BPTT through one scan. ``d_hs`` is the gradient w.r.t. every
    emitted state in processing order; returns parameter gradients and the
    gradient w.r.t. the scanned input sequence."""
    B, T, H = cache.hs.shape
    D = dp.input_dim
    zeros = np.zeros((B, H))
    d_pre = np.empty((B, T, 3 * H))
    du_zr = np.zeros_like(dp.u_zr)
    du_c = np.zeros_like(dp.u_c)
    dh = np.zeros((B, H))
    u_c_t, u_zr_t = dp.u_c.T, dp.u_zr.T
    for t in range(T - 1, -1, -1):
        h_prev = cache.hs[:, t - 1] if t > 0 else zeros
        z, r = cache.zrs[:, t, :H], cache.zrs[:, t, H:]
        c = cache.cs[:, t]
        dht = d_hs[:, t] + dh
        dc_pre = (dht * z) * (1.0 - c * c)
        d_rh = dc_pre @ u_c_t
        dz_pre = (dht * (c - h_prev)) * z * (1.0 - z)
        dr_pre = (d_rh * h_prev) * r * (1.0 - r)
        d_pre[:, t, :H] = dz_pre
        d_pre[:, t, H:2 * H] = dr_pre
        d_pre[:, t, 2 * H:] = dc_pre
        d_zr = d_pre[:, t, :2 * H]
        dh = dht * (1.0 - z) + d_rh * r + d_zr @ u_zr_t
        if t > 0:
            du_zr += h_prev.T @ d_zr
            du_c += (r * h_prev).T @ dc_pre
    flat = d_pre.reshape(B * T, 3 * H)
    d_wx = cache.x_seq.reshape(B * T, D).T @ flat
    d_b = flat.sum(axis=0)
    d_x = (flat @ dp.wx.T).reshape(B, T, D)
    return _DirGrads(wx=d_wx, u_zr=du_zr, u_c=du_c, b=d_b), d_x


# --- full model forward / backward ----------------------------------------------


@dataclass
class ForwardCache:
    probs: np.ndarray          # (B, 2)
    feat: np.ndarray           # (B, feature_dim)
    layer_caches: list[tuple[_ScanCache, _ScanCache | None]] | None  # None: inference only


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
    seq = windows
    layer_caches: list[tuple[_ScanCache, _ScanCache | None]] = []
    cache_f = cache_b = None
    top = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        cache_f = _scan(seq, layer.forward, need_cache)
        cache_b = None
        if layer.backward is not None:
            cache_b = _scan(seq[:, ::-1], layer.backward, need_cache)
        if li < top:  # the top layer's sequence is never read, only its final states
            seq = (cache_f.hs if cache_b is None
                   else np.concatenate([cache_f.hs, cache_b.hs[:, ::-1]], axis=2))
        if need_cache:
            layer_caches.append((cache_f, cache_b))
    if cache_b is not None:
        feat = np.concatenate([cache_f.hs[:, -1], cache_b.hs[:, -1]], axis=1)
    else:
        feat = cache_f.hs[:, -1]
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

    d_seq = None  # gradient w.r.t. the next-lower layer's output sequence
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        cache_f, cache_b = cache.layer_caches[li]
        H = layer.forward.units
        B_, T, _ = cache_f.hs.shape
        d_hs_f = np.zeros((B_, T, H))
        d_hs_b = np.zeros((B_, T, H)) if cache_b is not None else None
        if d_seq is not None:
            d_hs_f += d_seq[:, :, :H]
            if d_hs_b is not None:
                d_hs_b += d_seq[:, :, H:][:, ::-1]
        if li == len(model.layers) - 1:
            d_hs_f[:, -1] += d_feat[:, :H]
            if d_hs_b is not None:
                d_hs_b[:, -1] += d_feat[:, H:]
        g_f, d_x_f = _scan_backward(layer.forward, cache_f, d_hs_f)
        prefix = f"layer{li}.fwd"
        grads[f"{prefix}.wx"] = g_f.wx
        grads[f"{prefix}.u_zr"] = g_f.u_zr
        grads[f"{prefix}.u_c"] = g_f.u_c
        grads[f"{prefix}.b"] = g_f.b
        d_seq = d_x_f
        if cache_b is not None:
            g_b, d_x_b = _scan_backward(layer.backward, cache_b, d_hs_b)
            prefix = f"layer{li}.bwd"
            grads[f"{prefix}.wx"] = g_b.wx
            grads[f"{prefix}.u_zr"] = g_b.u_zr
            grads[f"{prefix}.u_c"] = g_b.u_c
            grads[f"{prefix}.b"] = g_b.b
            d_seq = d_seq + d_x_b[:, ::-1]
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
