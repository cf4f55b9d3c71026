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
n_dir = 1. Scan arrays are time-major with the gates and directions inside,
(T, [gate,] n_dir, batch, H), so each step's slice is one contiguous block.

Input shares: a scan computes the input's share of every gate's
pre-activation, x W + b, for every direction, one block of steps at a time
just before its time loop reaches them, each direction's rows (one per
window and step) concatenated from the lower layer's states. A training
pass takes one block of all T steps, whose rows BPTT builds again; an
inference pass over B windows takes blocks of ceil(BLOCK_ROWS / B) steps,
and builds no layer's whole input. For a few widths (12 and 18 units) BLAS
picks its product kernel by row count, so inference can then differ from
training in the last bit. Layer 0 of an inference pass over stride-1 windows (each
window one sample after the one before, as ``CleanSeries.windows`` gives
them) instead takes one row per sample: a chunk of B windows of T samples
is B+T-1 samples, and each step reads a sliding view of those rows. Its
backward direction runs the windows last-first there, and
:func:`forward_batch` puts them back in order.

Backpropagation: the backward time loop carries only the state gradient.
The factors that turn it into each gate's pre-activation gradient are built
before the loop in whole-array passes, and every sum over rows is taken
after it.

Reduction order: per direction, each sum over rows is one product over all
(time, batch) rows, in that order (time in processing order, batch inside
it): d_wx = x^T d_pre, d_b = sum(d_pre), and over the rows of steps 1..T-1
(step 0 reads the zero state) d_u_zr = h_prev^T [d_z|d_r] and
d_u_c = (r * h_prev)^T d_c. Float sums depend on their order, so another
order would change the trained weights. BLAS's thread count changes how it
splits a product, so ``train.fit`` and every stride-1 trace hold numpy's
OpenBLAS to one thread with :func:`one_blas_thread`.

Buffers: the large arrays of the cached forward pass and of BPTT (each
gate's input share, every layer's gates, candidates and states, the rows a
layer's input shares are taken from, the pre-activation and input
gradients, and the row copies the weight-gradient products read) live in
a :class:`Workspace`, one flat buffer per role. A role whose data is dead
lends its buffer to the next: the pre-activation gradients take the input
shares' buffer, a direction's gradient rows its layer's z and r gates',
the state rows the product scratch's, and the input rows, which BPTT
rebuilds from the lower layer's states as the forward pass built them,
hold the backward direction's input gradient once read. A training pass
over T steps of B windows thus keeps 4L + 6.5 units of T n_dir B H floats
for L bidirectional layers of H units each (11.3 MiB at 2x32b, window 100,
batch 16), plus a copy of the windows; a forward-only layer's z and r
buffer grows by half to hold its gradient rows. Nothing is recomputed, and
no product or sum depends on which buffer holds its operands. ``train.fit``
owns one workspace for the whole call and passes it to every batch, so
after its first full batch no batch allocates a large array; any other
:func:`forward_batch` call gets a fresh workspace of its own. A buffer is
replaced only when a larger shape is asked for, so an epoch's short last
batch reuses the full batches' memory. A training cache keeps every
layer's gates, candidates and states in a slot of their own until
:func:`backward_batch` consumes them; the next ``forward_batch`` on the
same workspace overwrites them, and ``backward_batch`` then rejects the
stale cache with NoActivationCache instead of returning wrong gradients.
An inference pass keeps a layer's states only while the layer above reads
them, in two slots that alternate by layer, and of the top layer only its
running state. Probabilities, features and gradients are always fresh
arrays.

All arithmetic is float64. Per step and for all directions together, the
forward loop makes two small matmuls and two tanh calls; the sigmoid is
taken in tanh form, with its halving folded into the z and r weights, so
it cannot overflow at any input and needs no sign masks.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import math
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, NoActivationCache

PROB_FLOOR = 1e-12
# Rows (windows x steps) per block of an inference scan's input shares: a
# block is ceil(BLOCK_ROWS / B) steps at B windows. 2x32b at window 100, one
# BLAS thread, CPU time per chunk: at 16 windows one-step blocks took 8.8 ms
# against 5.9 at 1,024 rows, and larger blocks were no faster (5.7-6.0 ms);
# at 128 windows every size was within the spread. A 128-window chunk's
# traced peak is 9.1 MiB at 1,024 rows, 15.9 at 4,096 and 35.0 in one block.
BLOCK_ROWS = 1024


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) == (1+tanh(x/2))/2: tanh saturates where exp would
    # overflow, so no input raises a warning and no split by sign (masks
    # and gathered temporaries) is needed. ``_scan`` computes the same
    # function with the halving folded into the z and r weights.
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
            raise ConfigInvalid("num_layers must be >= 1")
        if len(self.units) != self.num_layers:
            raise ConfigInvalid("units list length must equal num_layers")
        if any(u < 1 for u in self.units) or self.window_size < 1:
            raise ConfigInvalid("units and window_size must be positive")

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


# --- buffers reused across batches ----------------------------------------------


class Workspace:
    """One flat float64 buffer per role, reused from batch to batch (see
    Buffers in the module docstring). ``generation`` counts the
    :func:`forward_batch` calls made on it."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self.allocations = 0  # buffers allocated, each growth counted
        self.generation = 0

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous view of the first elements of the role's buffer."""
        size = math.prod(shape)
        buf = self._buffers.get(role)
        if buf is None or buf.size < size:
            buf = self._buffers[role] = np.empty(size)
            self.allocations += 1
        return buf[:size].reshape(shape)

    def copy(self, role: str, a: np.ndarray) -> np.ndarray:
        """A C-contiguous copy of ``a`` in the role's buffer."""
        out = self.take(role, a.shape)
        np.copyto(out, a)
        return out


# --- batched scan over time -----------------------------------------------------


def _time_aligned(seqs) -> list[np.ndarray]:
    """Per-direction sequences (time on their first axis) with the backward
    one reversed in time: maps natural time to each direction's processing
    order, and back."""
    return [s[::(-1) ** k] for k, s in enumerate(seqs)]


@dataclass
class _ScanCache:
    seq: list[np.ndarray] | None  # (T, B, D_i) input parts in natural time; None: inference
    zrs: np.ndarray | None  # (T, 2, n_dir, B, H) update and reset gates
    cs: np.ndarray | None   # (T, n_dir, B, H) candidates
    hs: np.ndarray          # (T, n_dir, B, H) emitted states in processing order
    slot: int               # the workspace slot of zrs, cs and hs


def _by_gate(a: np.ndarray, gates: int) -> np.ndarray:
    """The gate columns [g0|g1|...] of a stacked (n_dir, R, gates*H)
    parameter as a leading gate axis: (gates, n_dir, R, H)."""
    n, rows, _ = a.shape
    return a.reshape(n, rows, gates, -1).transpose(2, 0, 1, 3)


def _scan(seq: np.ndarray | list[np.ndarray], layer: GruLayer, ws: Workspace,
          need_cache: bool, slot: int = 0, samples: np.ndarray | None = None,
          keep: bool = True) -> _ScanCache:
    """Run every direction of ``layer`` over the time-major input ``seq``
    (T, B, D), or over the concatenation of a list of (T, B, D_i) arrays
    along their last axis, all directions in one time loop.

    The input shares are computed in blocks (see Input shares in the module
    docstring), each block's rows built in the transient ``x_rows`` buffer;
    a training cache keeps the input's parts, from which BPTT rebuilds them.
    Given ``samples`` (B+T-1, D), with ``seq[t, b] == samples[t + b]``, they
    are computed once per sample instead, and step t of batch row b reads
    sample row t + b in both directions: the backward direction then runs
    the batch last-first, so its row b holds the states of window B-1-b.
    The emitted states (and, with ``need_cache``, the gates and candidates)
    go to the buffers of ``slot``; with ``keep`` False only the running
    state is kept, and the cache's ``hs`` is the final one, (1, n_dir, B, H).

    sigmoid(a) = 0.5 + 0.5 tanh(a / 2), with the halving folded into the z
    and r weights and biases: a power-of-two scale is exact, so the gates
    equal :func:`sigmoid` of their pre-activations.
    """
    parts = [seq] if isinstance(seq, np.ndarray) else seq
    T, B = parts[0].shape[:2]
    D = sum(p.shape[-1] for p in parts)
    n, H = layer.n_dir, layer.units
    scale = np.array([0.5, 0.5, 1.0])[:, None, None, None]
    w = _by_gate(layer.wx, 3) * scale  # (3, n, D, H)
    b = _by_gate(layer.b[:, None], 3) * scale  # (3, n, 1, H)
    u_zr = _by_gate(layer.u_zr, 2) * 0.5  # (2, n, H, H)

    def project(rows: np.ndarray, k: int, out: np.ndarray) -> None:
        """out[g] = rows @ w[g, k] + b[g, k] for each gate g, one (rows, D)
        @ (D, H) product each; ``out`` orders the rows as it stores them."""
        xw = ws.take("xw", (len(rows), H))
        for g in range(3):
            np.matmul(rows, w[g, k], out=xw)
            np.add(xw.reshape(out.shape[1:]), b[g, k], out=out[g])

    if need_cache or samples is not None:
        block = T
    else:
        block = min(T, -(-BLOCK_ROWS // max(B, 1)))
    if samples is not None:  # a row per sample, the backward direction's last-first
        shares = np.empty((3, n, B + T - 1, H))
        for k in range(n):
            project(samples, k, shares[:, k, ::(-1) ** k])
        # (T, 3, n, B, H), step t of row b at sample row t + b
        xp = np.lib.stride_tricks.sliding_window_view(shares, B, axis=2).transpose(2, 0, 1, 4, 3)
    h = np.zeros((n, B, H))
    if keep:
        hs = ws.take(f"hs{slot}", (T, n, B, H))
        outs = iter(hs)
    else:  # the state is updated in place, and hs views it
        hs, outs = h[None], repeat(h)
    if need_cache:
        zrs, cs = ws.take(f"zrs{slot}", (T, 2, n, B, H)), ws.take(f"cs{slot}", (T, n, B, H))
        gates = zip(zrs, cs)
    else:
        gates = repeat((np.empty((2, n, B, H)), np.empty((n, B, H))))
    rh, move = np.empty((n, B, H)), np.empty((n, B, H))
    for t0 in range(0, T, block):
        t1 = min(t0 + block, T)
        if samples is None:
            # the backward direction's steps t0..t1-1 read natural time
            # T-t1..T-t0 backwards: its shares are stored reversed, so no
            # reversed copy of the input is made
            xb = ws.take("xp", (t1 - t0, 3, n, B, H))
            for k in range(n):
                lo, hi = (t0, t1) if k == 0 else (T - t1, T - t0)
                if k == 0 or lo != t0:
                    rows = np.concatenate([p[lo:hi] for p in parts], axis=-1,
                                          out=ws.take("x_rows", (hi - lo, B, D)))
                project(rows.reshape(-1, D), k, xb[::(-1) ** k, :, k].swapaxes(0, 1))
        else:
            xb = xp[t0:t1]
        # zip reads xb first, so outs and gates advance only by the block's steps
        for x, (zr, c), h_next in zip(xb, gates, outs):
            np.matmul(h, u_zr, out=zr)
            zr += x[:2]
            np.tanh(zr, out=zr)
            zr *= 0.5
            zr += 0.5
            np.multiply(zr[1], h, out=rh)
            np.matmul(rh, layer.u_c, out=c)
            c += x[2]
            np.tanh(c, out=c)
            np.subtract(c, h, out=move)  # h' = h + z (c - h)
            move *= zr[0]
            h = np.add(h, move, out=h_next)
    if not need_cache:
        parts = zrs = cs = None
    return _ScanCache(seq=parts, zrs=zrs, cs=cs, hs=hs, slot=slot)


def _scan_backward(layer: GruLayer, cache: _ScanCache, d_hs: np.ndarray,
                   ws: Workspace) -> tuple[GruLayer, np.ndarray]:
    """Exact BPTT through one scan. ``d_hs`` (T, n_dir, B, H) is the
    gradient w.r.t. every emitted state in processing order; returns the
    parameter gradients, stacked like ``layer``, and the gradient w.r.t.
    the scanned input sequence in natural time, (T, B, D), a view of
    ``ws``'s buffer that the next call overwrites.

    Consumes ``cache``: its gate and candidate buffers are overwritten. The
    pre-activation gradients take the buffer of the input shares, dead once
    the forward time loop ended; each direction's copy of them as rows the
    buffer of the gates z and r, dead once this time loop ends.
    """
    T, n, B, H = cache.hs.shape
    D = sum(p.shape[-1] for p in cache.seq)
    z, r, c = cache.zrs[:, 0], cache.zrs[:, 1], cache.cs
    h_prev = cache.hs[:-1]  # the states steps 1..T-1 read; step 0 reads zeros
    # Before the time loop, d_pre holds per gate the factor that takes the
    # state gradient to that gate's pre-activation gradient, built in
    # whole-array passes: a_z = (c - h_prev) z(1-z), a_r = h_prev r(1-r),
    # a_c = z(1-c^2). Then z's buffer holds 1 - z, and c's holds r h_prev.
    d_pre = ws.take("xp", (T, 3, n, B, H))
    a_z, a_r, a_c = d_pre[:, 0], d_pre[:, 1], d_pre[:, 2]
    a_z[0] = c[0]
    np.subtract(c[1:], h_prev, out=a_z[1:])
    a_z *= z
    np.multiply(c, c, out=c)
    np.subtract(1.0, c, out=c)
    np.multiply(z, c, out=a_c)
    omz = np.subtract(1.0, z, out=z)
    a_z *= omz
    rh = c
    rh[0] = 0.0
    np.multiply(r[1:], h_prev, out=rh[1:])
    np.subtract(1.0, r, out=a_r)
    a_r *= rh
    # The time loop carries only the state gradient; it turns each step's
    # factors into that step's pre-activation gradients in place.
    u_c_t = layer.u_c.swapaxes(1, 2)
    u_zr_t = _by_gate(layer.u_zr, 2).swapaxes(2, 3)  # (2, n, H, H)
    dh, dht = np.zeros((n, B, H)), np.empty((n, B, H))
    d_rh, d_zr_u = np.empty((n, B, H)), np.empty((2, n, B, H))
    for d_h, d, omz_t, r_t in zip(d_hs[::-1], d_pre[::-1], omz[::-1], r[::-1]):
        np.add(d_h, dh, out=dht)
        np.multiply(d[::2], dht, out=d[::2])
        np.matmul(d[2], u_c_t, out=d_rh)
        d[1] *= d_rh
        np.matmul(d[:2], u_zr_t, out=d_zr_u)
        np.multiply(dht, omz_t, out=dh)
        d_rh *= r_t
        dh += d_rh
        dh += d_zr_u[0]
        dh += d_zr_u[1]
    # Every sum over rows is one product over all rows of a direction, taken
    # in (time, batch) order; the recurrent weights' sums skip step 0, whose
    # h_prev is zero. One direction's rows are copied out at a time: its
    # input rows rebuilt from the input's parts, as the forward pass built
    # them, and the state rows into the forward pass's product scratch.
    grads = GruLayer(*(np.empty_like(p) for p in (layer.wx, layer.u_zr, layer.u_c, layer.b)))
    d_seq = ws.take("d_seq", (T, B, D))
    for k in range(n):
        x = np.concatenate([p[::(-1) ** k] for p in cache.seq], axis=-1,
                           out=ws.take("x_rows", (T, B, D))).reshape(T * B, D)
        rows = ws.copy(f"zrs{cache.slot}",  # [z|r|c] columns
                       d_pre[:, :, k].swapaxes(1, 2)).reshape(T * B, 3 * H)
        later = rows[B:]
        grads.wx[k] = x.T @ rows
        grads.u_zr[k] = ws.copy("xw", h_prev[:, k]).reshape(-1, H).T @ later[:, :2 * H]
        grads.u_c[k] = ws.copy("xw", rh[1:, k]).reshape(-1, H).T @ later[:, 2 * H:]
        grads.b[k] = rows.sum(axis=0)
        # direction 0's input gradient goes straight into d_seq; the backward
        # direction's into x's rows, read by now, then added time-reversed
        np.matmul(rows, layer.wx[k].T, out=x if k else d_seq.reshape(T * B, D))
        if k:
            d_seq += x.reshape(T, B, D)[::-1]
    return grads, d_seq


# --- BLAS thread count ------------------------------------------------------------


class OpenBlas(NamedTuple):
    """An OpenBLAS bundled with numpy or scipy: its file name and the
    getter and setter of its thread count."""

    library: str
    get: Callable[[], int]
    put: Callable[[int], None]


def _bundled_openblas(package: Path, suffix: str) -> OpenBlas | None:
    """The OpenBLAS a wheel bundles in ``<name>.libs`` beside its package
    directory ``package``, whose thread-count functions are
    ``scipy_openblas_{get|set}_num_threads{suffix}``; None where it is not
    found."""
    for path in sorted((package.parent / f"{package.name}.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return OpenBlas(path.name, get, put)
    return None


@functools.cache
def openblas() -> OpenBlas | None:
    """The OpenBLAS bundled with numpy (64-bit integer API), or None where
    it is not found."""
    return _bundled_openblas(Path(np.__file__).parent, "64_")


@functools.cache
def scipy_openblas() -> OpenBlas | None:
    """The OpenBLAS bundled with scipy (32-bit integer API), which scipy's
    LAPACK wrappers and optimizers call, or None where it is not found. It
    is found by path, so this module does not import scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    return _bundled_openblas(Path(spec.origin).parent, "")


@contextmanager
def one_blas_thread(find: Callable[[], OpenBlas | None] = openblas):
    """Hold an OpenBLAS to one thread, where it is found, and set it back
    after: numpy's while a trace or ``train.fit`` runs, scipy's
    (``find=scipy_openblas``) while ``hpo`` refits its GP and scores EI."""
    blas = find()
    if blas is None:
        yield
        return
    before = blas.get()
    blas.put(1)
    try:
        yield
    finally:
        blas.put(before)


# --- full model forward / backward ----------------------------------------------


@dataclass
class ForwardCache:
    probs: np.ndarray          # (B, 2)
    feat: np.ndarray           # (B, feature_dim)
    layer_caches: list[_ScanCache] | None  # None: inference only, or consumed by backward_batch
    workspace: Workspace | None = None  # holds layer_caches' arrays
    generation: int = 0        # the workspace's generation that wrote them


def forward_batch(model: GruModel, windows: np.ndarray, need_cache: bool = True, *,
                  workspace: Workspace | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of windows through the network.

    ``windows`` has shape (batch, window_size, input_channels). Returns
    class probabilities (batch, 2) ordered (nosyncope, syncope) and a
    cache. With ``need_cache=True`` the cache holds the activations that
    :func:`backward_batch` needs; with ``need_cache=False`` (inference)
    it keeps only ``probs`` and ``feat``, and ``backward_batch`` rejects it.

    The large arrays live in ``workspace``, a fresh one when none is
    given. A later call on the same workspace overwrites them, so
    ``backward_batch`` rejects every earlier cache from it; ``probs`` and
    ``feat`` are the caller's own.
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
    ws = Workspace() if workspace is None else workspace
    ws.generation += 1
    # stride-1 windows: layer 0 takes its input shares per sample (see Input
    # shares in the module docstring)
    samples = None
    if not need_cache and len(windows) and windows.strides[0] == windows.strides[1]:
        samples = np.concatenate([windows[:, 0], windows[-1, 1:]])
    seq = windows.transpose(1, 0, 2)  # time-major
    if need_cache:  # BPTT reads it again: a copy, so the caller may reuse windows
        seq = ws.copy("seq0", seq)
    layer_caches: list[_ScanCache] = []
    top = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        # backward_batch reads every layer's activations; inference reads a
        # layer's states only while the layer above runs, so its layers
        # alternate between two slots, and the top layer keeps only its
        # running state (the head reads its final states)
        slot = li if need_cache else li % 2
        cache = _scan(seq, layer, ws, need_cache, slot, samples, keep=need_cache or li < top)
        layer_caches.append(cache)
        states = list(cache.hs.swapaxes(0, 1))  # per direction, in processing order
        if samples is not None:  # the backward direction's batch back in window order
            states[1:] = [s[:, ::-1] for s in states[1:]]
            samples = None  # the next layers' input is one row per window and step
        seq = _time_aligned(states)  # the next layer's input, per direction
    feat = np.concatenate([s[-1] for s in states], axis=-1)  # per row [fwd|bwd], a copy
    probs = softmax(feat @ model.head.w + model.head.b)
    if not need_cache:
        return probs, ForwardCache(probs=probs, feat=feat, layer_caches=None)
    return probs, ForwardCache(probs=probs, feat=feat, layer_caches=layer_caches,
                               workspace=ws, generation=ws.generation)


def batch_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy over a batch, each probability floored at 1e-12."""
    p = np.maximum(probs[np.arange(len(targets)), targets], PROB_FLOOR)
    return float(-np.log(p).mean())


def backward_batch(model: GruModel, cache: ForwardCache, targets: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy over the batch, by parameter name.

    Consumes ``cache``: the backward pass reuses its buffers, so a second
    call with the same cache raises NoActivationCache, as does a cache
    whose workspace a later forward_batch reused.
    """
    layer_caches, cache.layer_caches = cache.layer_caches, None
    if layer_caches is None:
        raise NoActivationCache(
            "backward_batch needs the activations of forward_batch(need_cache=True); "
            "this cache was made with need_cache=False or was already consumed by "
            "backward_batch"
        )
    ws = cache.workspace
    if cache.generation != ws.generation:
        raise NoActivationCache(
            "this cache is stale: a later forward_batch reused its workspace and "
            "overwrote its activations"
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
    d_hs = ws.take("d_hs", layer_caches[-1].hs.shape)
    d_hs[:-1] = 0.0
    d_hs[-1] = d_feat.reshape(B, n, -1).swapaxes(0, 1)
    for li in range(len(model.layers) - 1, -1, -1):
        g, d_seq = _scan_backward(model.layers[li], layer_caches[li], d_hs, ws)
        grads.update(g.named(li))
        if li > 0:  # split the gradient w.r.t. the lower layer's output by direction
            d_hs = np.stack(_time_aligned(np.split(d_seq, n, axis=-1)), axis=1,
                            out=ws.take("d_hs", layer_caches[li - 1].hs.shape))
    return grads


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
    def for_model(cls, model: GruModel, **settings: float) -> "AdadeltaState":
        """Zeroed averages for ``model``; ``settings`` override field defaults."""
        state = cls(**settings)
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
