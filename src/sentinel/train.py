"""Window extraction, labeling, the training loop, and checkpoints.

Series become fixed-length sliding windows. For a syncope series with
marker index m, a window ending at index e is labeled positive when
m - positive_horizon <= e <= m, negative when e < m - positive_horizon,
and dropped when e > m (post-event data never trains the predictor).
Non-syncope series yield only negatives. Syncope series with no usable
marker cannot be labeled and are skipped (reported in the history).

Class indices are fixed: 0 = nosyncope, 1 = syncope, matching the
probability column order produced by the network head.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import Label, write_table
from .errors import (
    BadWindow,
    ConfigError,
    CorruptCheckpoint,
    NonFiniteLoss,
    NoPositiveWindows,
    VersionMismatch,
)
from .nn import (
    AdadeltaState,
    DenseSoftmaxHead,
    GruLayer,
    GruModel,
    ModelSpec,
    Workspace,
    adadelta_update,
    backward_batch,
    batch_loss,
    forward_batch,
    init_params,
    one_blas_thread,
)
from .preprocess import CleanSeries, SplitDataset

NEGATIVE, POSITIVE = 0, 1

CHECKPOINT_FORMAT = "sentinel-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    window_size: int = 100
    epochs: int = 50
    stride: int = 10
    positive_horizon: int = 750
    batch_size: int = 16
    seed: int = 0
    rho: float = 0.95
    epsilon: float = 1e-6
    lr_multiplier: float = 1.0
    lr_decay: float = 1.0

    def __post_init__(self):
        if self.window_size < 1:
            raise BadWindow(f"window_size must be >= 1, got {self.window_size}")
        if self.stride < 1:
            raise BadWindow(f"stride must be >= 1, got {self.stride}")
        if self.positive_horizon < self.window_size:
            raise BadWindow(
                f"positive_horizon ({self.positive_horizon}) must be >= "
                f"window_size ({self.window_size})"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


@dataclass
class WindowSet:
    inputs: np.ndarray   # (n, window_size, 2)
    labels: np.ndarray   # (n,) ints
    skipped_series: list[str]

    def __len__(self) -> int:
        return len(self.labels)


def build_window_set(series_list: list[CleanSeries], cfg: TrainConfig) -> WindowSet:
    """Cut every series into windows (:meth:`CleanSeries.windows` at
    ``cfg.stride``) and label each by the index of its last sample."""
    inputs, labels = [np.zeros((0, cfg.window_size, 2))], [np.zeros(0, dtype=int)]
    skipped = []
    for s in series_list:
        windows, ends = s.windows(cfg.window_size, cfg.stride)
        if s.label is not Label.SYNCOPE:
            label = np.full(len(ends), NEGATIVE)
        elif s.marker_index is None:
            skipped.append(s.id)
            continue
        else:
            # windows ending after the marker are a suffix: cut it off
            keep = np.searchsorted(ends, s.marker_index, side="right")
            windows, ends = windows[:keep], ends[:keep]
            label = np.where(ends >= s.marker_index - cfg.positive_horizon,
                             POSITIVE, NEGATIVE)
        inputs.append(windows)
        labels.append(label)
    return WindowSet(inputs=np.concatenate(inputs), labels=np.concatenate(labels),
                     skipped_series=skipped)


def iter_batches(window_set: WindowSet, batch_size: int, rng: np.random.Generator):
    """Yield shuffled ``(inputs, labels)`` mini-batches; the final short
    batch is kept."""
    order = rng.permutation(len(window_set))
    for lo in range(0, len(order), batch_size):
        idx = order[lo:lo + batch_size]
        yield window_set.inputs[idx], window_set.labels[idx]


@dataclass
class TrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    n_windows: int = 0
    n_positive: int = 0
    n_negative: int = 0
    skipped_series: list[str] = field(default_factory=list)


def fit(split: SplitDataset, spec: ModelSpec, cfg: TrainConfig,
        ) -> tuple[GruModel, AdadeltaState, TrainHistory]:
    """Train a fresh model on the split's training series.

    Deterministic for a fixed config: the same seed drives initialization
    and every epoch's shuffle. Numpy's OpenBLAS is held to one thread while
    training (:func:`nn.one_blas_thread`), because its sums over rows round
    differently at another thread count; so the trained weights do not
    depend on it. Every batch's forward pass and BPTT run in one
    :class:`nn.Workspace`, so after the first batch of full size they
    allocate no large array. Raises
    NonFiniteLoss if the loss diverges; the exception carries the model as
    of the last completed epoch.
    """
    if spec.window_size != cfg.window_size:
        raise BadWindow(
            f"model window_size {spec.window_size} != "
            f"training window_size {cfg.window_size}"
        )
    ws = build_window_set(split.train, cfg)
    history = TrainHistory(
        n_windows=len(ws),
        n_positive=int((ws.labels == POSITIVE).sum()),
        n_negative=int((ws.labels == NEGATIVE).sum()),
        skipped_series=ws.skipped_series,
    )
    if len(ws) == 0 or history.n_positive == 0:
        raise NoPositiveWindows(
            f"degenerate labeling: {history.n_positive} positive / "
            f"{history.n_negative} negative windows"
        )
    model = init_params(spec, cfg.seed)
    state = AdadeltaState.for_model(
        model, rho=cfg.rho, epsilon=cfg.epsilon,
        lr_multiplier=cfg.lr_multiplier, lr_decay=cfg.lr_decay,
    )
    rng = np.random.default_rng(cfg.seed)
    last_good = model.copy()
    workspace = Workspace()
    with one_blas_thread():
        for _ in range(cfg.epochs):
            total, count = 0.0, 0
            for inputs, labels in iter_batches(ws, cfg.batch_size, rng):
                probs, cache = forward_batch(model, inputs, workspace=workspace)
                loss = batch_loss(probs, labels)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(
                        f"non-finite training loss after {len(history.epoch_losses)} "
                        f"completed epochs",
                        last_good_model=last_good,
                    )
                grads = backward_batch(model, cache, labels)
                adadelta_update(model, grads, state)
                total += loss * len(labels)
                count += len(labels)
            state.end_epoch()
            history.epoch_losses.append(total / count)
            last_good = model.copy()
    return model, state, history


# --- checkpoints -----------------------------------------------------------------


# checkpoint keys of a layer's stacked directions, in order; a forward-only
# layer stores "backward": null
DIRECTION_KEYS = ("forward", "backward")


def _direction_to_doc(layer: GruLayer, k: int) -> dict:
    doc = {}
    for gate in ("z", "r", "c"):
        w, u, b = layer.gate_weights(k, gate)
        doc[f"w_{gate}"] = w.tolist()
        doc[f"u_{gate}"] = u.tolist()
        doc[f"b_{gate}"] = b.tolist()
    return doc


def _layer_to_doc(layer: GruLayer) -> dict:
    docs = [_direction_to_doc(layer, k) for k in range(layer.n_dir)]
    return dict(zip(DIRECTION_KEYS, docs + [None]))


def _direction_from_doc(doc: dict, input_dim: int, units: int) -> tuple[list, list, list]:
    """One direction's per-gate (W, U, b) lists, as :meth:`GruLayer.from_gates` takes them."""
    ws, us, bs = [], [], []
    for gate in ("z", "r", "c"):
        w = np.asarray(doc[f"w_{gate}"], dtype=float)
        u = np.asarray(doc[f"u_{gate}"], dtype=float)
        b = np.asarray(doc[f"b_{gate}"], dtype=float)
        if w.shape != (units, input_dim) or u.shape != (units, units) or b.shape != (units,):
            raise CorruptCheckpoint(
                f"gate {gate}: bad shapes w{w.shape} u{u.shape} b{b.shape} "
                f"for units={units} input_dim={input_dim}"
            )
        ws.append(w.T)
        us.append(u.T)
        bs.append(b)
    return ws, us, bs


def save_checkpoint(model: GruModel, path, optimizer: AdadeltaState | None = None) -> None:
    """Write the model (and optionally optimizer state) as versioned JSON.

    Gate matrices are stored per gate in (units x input_dim) orientation,
    so the file format is independent of the in-memory fused layout.
    Floats round-trip exactly through JSON's repr formatting.
    """
    spec = model.spec
    doc = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "model": {
            "spec": {
                "num_layers": spec.num_layers,
                "units": list(spec.units),
                "bidirectional": spec.bidirectional,
                "window_size": spec.window_size,
                "input_channels": spec.input_channels,
            },
            "init_seed": model.init_seed,
            "layers": [_layer_to_doc(layer) for layer in model.layers],
            "head": {"w": model.head.w.tolist(), "b": model.head.b.tolist()},
        },
        "optimizer": None,
    }
    if optimizer is not None:
        doc["optimizer"] = {
            "rho": optimizer.rho,
            "epsilon": optimizer.epsilon,
            "lr_multiplier": optimizer.lr_multiplier,
            "lr_decay": optimizer.lr_decay,
            "eg2": {k: v.tolist() for k, v in optimizer.eg2.items()},
            "edx2": {k: v.tolist() for k, v in optimizer.edx2.items()},
        }
    text = json.dumps(doc)  # the C encoder; json.dump would stream through the Python one
    with open(path, "w") as fh:
        fh.write(text)


def load_checkpoint(path, with_optimizer: bool = False):
    """Load a checkpoint; returns the model, or (model, optimizer) when
    ``with_optimizer`` is set (optimizer may be None if it was not saved)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpoint(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(f"{path} is not a model checkpoint")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"checkpoint version {version!r}, this build reads {CHECKPOINT_VERSION}"
        )
    try:
        mdoc = doc["model"]
        sdoc = mdoc["spec"]
        spec = ModelSpec(
            num_layers=int(sdoc["num_layers"]),
            units=[int(u) for u in sdoc["units"]],
            bidirectional=bool(sdoc["bidirectional"]),
            window_size=int(sdoc["window_size"]),
            input_channels=int(sdoc["input_channels"]),
        )
        layers = []
        input_dim = spec.input_channels
        if len(mdoc["layers"]) != spec.num_layers:
            raise CorruptCheckpoint("layer count does not match spec")
        needed = list(DIRECTION_KEYS[:spec.n_dir])
        for li, ldoc in enumerate(mdoc["layers"]):
            units = spec.units[li]
            held = [key for key in DIRECTION_KEYS if ldoc.get(key) is not None]
            if held != needed:
                raise CorruptCheckpoint(
                    f"layer {li}: the spec needs {'+'.join(needed)} params, "
                    f"the checkpoint holds {'+'.join(held) or 'none'}"
                )
            layers.append(GruLayer.from_gates(
                [_direction_from_doc(ldoc[key], input_dim, units) for key in held]))
            input_dim = spec.n_dir * units
        w = np.asarray(mdoc["head"]["w"], dtype=float)
        b = np.asarray(mdoc["head"]["b"], dtype=float)
        if w.shape != (spec.feature_dim(), 2) or b.shape != (2,):
            raise CorruptCheckpoint(f"bad head shapes w{w.shape} b{b.shape}")
        model = GruModel(spec=spec, layers=layers,
                         head=DenseSoftmaxHead(w=w, b=b),
                         init_seed=int(mdoc.get("init_seed", 0)))
        optimizer = None
        odoc = doc.get("optimizer")
        if odoc is not None:
            optimizer = AdadeltaState(
                rho=float(odoc["rho"]), epsilon=float(odoc["epsilon"]),
                lr_multiplier=float(odoc["lr_multiplier"]),
                lr_decay=float(odoc["lr_decay"]),
                eg2={k: np.asarray(v, dtype=float) for k, v in odoc["eg2"].items()},
                edx2={k: np.asarray(v, dtype=float) for k, v in odoc["edx2"].items()},
            )
    except CorruptCheckpoint:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"malformed checkpoint {path}: {exc}") from exc
    if with_optimizer:
        return model, optimizer
    return model


def save_loss_trace(losses: list[float], path) -> None:
    write_table(path, ["epoch", "loss"], enumerate(losses))
