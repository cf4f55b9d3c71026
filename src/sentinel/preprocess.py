"""Signal cleaning chain: trim, gap filling, iterative outlier removal,
minmax normalization, class balancing, and the train/test split.

Stage order in :func:`preprocess_pipeline`:

    trim -> drop short -> fill gaps -> outlier removal per channel
         -> normalize per channel -> balance -> split

Each recording that fails a stage is dropped and reported, never repaired
silently. All operations are pure; balancing and splitting are seeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .data import (
    CHANNEL_NAMES,
    DEFAULT_RATE_HZ,
    DatasetCatalog,
    Label,
    RawRecording,
    csv_text,
    find_conflicts,
    format_column,
    grid_position,
)
from .errors import (
    BadWindow,
    ConfigInvalid,
    DegenerateSignal,
    EmptyChannel,
    EmptyDataset,
    ParseError,
    SeriesTooShort,
    TooFewSeries,
)

TRIM_HEAD = 500
TRIM_TAIL = 50
MIN_LENGTH = 500


@dataclass
class OutlierConfig:
    """Settings for the iterative outlier-removal procedure."""

    median_window: int = 31
    initial_threshold: float = 3.0
    decay: float = 0.8
    max_iterations: int = 5

    def __post_init__(self):
        if self.median_window < 3 or self.median_window % 2 == 0:
            raise BadWindow(f"median_window must be odd and >= 3, got {self.median_window}")
        if not (0.0 < self.decay <= 1.0):
            raise ConfigInvalid(f"decay must lie in (0, 1], got {self.decay}")
        if self.max_iterations < 1:
            raise ConfigInvalid("max_iterations must be >= 1")


@dataclass
class CleanSeries:
    """Gap-free 2-channel series on the fixed-rate sample grid.

    :func:`fill_gaps` returns it before outlier removal and normalization,
    with empty ``norm_params``; the cleaning chain's output is
    outlier-cleaned and normalized, with each channel's ``(min, max)``.
    """

    id: str
    label: Label
    mbp: np.ndarray
    hr: np.ndarray
    marker_index: int | None
    rate_hz: float
    norm_params: dict[str, tuple[float, float]]

    def __len__(self) -> int:
        return len(self.mbp)

    def window_input(self) -> np.ndarray:
        """Model input layout: (length, 2) with columns (mBP, HR)."""
        return np.stack([self.mbp, self.hr], axis=1)

    def windows(self, size: int, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Every ``stride``-th window of ``size`` samples of :meth:`window_input`:
        a read-only ``(n_windows, size, 2)`` view, and the index of each
        window's last sample. Raises SeriesTooShort below ``size`` samples."""
        x = self.window_input()
        if len(x) < size:
            raise SeriesTooShort(
                f"series {self.id!r} has {len(x)} samples, needs {size}")
        views = np.lib.stride_tricks.sliding_window_view(x, (size, 2))[::stride, 0]
        return views, np.arange(size - 1, len(x), stride)


@dataclass
class SplitDataset:
    train: list[CleanSeries]
    test: list[CleanSeries]
    seed: int


@dataclass
class DropReport:
    """Per-stage record of series that fell out of the pipeline."""

    input_count: int = 0
    drops: list[tuple[str, str, str]] = field(default_factory=list)  # stage, id, reason

    def add(self, stage: str, rid: str, reason: str) -> None:
        self.drops.append((stage, rid, reason))

    def survivor_count(self) -> int:
        return self.input_count - len(self.drops)


# --- grid helpers -------------------------------------------------------------


def _grid_params(rec: RawRecording, rate_hz: float) -> tuple[float, int]:
    """Common grid over both channels: start time and position count."""
    t0, t_end = rec.time_span()
    return t0, int(grid_position(t_end, t0, rate_hz)) + 1


def _to_grid(samples: np.ndarray, t0: float, rate_hz: float, n: int) -> np.ndarray:
    """Place ``(n, 2)`` samples on the grid; absent positions become NaN."""
    out = np.full(n, np.nan)
    k = grid_position(samples[:, 0], t0, rate_hz).astype(np.int64)
    inside = (k >= 0) & (k < n)
    out[k[inside]] = samples[inside, 1]
    return out


# --- cleaning stages -----------------------------------------------------------


def trim_series(rec: RawRecording, rate_hz: float = DEFAULT_RATE_HZ) -> RawRecording | None:
    """Drop the first 500 and last 50 grid positions of a recording.

    Returns None when fewer than 500 grid positions remain. The marker is
    cleared if it fell inside a trimmed region; timestamps are untouched.
    """
    t0, n = _grid_params(rec, rate_hz)
    remaining = n - TRIM_HEAD - TRIM_TAIL
    if remaining < MIN_LENGTH:
        return None
    dt = 1.0 / rate_hz
    lo = t0 + TRIM_HEAD * dt
    hi = t0 + (n - TRIM_TAIL) * dt
    channels = {}
    for name, samples in rec.channels.items():
        k = grid_position(samples[:, 0], t0, rate_hz)
        kept = samples[(k >= TRIM_HEAD) & (k < n - TRIM_TAIL)]
        if len(kept):
            channels[name] = kept
    marker = rec.marker_time
    if marker is not None and not (lo <= marker < hi):
        marker = None
    return RawRecording(id=rec.id, label=rec.label, channels=channels,
                        marker_time=marker)


def fill_gap_values(x: np.ndarray) -> np.ndarray:
    """Fill NaN positions of a 1-D array.

    Leading gaps take the first observed value, trailing gaps the last,
    interior gaps are linearly interpolated between their neighbours.
    Observed positions are returned bit-identically.
    """
    x = np.asarray(x, dtype=float)
    good = np.flatnonzero(~np.isnan(x))
    if good.size == 0:
        raise EmptyChannel("channel holds no samples")
    out = x.copy()
    missing = np.flatnonzero(np.isnan(x))
    if missing.size:
        # np.interp clamps to the first/last observed value outside the
        # observed span, which is exactly the edge rule.
        out[missing] = np.interp(missing, good, x[good])
    return out


def fill_gaps(rec: RawRecording, rate_hz: float = DEFAULT_RATE_HZ) -> CleanSeries:
    """Align both channels to the common grid and fill every gap.

    The series is not yet outlier-cleaned or normalized: ``norm_params``
    is empty.
    """
    for name in CHANNEL_NAMES:
        if not len(rec.channels.get(name, ())):
            raise EmptyChannel(f"{rec.id}: channel {name} has no samples")
    t0, n = _grid_params(rec, rate_hz)
    mbp = fill_gap_values(_to_grid(rec.channels["mBP"], t0, rate_hz, n))
    hr = fill_gap_values(_to_grid(rec.channels["HR"], t0, rate_hz, n))
    marker_index = None
    if rec.marker_time is not None:
        k = int(grid_position(rec.marker_time, t0, rate_hz))
        if 0 <= k < n:
            marker_index = k
    return CleanSeries(
        id=rec.id, label=rec.label, mbp=mbp, hr=hr,
        marker_index=marker_index, rate_hz=rate_hz, norm_params={},
    )


def studentize(x: np.ndarray) -> np.ndarray:
    """Rescale to zero mean and unit standard deviation (divisor n)."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DegenerateSignal("need at least 2 samples to studentize")
    sd = float(np.std(x))
    if sd == 0.0:
        raise DegenerateSignal("zero-variance signal")
    return (x - float(np.mean(x))) / sd


def median_filter(x: np.ndarray, window: int) -> np.ndarray:
    """Centered running median; the window shrinks near the edges.

    Position i takes the median of ``x[max(0, i - half) : i + half + 1]``
    with ``half = window // 2``, so the first and last ``half`` positions
    see from ``half + 1`` up to ``window - 1`` samples. Every value equals
    ``np.median`` of that slice: an even count gives the mean ``(a + b) / 2``
    of its two middle values, and a slice holding a NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if window % 2 == 0 or window < 3 or window > n:
        raise BadWindow(f"window must be odd, >= 3 and <= signal length, got {window}")
    half = window // 2
    # Row i holds position i's window of the signal padded with +inf on both
    # sides. A sort ranks its real samples first and the pads after them;
    # NaN sorts after +inf, so a row ending in NaN held one.
    padded = np.concatenate([np.full(half, np.inf), x, np.full(half, np.inf)])
    ranked = np.sort(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)
    pos = np.arange(n)
    count = np.minimum(pos + half + 1, n) - np.maximum(pos - half, 0)
    out = ranked[pos, (count - 1) // 2]
    even = np.flatnonzero(count % 2 == 0)
    out[even] = (out[even] + ranked[even, count[even] // 2]) / 2
    out[np.isnan(ranked[:, -1])] = np.nan
    return out


@dataclass
class OutlierResult:
    values: np.ndarray
    iterations: int
    removed: np.ndarray  # sorted indices that were replaced
    thresholds: list[float] = field(default_factory=list)  # per executed iteration


def remove_outliers_iterative(x: np.ndarray, cfg: OutlierConfig) -> OutlierResult:
    """Iteratively replace outlier samples with interpolated values.

    Each pass studentizes the working signal, median-filters it, and marks
    samples whose absolute deviation from the filter output exceeds the
    current threshold. Marked samples are cut from the original-scale
    signal and re-filled by interpolation; the threshold then decays.
    Stops as soon as a pass finds nothing, or after ``max_iterations``.
    Unmarked samples are never altered.
    """
    y = np.asarray(x, dtype=float).copy()
    if y.size < cfg.median_window:
        raise BadWindow(
            f"signal length {y.size} shorter than median window {cfg.median_window}"
        )
    removed = np.zeros(y.size, dtype=bool)
    thresholds: list[float] = []
    threshold = cfg.initial_threshold
    for _ in range(cfg.max_iterations):
        thresholds.append(threshold)
        s = studentize(y)
        f = median_filter(s, cfg.median_window)
        marked = np.abs(s - f) > threshold
        if not marked.any():
            break
        removed |= marked
        y[marked] = np.nan
        y = fill_gap_values(y)
        threshold *= cfg.decay
    return OutlierResult(values=y, iterations=len(thresholds),
                         removed=np.flatnonzero(removed), thresholds=thresholds)


def minmax_normalize(x: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """Rescale to [-1, 1]; returns the (min, max) needed to invert."""
    x = np.asarray(x, dtype=float)
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi == lo:
        raise DegenerateSignal("zero-range signal cannot be normalized")
    return 2.0 * (x - lo) / (hi - lo) - 1.0, (lo, hi)


def minmax_denormalize(y: np.ndarray, params: tuple[float, float]) -> np.ndarray:
    lo, hi = params
    return (np.asarray(y, dtype=float) + 1.0) * (hi - lo) / 2.0 + lo


def balance_classes(records: list, seed: int) -> list:
    """Undersample the majority class to equal per-class counts.

    All minority-class series are kept; the majority class is subsampled
    uniformly without replacement. Input order is preserved.
    """
    by_label: dict[Label, list[int]] = {lab: [] for lab in Label}
    for i, rec in enumerate(records):
        by_label[rec.label].append(i)
    n_syn = len(by_label[Label.SYNCOPE])
    n_no = len(by_label[Label.NOSYNCOPE])
    if n_syn == 0 or n_no == 0:
        raise TooFewSeries("both classes must be present to balance")
    target = min(n_syn, n_no)
    rng = np.random.default_rng(seed)
    keep: set[int] = set()
    for lab in Label:
        idx = by_label[lab]
        if len(idx) > target:
            chosen = rng.choice(len(idx), size=target, replace=False)
            keep.update(idx[c] for c in chosen)
        else:
            keep.update(idx)
    return [records[i] for i in range(len(records)) if i in keep]


def check_fraction(value: float, key: str) -> None:
    """Reject a split fraction outside (0, 1), naming the setting ``key``."""
    if not (0.0 < value < 1.0):
        raise ConfigInvalid(f"{key} must lie in (0, 1), got {value}")


def split_train_test(records: list, train_fraction: float, seed: int) -> SplitDataset:
    """Seeded stratified split; both sides keep the class balance."""
    check_fraction(train_fraction, "train_fraction")
    rng = np.random.default_rng(seed)
    train: list = []
    test: list = []
    for lab in Label:
        idx = [i for i, r in enumerate(records) if r.label == lab]
        if not idx:
            raise TooFewSeries(f"no series of class {lab.value}")
        order = rng.permutation(len(idx))
        n_train = int(round(len(idx) * train_fraction))
        if n_train == len(idx) or n_train == 0:
            raise TooFewSeries(
                f"class {lab.value}: {len(idx)} series cannot give both splits "
                f"at fraction {train_fraction}"
            )
        chosen = [idx[k] for k in order]
        train.extend(chosen[:n_train])
        test.extend(chosen[n_train:])
    return SplitDataset(
        train=[records[i] for i in sorted(train)],
        test=[records[i] for i in sorted(test)],
        seed=seed,
    )


@dataclass
class PreprocessConfig:
    outlier: OutlierConfig = field(default_factory=OutlierConfig)
    train_fraction: float = 0.8
    exclude_conflicts: bool = True

    def __post_init__(self):
        check_fraction(self.train_fraction, "train_fraction")


def _clean_one(rec: RawRecording, cfg: PreprocessConfig, rate_hz: float) -> CleanSeries:
    series = fill_gaps(rec, rate_hz)
    cleaned = {}
    norm_params = {}
    for name, values in (("mBP", series.mbp), ("HR", series.hr)):
        result = remove_outliers_iterative(values, cfg.outlier)
        cleaned[name], norm_params[name] = minmax_normalize(result.values)
    return replace(series, mbp=cleaned["mBP"], hr=cleaned["HR"],
                   norm_params=norm_params)


def preprocess_pipeline(
    catalog: DatasetCatalog,
    cfg: PreprocessConfig,
    seed: int,
) -> tuple[SplitDataset, DropReport]:
    """Run the full cleaning chain over a catalogue.

    Series failing any stage are dropped and listed in the report.
    Raises EmptyDataset when nothing survives cleaning.
    """
    report = DropReport(input_count=len(catalog.records))
    records = catalog.records
    if cfg.exclude_conflicts:
        find_conflicts(catalog)
        kept = catalog.without_conflicts()
        kept_ids = {r.id for r in kept}
        for rec in records:
            if rec.id not in kept_ids:
                report.add("conflicts", rec.id, "identical content in both classes")
        records = kept

    clean: list[CleanSeries] = []
    for rec in records:
        if rec.incomplete:
            report.add("channels", rec.id, "missing channel")
            continue
        trimmed = trim_series(rec, catalog.rate_hz)
        if trimmed is None:
            report.add("trim", rec.id, "shorter than 500 samples after trimming")
            continue
        try:
            series = _clean_one(trimmed, cfg, catalog.rate_hz)
        except (DegenerateSignal, EmptyChannel, BadWindow) as exc:
            report.add("clean", rec.id, str(exc))
            continue
        if len(series) < MIN_LENGTH:
            report.add("clean", rec.id, "grid shorter than 500 samples after fill")
            continue
        clean.append(series)

    if not clean:
        raise EmptyDataset("no series survived preprocessing")

    try:
        balanced = balance_classes(clean, seed)
    except TooFewSeries:
        raise EmptyDataset("a class was emptied during preprocessing")
    balanced_ids = {s.id for s in balanced}
    for s in clean:
        if s.id not in balanced_ids:
            report.add("balance", s.id, "majority-class subsampling")

    split = split_train_test(balanced, cfg.train_fraction, seed)
    return split, report


# --- persistence of cleaned series ---------------------------------------------


def save_clean_series(series: CleanSeries, path: str | Path) -> None:
    """Write a cleaned series as CSV with a ``#`` header block.

    The header records the label, rate, marker index and per-channel
    normalization bounds, so the original scale can be recovered.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# id={series.id}",
        f"# label={series.label.value}",
        f"# rate_hz={series.rate_hz!r}",
    ]
    if series.marker_index is not None:
        lines.append(f"# marker_index={series.marker_index}")
    for name in CHANNEL_NAMES:
        lo, hi = series.norm_params[name]
        key = name.lower()
        lines.append(f"# norm_min_{key}={lo!r}")
        lines.append(f"# norm_max_{key}={hi!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(f"{line}\n" for line in lines)
                 + csv_text("mbp,hr", [format_column(series.mbp), format_column(series.hr)]))


def load_clean_series(path: str | Path) -> CleanSeries:
    """Inverse of :func:`save_clean_series`; exact value round trip.

    Blank lines are skipped and a ``#`` line anywhere is a ``key=value``
    header entry. The first other line must be the ``mbp,hr`` column header
    and each one after it a row of two finite numbers.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(filter(None, map(str.strip, fh)))
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    meta: dict[str, str] = {}
    for line in [line for line in lines if line[0] == "#"]:
        key, _, value = line.lstrip("# ").partition("=")
        meta[key.strip()] = value.strip()
    rows = [line for line in lines if line[0] != "#"]
    if rows and rows.pop(0).replace(" ", "") != "mbp,hr":
        raise ParseError(f"{path}: expected 'mbp,hr' column header")
    fields = list(map(str.split, rows, repeat(",")))
    # the rows before the first one without two fields convert in file
    # order, so a bad number among them is reported before that row
    n = next((r for r, cells in enumerate(fields) if len(cells) != 2), len(fields))
    try:
        values = np.fromiter(map(float, chain.from_iterable(fields[:n])), dtype=float)
    except ValueError:
        for k, cells in enumerate(fields):
            try:
                list(map(float, cells))
            except ValueError:
                raise ParseError(f"{path}: sample {k}: bad number in row {rows[k]!r}") from None
    if n < len(fields):
        raise ParseError(f"{path}: bad row {rows[n]!r}")
    required = {"id", "label", "rate_hz", "norm_min_mbp", "norm_max_mbp",
                "norm_min_hr", "norm_max_hr"}
    missing = required - meta.keys()
    if missing:
        raise ParseError(f"{path}: missing header keys {sorted(missing)}")
    if not values.size:
        raise ParseError(f"{path}: no samples")

    def header(key, kind):
        try:
            return kind(meta[key])
        except ValueError:
            raise ParseError(f"{path}: bad header value {key}={meta[key]!r}") from None

    series = CleanSeries(
        id=meta["id"],
        label=header("label", Label),
        mbp=values[0::2].copy(),
        hr=values[1::2].copy(),
        marker_index=header("marker_index", int) if "marker_index" in meta else None,
        rate_hz=header("rate_hz", float),
        norm_params={
            "mBP": (header("norm_min_mbp", float), header("norm_max_mbp", float)),
            "HR": (header("norm_min_hr", float), header("norm_max_hr", float)),
        },
    )
    # checked last, so a file refused for another reason keeps that message
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0]) // 2
        raise ParseError(f"{path}: sample {k}: non-finite value in row {rows[k]!r}")
    return series


def load_clean_dir(directory: str | Path) -> list[CleanSeries]:
    """Load every cleaned-series CSV in a directory, sorted by filename."""
    directory = Path(directory)
    series = [load_clean_series(p) for p in sorted(directory.glob("*.csv"))]
    if not series:
        raise EmptyDataset(f"{directory}: no cleaned series found")
    return series
