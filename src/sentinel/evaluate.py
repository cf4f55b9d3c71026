"""Series-level evaluation: confusion metrics, threshold detection with a
consecutive-crossing debounce, threshold sweeps, and reaction times.

A series counts as a predicted syncope iff the detector fires anywhere in
it; the confusion table is therefore over series, not windows. Reaction
time is the distance from detection to the manual marker in seconds
(positive when the detector fires early).

Undefined metrics (recall with no positive series, precision when the
detector never fires) are reported as absent values — never coerced to
0 or 1.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Label, write_table
from .errors import (
    ConfigError,
    DataError,
    EmptyEvaluation,
    NoDetections,
    NoPositives,
    UndefinedF,
)
from .nn import GruModel, forward_batch, one_blas_thread, openblas
from .preprocess import CleanSeries

DEFAULT_THRESHOLD = 0.5  # P(syncope) at or above which a window alarms
EVAL_CHUNK = 128  # windows per forward pass of a trace, at any worker count
# Models whose widest layer is narrower than this trace serially: their
# per-step numpy calls are too short to release the interpreter lock
# usefully. Pooled against serial speed on 2 CPUs (1- and 2-layer
# bidirectional models, 1,199-sample series): 8 units 0.65-0.72x,
# 16 units 0.83-0.92x, 24 units 0.91-1.15x, 32 units 1.09-1.30x.
POOL_MIN_UNITS = 24


def recall(tp: int, fn: int) -> float:
    """Sensitivity: tp / (tp + fn)."""
    if tp + fn == 0:
        raise NoPositives("recall undefined: no positive examples")
    return tp / (tp + fn)


def precision(tp: int, fp: int) -> float:
    if tp + fp == 0:
        raise NoDetections("precision undefined: no detections")
    return tp / (tp + fp)


def f_measure(recall_value: float, precision_value: float, beta: float = 1.0) -> float:
    """F_beta = (1+beta^2) * r * p / (r + beta^2 * p); beta weights recall."""
    denom = recall_value + beta * beta * precision_value
    if denom == 0:
        raise UndefinedF("F measure undefined: recall and precision both zero")
    return (1 + beta * beta) * recall_value * precision_value / denom


def accuracy(t: int, f: int) -> float:
    """Fraction of correct series: t / (t + f)."""
    if t + f == 0:
        raise EmptyEvaluation("accuracy undefined: nothing evaluated")
    return t / (t + f)


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class SeriesOutcome:
    id: str
    label: Label
    detected: bool
    detection_index: int | None
    reaction_seconds: float | None


@dataclass
class EvalReport:
    threshold: float
    consecutive: int
    beta: float
    confusion: ConfusionCounts
    recall: float | None
    precision: float | None
    f_beta: float | None
    accuracy: float
    per_series: list[SeriesOutcome]

    def reaction_times(self) -> list[float]:
        return [o.reaction_seconds for o in self.per_series
                if o.reaction_seconds is not None]


def median_reaction(report: EvalReport) -> float | None:
    times = report.reaction_times()
    if not times:
        return None
    return float(np.median(times))


def _trace_workers(model: GruModel) -> int:
    """Threads that trace the series of one call side by side: one per CPU
    available to the process, or one for narrow models and where BLAS
    cannot be held to one thread (with BLAS's own threads running the pool
    is no faster)."""
    if max(model.spec.units) < POOL_MIN_UNITS or openblas() is None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def series_probabilities(model: GruModel, series: CleanSeries,
                         rule: tuple[float, int] | None = None) -> np.ndarray:
    """P(syncope) for every stride-1 window of the series, or for a prefix
    of them when a detection rule is given.

    Entry i corresponds to the window ending at sample i + window_size - 1.
    The windows are scored in order on the calling thread, in chunks of
    ``EVAL_CHUNK`` with OpenBLAS held to one thread, so the trace depends
    only on the model and the series. With ``rule`` = (threshold,
    consecutive) scoring stops at the chunk that completes the first run
    of ``consecutive`` entries >= threshold, and the trace ends with that
    chunk: the first alarm of the prefix is the first alarm of the whole
    trace, and each entry is the same number either way.
    """
    views = series.windows(model.spec.window_size)[0]
    out = np.empty(len(views))
    with one_blas_thread():
        for lo in range(0, len(views), EVAL_CHUNK):
            chunk = views[lo:lo + EVAL_CHUNK]  # stride-1: forward_batch shares its samples
            probs, _ = forward_batch(model, chunk, need_cache=False)
            end = lo + len(chunk)
            out[lo:end] = probs[:, 1]
            # a run completed in this chunk may open up to consecutive - 1
            # entries before it
            if rule is not None and detect_from_trace(
                    out[max(0, lo - rule[1] + 1):end], *rule) is not None:
                return out[:end]
    return out


def _traces(model: GruModel, series_list: list[CleanSeries],
            rule: tuple[float, int] | None = None) -> list[np.ndarray]:
    """:func:`series_probabilities` of each series, in order, on
    ``min(_trace_workers(model), len(series_list))`` threads; one worker
    traces them on the calling thread."""
    workers = min(_trace_workers(model), len(series_list))
    if workers <= 1:
        return [series_probabilities(model, s, rule) for s in series_list]
    # Every worker's own hold then saves and restores the 1 set here, so
    # no worker can put back another's count; this hold restores the
    # caller's once every worker has stopped.
    with one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda s: series_probabilities(model, s, rule), series_list))


def _check_rule(threshold: float, consecutive: int) -> None:
    """The one check of a detection rule; callers run it before scoring."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0,1), got {threshold}")
    if consecutive < 1:
        raise ConfigError(f"consecutive must be >= 1, got {consecutive}")


def detect_from_trace(trace: np.ndarray, threshold: float, consecutive: int = 1) -> int | None:
    """First index opening a run of `consecutive` values >= threshold."""
    _check_rule(threshold, consecutive)
    hits = np.asarray(trace) >= threshold
    if consecutive > 1:
        if len(hits) < consecutive:
            return None
        hits = np.lib.stride_tricks.sliding_window_view(hits, consecutive).all(axis=1)
    idx = np.flatnonzero(hits)
    if len(idx) == 0:
        return None
    return int(idx[0])


def window_end(model: GruModel, pos: int | None) -> int | None:
    """Series index of the last sample of trace entry ``pos`` (None stays None)."""
    return None if pos is None else pos + model.spec.window_size - 1


def detect_series(model: GruModel, series: CleanSeries, threshold: float,
                  consecutive: int = 1) -> int | None:
    """End index (into the series) of the first window opening a run of
    `consecutive` stride-1 windows whose P(syncope) >= threshold."""
    _check_rule(threshold, consecutive)
    trace = series_probabilities(model, series, (threshold, consecutive))
    return window_end(model, detect_from_trace(trace, threshold, consecutive))


def evaluate_dataset(model: GruModel, series_list: list[CleanSeries],
                     threshold: float = DEFAULT_THRESHOLD,
                     consecutive: int = 1, beta: float = 1.0,
                     traces: dict[str, np.ndarray] | None = None) -> EvalReport:
    """Classify every series by threshold detection and tally the confusion.

    ``traces`` optionally carries probability traces keyed by series id so
    sweeps can reuse one forward pass per series: a series missing from it
    is scored in full and added. Without ``traces`` each series is scored
    only up to its first alarm (the prefix rule of
    :func:`series_probabilities`), which decides the same outcome. The
    series are traced side by side, one per thread (see :func:`_traces`).
    """
    if not series_list:
        raise EmptyEvaluation("no series to evaluate")
    _check_rule(threshold, consecutive)
    if traces is None:
        found = _traces(model, series_list, (threshold, consecutive))
    else:
        missing = [s for s in series_list if s.id not in traces]
        traces.update(zip([s.id for s in missing], _traces(model, missing)))
        found = [traces[s.id] for s in series_list]
    confusion = ConfusionCounts()
    outcomes = []
    for series, trace in zip(series_list, found):
        detection = window_end(model, detect_from_trace(trace, threshold, consecutive))
        detected = detection is not None
        is_syncope = series.label is Label.SYNCOPE
        if is_syncope:
            if detected:
                confusion.tp += 1
            else:
                confusion.fn += 1
        else:
            if detected:
                confusion.fp += 1
            else:
                confusion.tn += 1
        reaction = None
        if detected and is_syncope and series.marker_index is not None:
            reaction = (series.marker_index - detection) / series.rate_hz
        outcomes.append(SeriesOutcome(
            id=series.id, label=series.label, detected=detected,
            detection_index=detection, reaction_seconds=reaction,
        ))

    def _try(fn, *args):
        try:
            return fn(*args)
        except (NoPositives, NoDetections, UndefinedF):
            return None

    r = _try(recall, confusion.tp, confusion.fn)
    p = _try(precision, confusion.tp, confusion.fp)
    f = None
    if r is not None and p is not None:
        f = _try(f_measure, r, p, beta)
    acc = accuracy(confusion.tp + confusion.tn, confusion.fp + confusion.fn)
    return EvalReport(
        threshold=threshold, consecutive=consecutive, beta=beta,
        confusion=confusion, recall=r, precision=p, f_beta=f, accuracy=acc,
        per_series=outcomes,
    )


def threshold_sweep(model: GruModel, series_list: list[CleanSeries],
                    thresholds: list[float], consecutive: int = 1,
                    beta: float = 1.0) -> list[EvalReport]:
    """Evaluate the same data at each threshold, reusing probability traces."""
    arr = list(thresholds)
    if not arr:
        raise ConfigError("thresholds list is empty")
    for t in arr:
        _check_rule(t, consecutive)
    if any(b <= a for a, b in zip(arr, arr[1:])):
        raise ConfigError("thresholds must be strictly ascending")
    seen: set[str] = set()
    for s in series_list:
        if s.id in seen:  # the traces are keyed by id
            raise DataError(f"series id {s.id!r} appears more than once")
        seen.add(s.id)
    traces: dict[str, np.ndarray] = {}
    return [evaluate_dataset(model, series_list, t, consecutive=consecutive,
                             beta=beta, traces=traces) for t in arr]


def default_threshold_grid() -> list[float]:
    """0.05 through 0.95 in steps of 0.05 (19 thresholds)."""
    return [i / 20 for i in range(1, 20)]


# --- report persistence ----------------------------------------------------------


def write_report_csv(report: EvalReport, path) -> None:
    write_table(path, ["series_id", "label", "detected", "detection_index", "reaction_s"],
                ([o.id, o.label.value, int(o.detected), o.detection_index, o.reaction_seconds]
                 for o in report.per_series))


def report_summary(report: EvalReport) -> dict:
    return {
        "threshold": report.threshold,
        "consecutive": report.consecutive,
        "beta": report.beta,
        "confusion": {"tp": report.confusion.tp, "fp": report.confusion.fp,
                      "fn": report.confusion.fn, "tn": report.confusion.tn},
        "recall": report.recall,
        "precision": report.precision,
        "f_beta": report.f_beta,
        "accuracy": report.accuracy,
        "median_reaction_s": median_reaction(report),
        "n_series": report.confusion.total,
    }


def write_report_json(report: EvalReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_summary(report), fh, indent=2)
        fh.write("\n")


def write_sweep_csv(reports: list[EvalReport], path) -> None:
    write_table(path, ["threshold", "recall", "precision", "f_beta", "accuracy",
                       "median_reaction_s", "detections"],
                ([r.threshold, r.recall, r.precision, r.f_beta, r.accuracy,
                  median_reaction(r), r.confusion.tp + r.confusion.fp] for r in reports))
