"""Correctness checks on each workload's outputs.

Every check compares the program's output against a computation made here,
apart from the program (first threshold crossings, central differences,
Sobol points drawn with scipy.stats.qmc, planted ground truth), or against a
property the method must have. Each returns a list of problems; an empty
list means the outputs passed. The functions take plain data so that the
tests in ``tests/`` can feed them planted wrong outputs.
"""

from __future__ import annotations

import configparser
import csv
import filecmp
import math
from pathlib import Path

import numpy as np
from scipy.stats import qmc

CHANNELS = ("mBP", "HR")
# Criterion 3 of the acceptance suite: at least 95 % of planted spikes are
# removed, and at most 1 % of uncorrupted samples are altered.
SPIKE_HIT_RATE = 0.95
FALSE_CHANGE_RATE = 0.01
GRAD_REL_TOL = 1e-4
GRAD_DENOM_FLOOR = 1e-6
MONITOR_TOL = 1e-12


# --- readers that do not go through the program ---------------------------------


def read_raw_recording(path: Path, rate_hz: float) -> dict[str, dict[int, float]]:
    """Raw recording CSV as {channel: {grid index: value}}; gaps are absent."""
    out: dict[str, dict[int, float]] = {c: {} for c in CHANNELS}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            k = int(round(float(row["time_s"]) * rate_hz))
            for c in CHANNELS:
                if row[c].strip():
                    out[c][k] = float(row[c])
    return out


def read_clean_series(path: Path) -> dict:
    """Cleaned-series CSV as {"meta": {...}, "mBP": array, "HR": array}."""
    meta: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif line and line != "mbp,hr":
                a, b = line.split(",")
                rows.append((float(a), float(b)))
    values = np.array(rows, dtype=float).reshape(-1, 2)
    return {"meta": meta, "mBP": values[:, 0], "HR": values[:, 1]}


def read_trials(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_space(path: Path) -> list[tuple[str, str, float, float]]:
    """Search-space INI as (name, kind, lower, upper) in file order."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")
    return [(s, parser[s].get("kind", "real"), float(parser[s]["lower"]),
             float(parser[s]["upper"])) for s in parser.sections()]


# --- ingest -----------------------------------------------------------------------


def check_ingest(raw: dict, clean: dict, truth: dict, trim_head: int,
                 denormalize) -> list[str]:
    """Cleaned series against the raw recordings and the planted truth.

    ``raw[id]`` is :func:`read_raw_recording` output, ``clean[id]`` is
    :func:`read_clean_series` output, ``truth[id]`` the synth sidecar entry.
    Cleaned index i sits at raw grid index i + offset, where offset is the
    first index observed in either channel at or after the first index +
    ``trim_head``: the trimmed recording's grid starts at its first sample,
    later than the trimmed head when both channels have a gap there.
    """
    problems = []
    if set(clean) != set(raw):
        problems.append(f"cleaned ids {sorted(set(clean) ^ set(raw))} do not "
                        "match the raw corpus")
    planted = gone = kept = changed = 0
    for sid in sorted(set(clean) & set(raw)):
        series, rec = clean[sid], raw[sid]
        head = min(min(rec[c]) for c in CHANNELS if rec[c]) + trim_head
        offset = min(i for c in CHANNELS for i in rec[c] if i >= head)
        for c in CHANNELS:
            y = series[c]
            if y.size == 0 or y.min() != -1.0 or y.max() != 1.0:
                problems.append(f"{sid} {c}: cleaned values span "
                                f"[{y.min() if y.size else None}, "
                                f"{y.max() if y.size else None}], not [-1, 1]")
                continue
            key = c.lower()
            lo = float(series["meta"][f"norm_min_{key}"])
            hi = float(series["meta"][f"norm_max_{key}"])
            back = denormalize(y, (lo, hi))
            spikes = set(truth[sid]["spikes"][c])
            for i, value in enumerate(back):
                original = rec[c].get(i + offset)
                if original is None:  # a planted gap: filled, not compared
                    continue
                same = abs(value - original) <= 1e-9 * max(1.0, abs(original))
                if i + offset in spikes:
                    planted += 1
                    gone += not same
                else:
                    kept += 1
                    changed += not same
    if planted == 0:
        problems.append("no planted spike inside the cleaned range")
    elif gone / planted < SPIKE_HIT_RATE:
        problems.append(f"only {gone}/{planted} planted spikes removed "
                        f"(< {SPIKE_HIT_RATE:.0%})")
    if kept == 0 or changed / kept > FALSE_CHANGE_RATE:
        problems.append(f"{changed}/{kept} uncorrupted samples altered "
                        f"(> {FALSE_CHANGE_RATE:.0%})")
    return problems


def compare_trees(original: Path, replay: Path, skip=("run.json",)) -> list[str]:
    """Every file of a run directory must be reproduced byte for byte."""
    def files(root: Path) -> list[str]:
        return sorted(p.relative_to(root).as_posix()
                      for p in root.rglob("*") if p.is_file()
                      and p.name not in skip)

    a, b = files(original), files(replay)
    if a != b:
        return [f"replay file set differs: {sorted(set(a) ^ set(b))}"]
    return [f"replay differs in {rel}" for rel in a
            if not filecmp.cmp(original / rel, replay / rel, shallow=False)]


# --- train ------------------------------------------------------------------------


def check_train(losses: list[float], analytic: dict[str, np.ndarray],
                numeric: dict[str, dict[tuple, float]]) -> list[str]:
    """Loss trace and analytic gradients against central differences.

    ``numeric[name]`` maps a parameter index to its central-difference
    gradient; only those entries are compared.
    """
    problems = []
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append(f"loss trace not finite: {losses}")
    elif not losses[-1] < losses[0]:
        problems.append(f"last epoch loss {losses[-1]!r} not below the "
                        f"first {losses[0]!r}")
    worst, where = 0.0, None
    for name, entries in numeric.items():
        for index, want in entries.items():
            got = float(analytic[name][index])
            err = abs(got - want) / max(abs(got), abs(want), GRAD_DENOM_FLOOR)
            if err > worst:
                worst, where = err, (name, index)
    if not numeric:
        problems.append("no gradient entries compared")
    if worst >= GRAD_REL_TOL:
        problems.append(f"gradient relative error {worst:.3e} at {where} "
                        f">= {GRAD_REL_TOL}")
    return problems


# --- detect -----------------------------------------------------------------------


def first_crossing(trace: np.ndarray, threshold: float) -> int | None:
    for i, p in enumerate(trace):
        if p >= threshold:
            return i
    return None


def check_detect(reports, series: dict, traces: dict, window: int,
                 monitor_id: str, monitored) -> list[str]:
    """Sweep reports and monitor probabilities against the traces.

    ``series[id]`` is (is_syncope, marker_index, rate_hz); ``traces[id]``
    holds P(syncope) per stride-1 window, entry i ending at i + window - 1.
    ``monitored`` holds (end index, batch-1 P(syncope)) pairs scored for
    series ``monitor_id``.
    """
    problems = []
    ref = traces[monitor_id]
    if not monitored:
        problems.append("the monitor scored no window")
    worst, where = 0.0, None
    for end, p in monitored:
        i = end - window + 1
        diff = abs(p - ref[i]) if 0 <= i < len(ref) else math.inf
        if diff > worst:
            worst, where = diff, end
    if worst > MONITOR_TOL:
        problems.append(f"monitor probability at end index {where} "
                        f"differs from the trace by {worst:.3e}")
    previous = None
    for report in reports:
        detections = 0
        for outcome in report.per_series:
            syncope, marker, rate = series[outcome.id]
            pos = first_crossing(traces[outcome.id], report.threshold)
            want = None if pos is None else pos + window - 1
            if outcome.detection_index != want:
                problems.append(f"threshold {report.threshold}: {outcome.id} "
                                f"detected at {outcome.detection_index}, first "
                                f"crossing is {want}")
            want_reaction = None
            if want is not None and syncope and marker is not None:
                want_reaction = (marker - want) / rate
            if outcome.reaction_seconds != want_reaction:
                problems.append(f"threshold {report.threshold}: {outcome.id} "
                                f"reaction {outcome.reaction_seconds}, want "
                                f"{want_reaction}")
            detections += want is not None
        if detections != report.confusion.tp + report.confusion.fp:
            problems.append(f"threshold {report.threshold}: "
                            f"{report.confusion.tp + report.confusion.fp} "
                            f"detections reported, {detections} found")
        current = (report.confusion.tp + report.confusion.fp, report.recall)
        if previous is not None:
            if current[0] > previous[0]:
                problems.append(f"detections rise to {current[0]} at "
                                f"threshold {report.threshold}")
            if (current[1] is not None and previous[1] is not None
                    and current[1] > previous[1]):
                problems.append(f"recall rises to {current[1]} at "
                                f"threshold {report.threshold}")
        previous = current
    return problems


# --- hpo --------------------------------------------------------------------------


def from_unit(kind: str, lower: float, upper: float, u: float):
    """Map a unit-cube coordinate onto one search dimension."""
    if kind == "log-real":
        return math.exp(math.log(lower) + u * (math.log(upper) - math.log(lower)))
    value = lower + u * (upper - lower)
    if kind == "integer":
        return int(min(max(round(value), lower), upper))
    return value


def sobol_warmup(dims, n_init: int, seed: int) -> list[dict]:
    """The first ``n_init`` scrambled Sobol points, mapped onto ``dims``."""
    points = qmc.Sobol(len(dims), scramble=True, seed=seed).random(16)[:n_init]
    return [{name: from_unit(kind, lo, hi, float(u))
             for (name, kind, lo, hi), u in zip(dims, point)}
            for point in points]


def _value(kind: str, text: str):
    return int(text) if kind == "integer" else float(text)


def check_hpo(dims, phase2_names, trials1: list[dict], trials2: list[dict],
              best: dict, budgets: tuple[int, int], n_init: int,
              seed: int) -> list[str]:
    """Trial logs and best.json of a two-phase search.

    ``dims`` is the phase-1 space as (name, kind, lower, upper); phase 2
    searches the dims named in ``phase2_names`` with seed ``seed + 1``.
    Trial rows are the CSV rows as strings.
    """
    problems = []
    dims2 = [d for d in dims if d[0] in phase2_names]
    done = []
    for phase, rows, space, budget, phase_seed in (
            (1, trials1, dims, budgets[0], seed),
            (2, trials2, dims2, budgets[1], seed + 1)):
        if len(rows) != budget:
            problems.append(f"phase {phase}: {len(rows)} trials, budget {budget}")
        params = []
        for row in rows:
            p = {name: _value(kind, row[name]) for name, kind, _, _ in space}
            params.append(p)
            for name, kind, lo, hi in space:
                v = p[name]
                if not lo <= v <= hi or (kind == "integer" and v != int(v)):
                    problems.append(f"phase {phase} trial {row['trial']}: "
                                    f"{name}={v} outside [{lo}, {hi}]")
            if row["status"] == "done":
                done.append((float(row["objective"]), phase, p))
        for i, want in enumerate(sobol_warmup(space, n_init, phase_seed)):
            if i < len(params) and any(
                    not math.isclose(params[i][k], v, rel_tol=1e-12, abs_tol=0.0)
                    for k, v in want.items()):
                problems.append(f"phase {phase} warm-up trial {i} is "
                                f"{params[i]}, Sobol point is {want}")
    if not done:
        return problems + ["no trial marked done"]
    low = min(v for v, _, _ in done)
    if best.get("objective") != low:
        problems.append(f"best.json objective {best.get('objective')!r} is not "
                        f"the minimum {low!r} over done trials")
    fixed = {}
    p1 = [(v, p) for v, phase, p in done if phase == 1]
    if p1:
        best1 = min(p1, key=lambda t: t[0])[1]
        fixed = {k: v for k, v in best1.items() if k not in phase2_names}
    candidates = [p if phase == 1 else {**fixed, **p}
                  for v, phase, p in done if v == low]
    if best.get("params") not in candidates:
        problems.append(f"best.json params {best.get('params')} belong to no "
                        f"done trial with objective {low!r}")
    return problems
