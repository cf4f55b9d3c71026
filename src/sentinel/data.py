"""Loading, validation, and cataloguing of labelled recordings.

A recording lives in one CSV file with columns ``time_s,mBP,HR`` where an
empty cell marks a missing sample (channels may start and end at different
times). The class label comes from the parent directory name (``syncope/``
or ``nosyncope/``) or from a ``manifest.csv`` sidecar, which may also carry
the manually-marked syncope time per recording.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    MissingChannel,
    NonMonotonicTime,
    ParseError,
    UnknownLabel,
)

DEFAULT_RATE_HZ = 1.25
CHANNEL_NAMES = ("mBP", "HR")

# Fraction of the sample period by which a timestamp may deviate from the
# nominal grid before the file is rejected.
GRID_TOLERANCE = 0.01


def sample_arrays(samples: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of a channel's ``(t, v)`` samples as float arrays."""
    flat = np.fromiter(chain.from_iterable(samples), float, count=2 * len(samples))
    return flat[0::2], flat[1::2]


class Label(Enum):
    SYNCOPE = "syncope"
    NOSYNCOPE = "nosyncope"


@dataclass
class RawRecording:
    """One labelled multi-channel recording.

    ``channels`` maps a channel name to a list of ``(time_s, value)``
    samples; gaps are simply absent entries, never sentinel numbers.
    """

    id: str
    label: Label
    channels: dict[str, list[tuple[float, float]]]
    marker_time: float | None = None
    source_path: str = ""
    incomplete: bool = False

    def time_span(self) -> tuple[float, float]:
        """Earliest and latest timestamp over all channels."""
        starts = [ch[0][0] for ch in self.channels.values() if ch]
        ends = [ch[-1][0] for ch in self.channels.values() if ch]
        return min(starts), max(ends)

    def validate(self) -> None:
        if not self.channels:
            raise MissingChannel(f"{self.id}: no channels present")
        for name, samples in self.channels.items():
            t, v = sample_arrays(samples)
            back = np.flatnonzero(t[1:] <= t[:-1])
            if back.size:
                raise NonMonotonicTime(
                    f"{self.id}: channel {name} time not strictly "
                    f"increasing at row {int(back[0]) + 1}"
                )
            if not (np.isfinite(t).all() and np.isfinite(v).all()):
                raise ParseError(f"{self.id}: non-finite sample in {name}")
        if self.marker_time is not None:
            lo, hi = self.time_span()
            if not (lo <= self.marker_time <= hi):
                raise ParseError(
                    f"{self.id}: marker {self.marker_time}s outside the "
                    f"recorded span [{lo}, {hi}]"
                )


@dataclass
class DatasetCatalog:
    records: list[RawRecording]
    counts: dict[Label, int]
    conflicts: list[tuple[str, str]] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    rate_hz: float = DEFAULT_RATE_HZ

    def without_conflicts(self) -> list[RawRecording]:
        """Records with every conflicted id removed (never auto-relabelled)."""
        bad = {rid for pair in self.conflicts for rid in pair}
        return [r for r in self.records if r.id not in bad]


def _infer_label(path: Path) -> Label:
    parent = path.parent.name.lower()
    for lab in Label:
        if parent == lab.value:
            return lab
    raise UnknownLabel(
        f"{path}: cannot infer label from directory name {parent!r}"
    )


def _parse_cell(text: str, path: Path, row_no: int, col: str) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}: row {row_no}, column {col}: bad value {text!r}")


def _column(header: list[str], name: str) -> int | None:
    """Index of the column a cell named ``name`` is read from: the last
    header cell equal to it, unstripped, or None when there is none."""
    return max((j for j, f in enumerate(header) if f == name), default=None)


def _cell(row: list[str], col: int | None) -> str:
    """Text of a cell; an absent column or a short row reads as empty."""
    return row[col] if col is not None and col < len(row) else ""


def load_recording(
    path: str | Path,
    label: Label | None = None,
    marker_time: float | None = None,
    rate_hz: float = DEFAULT_RATE_HZ,
) -> RawRecording:
    """Parse one recording CSV into a validated RawRecording.

    ``label`` and ``marker_time`` override directory/manifest inference.
    Columns other than ``time_s``, ``mBP`` and ``HR`` are ignored.
    Timestamps must sit on the nominal sample grid within 1% of the period.
    """
    path = Path(path)
    if label is None:
        label = _infer_label(path)

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            fields = [f.strip() for f in header]
            if "time_s" not in fields:
                raise ParseError(f"{path}: missing time_s column")
            present = [c for c in CHANNEL_NAMES if c in fields]
            if not present:
                raise MissingChannel(f"{path}: neither mBP nor HR present")

            time_col = _column(header, "time_s")
            columns = [(c, _column(header, c), [], []) for c in present]
            row_no = 1
            for row in reader:
                if not row:  # blank lines are skipped and not counted
                    continue
                row_no += 1
                try:
                    t = float(row[time_col])
                except (ValueError, IndexError, TypeError):
                    t = _parse_cell(_cell(row, time_col), path, row_no, "time_s")
                    if t is None:
                        raise ParseError(f"{path}: row {row_no}: empty time_s")
                for c, col, times, values in columns:
                    try:
                        v = float(row[col])
                    except (ValueError, IndexError, TypeError):
                        v = _parse_cell(_cell(row, col), path, row_no, c)
                        if v is None:
                            continue
                    times.append(t)
                    values.append(v)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc

    channels = {c: list(zip(times, values)) for c, _, times, values in columns if times}
    if not channels:
        raise MissingChannel(f"{path}: all channel columns are empty")

    rec = RawRecording(
        id=path.stem,
        label=label,
        channels=channels,
        marker_time=marker_time,
        source_path=str(path),
        incomplete=len(channels) < len(CHANNEL_NAMES),
    )
    rec.validate()
    _check_grid(rec, rate_hz)
    return rec


def _check_grid(rec: RawRecording, rate_hz: float) -> None:
    """Reject timestamps that do not sit on the nominal sampling grid."""
    dt = 1.0 / rate_hz
    t0 = rec.time_span()[0]
    for name, samples in rec.channels.items():
        t, _ = sample_arrays(samples)
        k = np.round((t - t0) / dt)
        off = np.flatnonzero(np.abs(t - (t0 + k * dt)) > GRID_TOLERANCE * dt)
        if off.size:
            raise ParseError(
                f"{rec.id}: channel {name} timestamp {samples[off[0]][0]} is "
                f"off the {rate_hz} Hz grid"
            )


def write_recording(rec: RawRecording, path: str | Path) -> None:
    """Write a recording back to the CSV format ``load_recording`` reads.

    Values use shortest round-trip float formatting, so a write/load
    round trip is exact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    by_time: dict[float, dict[str, float]] = {}
    for name, samples in rec.channels.items():
        for t, v in samples:
            by_time.setdefault(t, {})[name] = v
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "mBP", "HR"])
        for t in sorted(by_time):
            row = [repr(t)]
            for c in CHANNEL_NAMES:
                v = by_time[t].get(c)
                row.append("" if v is None else repr(v))
            writer.writerow(row)


def read_manifest(path: str | Path) -> dict[str, tuple[Label, float | None]]:
    """Read ``manifest.csv`` (columns id,label,marker_s) into a lookup."""
    out: dict[str, tuple[Label, float | None]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row_no, row in enumerate(csv.DictReader(fh), start=2):
            rid = (row.get("id") or "").strip()
            if not rid:
                raise ParseError(f"{path}: row {row_no}: empty id")
            try:
                lab = Label((row.get("label") or "").strip().lower())
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}: unknown label {row.get('label')!r}"
                )
            marker = _parse_cell(row.get("marker_s") or "", Path(path), row_no, "marker_s")
            out[rid] = (lab, marker)
    return out


def write_manifest(path: str | Path, entries: dict[str, tuple[Label, float | None]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "marker_s"])
        for rid in sorted(entries):
            lab, marker = entries[rid]
            writer.writerow([rid, lab.value, "" if marker is None else repr(marker)])


def scan_dataset(directory: str | Path, rate_hz: float = DEFAULT_RATE_HZ) -> DatasetCatalog:
    """Catalogue every recording CSV under ``directory``.

    Labels come from the manifest when one exists, else from the parent
    directory name. Unreadable files are collected in ``skipped`` rather
    than aborting the scan. Raises EmptyDataset when nothing parses.
    """
    directory = Path(directory)
    manifest: dict[str, tuple[Label, float | None]] = {}
    manifest_path = directory / "manifest.csv"
    if manifest_path.exists():
        manifest = read_manifest(manifest_path)

    records: list[RawRecording] = []
    skipped: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for path in sorted(directory.rglob("*.csv")):
        if path.name == "manifest.csv":
            continue
        rid = path.stem
        label = marker = None
        if rid in manifest:
            label, marker = manifest[rid]
        try:
            rec = load_recording(path, label=label, marker_time=marker, rate_hz=rate_hz)
        except (ParseError, MissingChannel, NonMonotonicTime, UnknownLabel) as exc:
            skipped.append((str(path), str(exc)))
            continue
        if rec.id in seen_ids:
            skipped.append((str(path), f"duplicate id {rec.id}"))
            continue
        seen_ids.add(rec.id)
        records.append(rec)

    if not records:
        raise EmptyDataset(f"{directory}: no parseable recordings")

    counts = {lab: 0 for lab in Label}
    for rec in records:
        counts[rec.label] += 1
    return DatasetCatalog(records=records, counts=counts, skipped=skipped, rate_hz=rate_hz)


def _content_key(rec: RawRecording) -> tuple:
    # Hashable digest of channel values only: two recordings collide exactly
    # when every channel has the same length and the same sample values.
    return tuple(
        (name, tuple(map(itemgetter(1), rec.channels[name])))
        for name in sorted(rec.channels)
    )


def find_conflicts(catalog: DatasetCatalog) -> list[tuple[str, str]]:
    """Pairs of recordings with identical sample content but different labels.

    Populates ``catalog.conflicts`` as a side effect and returns the list.
    Pair order follows catalogue order, so results are deterministic.
    """
    by_content: dict[tuple, list[RawRecording]] = {}
    for rec in catalog.records:
        by_content.setdefault(_content_key(rec), []).append(rec)

    conflicts: list[tuple[str, str]] = []
    for group in by_content.values():
        if len(group) < 2:
            continue
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if group[i].label != group[j].label:
                    conflicts.append((group[i].id, group[j].id))
    catalog.conflicts = conflicts
    return conflicts
