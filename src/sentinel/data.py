"""Loading, validation, and cataloguing of labelled recordings.

A recording lives in one CSV file with columns ``time_s,mBP,HR`` where an
empty cell marks a missing sample (channels may start and end at different
times). The class label comes from the parent directory name (``syncope/``
or ``nosyncope/``) or from a ``manifest.csv`` sidecar, which may also carry
the manually-marked syncope time per recording.

In memory a channel is one float64 array of shape ``(n, 2)`` whose rows are
``(time_s, value)`` in increasing time, from parse through trimming to the
grid; ``len(channel)`` is its sample count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
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


def grid_position(t: float | np.ndarray, t0: float, rate_hz: float) -> float | np.ndarray:
    """Nearest position of time(s) ``t`` on the ``rate_hz`` grid starting at
    ``t0``: ``round((t - t0) / dt)`` with ``dt = 1 / rate_hz``, as float(s).
    Every grid position in the package comes from here."""
    dt = 1.0 / rate_hz
    return np.round((t - t0) / dt)


class Label(Enum):
    SYNCOPE = "syncope"
    NOSYNCOPE = "nosyncope"


@dataclass
class RawRecording:
    """One labelled multi-channel recording.

    ``channels`` maps a channel name to a C-ordered float64 array of shape
    ``(n, 2)`` with rows ``(time_s, value)``; gaps are simply absent rows,
    never sentinel numbers.
    """

    id: str
    label: Label
    channels: dict[str, np.ndarray]
    marker_time: float | None = None

    @property
    def incomplete(self) -> bool:
        """True when a channel of ``CHANNEL_NAMES`` is absent."""
        return len(self.channels) < len(CHANNEL_NAMES)

    def time_span(self) -> tuple[float, float]:
        """Earliest and latest timestamp over all channels."""
        starts = [ch[0, 0] for ch in self.channels.values() if len(ch)]
        ends = [ch[-1, 0] for ch in self.channels.values() if len(ch)]
        return float(min(starts)), float(max(ends))

    def validate(self) -> None:
        if not self.channels:
            raise MissingChannel(f"{self.id}: no channels present")
        for name, samples in self.channels.items():
            t = samples[:, 0]
            back = np.flatnonzero(t[1:] <= t[:-1])
            if back.size:
                raise NonMonotonicTime(
                    f"{self.id}: channel {name} time not strictly "
                    f"increasing at row {int(back[0]) + 1}"
                )
            if not np.isfinite(samples).all():
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


def _parse_cell(text: str, path: str | Path, row_no: int, col: str) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}: row {row_no}, column {col}: bad value {text!r}")


def _column(fields: list[str], name: str) -> int | None:
    """Index of the column a cell named ``name`` is read from: the last
    stripped header cell equal to it, or None when there is none."""
    return max((j for j, f in enumerate(fields) if f == name), default=None)


def _cell(row: tuple[str, ...], col: int | None) -> str:
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

    fields, rows = read_table(path)
    if not fields:
        raise ParseError(f"{path}: empty file")
    if "time_s" not in fields:
        raise ParseError(f"{path}: missing time_s column")
    present = [c for c in CHANNEL_NAMES if c in fields]
    if not present:
        raise MissingChannel(f"{path}: neither mBP nor HR present")

    time_col = _column(fields, "time_s")
    columns = [(c, _column(fields, c), [], []) for c in present]
    for row_no, row in enumerate(rows, start=2):
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

    channels = {c: np.column_stack((times, values))
                for c, _, times, values in columns if times}
    if not channels:
        raise MissingChannel(f"{path}: all channel columns are empty")

    rec = RawRecording(
        id=path.stem,
        label=label,
        channels=channels,
        marker_time=marker_time,
    )
    rec.validate()
    _check_grid(rec, rate_hz)
    return rec


def _check_grid(rec: RawRecording, rate_hz: float) -> None:
    """Reject timestamps that do not sit on the nominal sampling grid."""
    dt = 1.0 / rate_hz
    t0 = rec.time_span()[0]
    for name, samples in rec.channels.items():
        t = samples[:, 0]
        k = grid_position(t, t0, rate_hz)
        off = np.flatnonzero(np.abs(t - (t0 + k * dt)) > GRID_TOLERANCE * dt)
        if off.size:
            raise ParseError(
                f"{rec.id}: channel {name} timestamp {t[off[0]]} is "
                f"off the {rate_hz} Hz grid"
            )


def format_column(values) -> list[str]:
    """Each value's shortest round-trip text, the text ``repr(float)``
    gives it."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def csv_text(header: str, columns: list[list[str]]) -> str:
    """``header`` and one row per position of the equal-length text
    ``columns``, cells joined by commas and unquoted; every line ends in
    ``"\\r\\n"``, as ``csv.writer`` ends it."""
    return "\r\n".join([header, *map(",".join, zip(*columns))]) + "\r\n"


def write_recording(rec: RawRecording, path: str | Path) -> None:
    """Write a recording back to the CSV format ``load_recording`` reads.

    There is one row per timestamp of any channel, in increasing time; a
    channel without a sample there has an empty cell. Values are written as
    their ``repr`` text, so a write/load round trip is exact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    times = np.unique(np.concatenate(
        [np.empty(0), *(samples[:, 0] for samples in rec.channels.values())]))
    columns = [format_column(times)]
    for name in CHANNEL_NAMES:
        samples = rec.channels.get(name, np.empty((0, 2)))
        cells = np.full(len(times), "", dtype=object)
        cells[np.searchsorted(times, samples[:, 0])] = format_column(samples[:, 1])
        columns.append(cells.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text("time_s,mBP,HR", columns))


def read_manifest(path: str | Path) -> dict[str, tuple[Label, float | None]]:
    """Read ``manifest.csv`` (columns id,label,marker_s) into a lookup."""
    header, rows = read_table(path)
    out: dict[str, tuple[Label, float | None]] = {}
    for row_no, cells in enumerate(rows, start=2):
        row = dict(zip(header, cells))
        rid = row.get("id", "").strip()
        if not rid:
            raise ParseError(f"{path}: row {row_no}: empty id")
        try:
            lab = Label(row.get("label", "").strip().lower())
        except ValueError:
            raise ParseError(
                f"{path}: row {row_no}: unknown label {row.get('label')!r}"
            )
        marker = _parse_cell(row.get("marker_s", ""), path, row_no, "marker_s")
        out[rid] = (lab, marker)
    return out


def write_manifest(path: str | Path, entries: dict[str, tuple[Label, float | None]]) -> None:
    write_table(path, ["id", "label", "marker_s"],
                ([rid, lab.value, marker] for rid, (lab, marker) in sorted(entries.items())))


def read_table(path: str | Path) -> tuple[list[str], list[tuple[str, ...]]]:
    """Read a table the program takes in: its header cells, stripped, and
    its other rows, each a tuple of cells as the file holds them. The file is
    read as UTF-8 through ``csv.reader``; blank lines are left out, so the
    header is row 1 and the first of ``rows`` row 2. An empty file gives
    ``([], [])``. A file that cannot be read, is not UTF-8 text or that
    ``csv.reader`` refuses raises ParseError naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = filter(None, csv.reader(fh))
            header = next(rows, [])
            # the collector stops tracking a tuple of strings at its first
            # pass, so the rows of a file held at once set off no full passes
            return [cell.strip() for cell in header], list(map(tuple, rows))
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_table(path: str | Path, header: list[str], rows) -> None:
    """Write a result table: ``header``, then each of ``rows``, through
    ``csv.writer`` in UTF-8 with ``"\\r\\n"`` line ends. Cells go in as they
    are, so ``None`` is an empty cell, a float (numpy's too) its shortest
    round-trip text, and only a cell that needs quotes gets them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    # Adding 0.0 turns -0.0 into 0.0, so equal values have equal bytes
    # (``validate`` refuses NaN, the other float unequal to itself).
    return tuple(
        (name, (rec.channels[name][:, 1] + 0.0).tobytes())
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
