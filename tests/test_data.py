"""Recording parser, catalog scanning, manifest handling, and cross-class
duplicate detection."""

import csv
import hashlib
import time

import numpy as np
import pytest

from sentinel.data import (
    CHANNEL_NAMES,
    DEFAULT_RATE_HZ,
    DatasetCatalog,
    Label,
    RawRecording,
    find_conflicts,
    load_recording,
    read_manifest,
    read_table,
    scan_dataset,
    write_manifest,
    write_recording,
)
from sentinel.errors import (
    EmptyDataset,
    MissingChannel,
    NonMonotonicTime,
    ParseError,
    UnknownLabel,
)
from sentinel.preprocess import trim_series
from sentinel.synth import SynthConfig, generate_dataset, generate_series

DT = 1.0 / DEFAULT_RATE_HZ


def write_rows(path, rows, header=("time_s", "mBP", "HR")):
    """Write a small recording CSV fixture and return its path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def grid_rows(n, start=0):
    """n rows of plausible on-grid samples beginning at sample `start`."""
    return [
        [repr(i * DT), repr(80.0 + 0.1 * i), repr(70.0 + 0.05 * i)]
        for i in range(start, start + n)
    ]


class TestLoadRecording:
    def test_three_row_file_parses_both_channels(self, tmp_path):
        path = write_rows(
            tmp_path / "syncope" / "rec1.csv",
            [["0.0", "80", "70"], ["0.8", "81", "70"], ["1.6", "82", "71"]],
        )
        rec = load_recording(path)
        assert rec.id == "rec1"
        assert rec.label is Label.SYNCOPE
        assert rec.channels["mBP"].tolist() == [[0.0, 80.0], [0.8, 81.0], [1.6, 82.0]]
        assert rec.channels["HR"].tolist() == [[0.0, 70.0], [0.8, 70.0], [1.6, 71.0]]
        assert not rec.incomplete
        assert rec.marker_time is None

    def test_repeated_timestamp_rejected(self, tmp_path):
        path = write_rows(
            tmp_path / "syncope" / "rec.csv",
            [["0.0", "80", "70"], ["0.8", "81", "70"], ["0.8", "82", "71"]],
        )
        with pytest.raises(NonMonotonicTime):
            load_recording(path)

    def test_missing_mbp_column_flags_incomplete(self, tmp_path):
        path = tmp_path / "nosyncope" / "hr_only.csv"
        path.parent.mkdir(parents=True)
        path.write_text("time_s,HR\n0.0,61\n0.8,62\n1.6,63\n2.4,64\n")
        rec = load_recording(path)
        # hand parse of the same five lines
        assert set(rec.channels) == {"HR"}
        assert rec.channels["HR"].tolist() == [
            [0.0, 61.0], [0.8, 62.0], [1.6, 63.0], [2.4, 64.0],
        ]
        assert rec.incomplete
        assert rec.label is Label.NOSYNCOPE

    def test_no_known_channel_rejected(self, tmp_path):
        path = write_rows(
            tmp_path / "syncope" / "eeg.csv",
            [["0.0", "1.0"]],
            header=("time_s", "EEG"),
        )
        with pytest.raises(MissingChannel):
            load_recording(path)

    def test_unparseable_value_rejected(self, tmp_path):
        path = write_rows(
            tmp_path / "syncope" / "bad.csv",
            [["0.0", "80", "70"], ["0.8", "eighty", "70"]],
        )
        with pytest.raises(ParseError):
            load_recording(path)

    def test_empty_cell_is_missing_sample(self, tmp_path):
        path = write_rows(
            tmp_path / "nosyncope" / "gappy.csv",
            [["0.0", "80", ""], ["0.8", "", "70"], ["1.6", "82", "71"]],
        )
        rec = load_recording(path)
        assert rec.channels["mBP"].tolist() == [[0.0, 80.0], [1.6, 82.0]]
        assert rec.channels["HR"].tolist() == [[0.8, 70.0], [1.6, 71.0]]
        # both channels exist, so the recording is complete despite gaps
        assert not rec.incomplete

    def test_marker_outside_span_rejected(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "m.csv", grid_rows(5))
        with pytest.raises(ParseError):
            load_recording(path, marker_time=99.0)
        rec = load_recording(path, marker_time=2 * DT)
        assert rec.marker_time == 2 * DT

    def test_off_grid_timestamp_rejected(self, tmp_path):
        path = write_rows(
            tmp_path / "syncope" / "grid.csv",
            [["0.0", "80", "70"], ["0.5", "81", "70"]],
        )
        with pytest.raises(ParseError):
            load_recording(path)

    def test_unknown_directory_name(self, tmp_path):
        path = write_rows(tmp_path / "maybe" / "who.csv", grid_rows(3))
        with pytest.raises(UnknownLabel):
            load_recording(path)

    def test_explicit_label_beats_directory(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "flip.csv", grid_rows(3))
        rec = load_recording(path, label=Label.NOSYNCOPE)
        assert rec.label is Label.NOSYNCOPE


def _loaded(tmp_path, header):
    rows = [[repr(i * DT), repr(80.0 + i), repr(70.0 - i)] for i in range(6)]
    rows[2][1] = ""  # a gap in the first channel column
    path = write_rows(tmp_path / "syncope" / "form.csv",
                      [row[:len(header)] for row in rows], header=header)
    return load_recording(path)


def _synthesized(tmp_path):
    cfg = SynthConfig(length_range=(900, 900), onset_lead=100,
                      gap_probability=0.01, seed=4)
    rec, _ = generate_series(cfg, Label.SYNCOPE, "s", np.random.default_rng(4))
    return rec


def _trimmed(tmp_path, hr_rows):
    times = np.arange(1200) * DT
    return trim_series(RawRecording(id="t", label=Label.NOSYNCOPE, channels={
        "mBP": np.column_stack((times, 80.0 + np.sin(times))),
        "HR": np.column_stack((times[:hr_rows], 70.0 + np.cos(times[:hr_rows]))),
    }))


class TestChannelForm:
    """Every source of raw recordings stores a channel the same way."""

    @pytest.mark.parametrize("make, present", [
        (lambda p: _loaded(p, ("time_s", "mBP", "HR")), {"mBP", "HR"}),
        (lambda p: _loaded(p, ("time_s", "HR")), {"HR"}),
        (_synthesized, {"mBP", "HR"}),
        (lambda p: _trimmed(p, 1200), {"mBP", "HR"}),
        # every HR sample falls inside the trimmed head
        (lambda p: _trimmed(p, 400), {"mBP"}),
    ], ids=["load", "load-hr-only", "synth", "trim", "trim-drops-hr"])
    def test_channels_are_time_value_arrays(self, tmp_path, make, present):
        rec = make(tmp_path)
        assert set(rec.channels) == present
        for samples in rec.channels.values():
            assert isinstance(samples, np.ndarray)
            assert samples.dtype == np.float64
            assert samples.ndim == 2 and samples.shape[1] == 2
            assert samples.flags.c_contiguous
            assert len(samples) > 1
            assert (np.diff(samples[:, 0]) > 0).all()
        assert rec.incomplete == (present != set(CHANNEL_NAMES))


def raw_file(path, text):
    """Write a recording CSV verbatim, blank lines and odd headers included."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRecordingMessages:
    """The exact error texts and row numbers of the parser, pinned."""

    def error(self, exc_type, path, **kw):
        with pytest.raises(exc_type) as info:
            load_recording(path, **kw)
        return str(info.value)

    def test_bad_value(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "bad.csv",
                          [["0.0", "80", "70"], ["0.8", " eighty ", "70"]])
        assert self.error(ParseError, path) == (
            f"{path}: row 3, column mBP: bad value 'eighty'")

    def test_bad_time_reported_before_bad_channel_of_same_row(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "bad.csv",
                          [["0.0", "80", "70"], ["soon", "x", "y"]])
        assert self.error(ParseError, path) == (
            f"{path}: row 3, column time_s: bad value 'soon'")

    def test_empty_time(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "notime.csv",
                          [["0.0", "80", "70"], ["  ", "81", "70"]])
        assert self.error(ParseError, path) == f"{path}: row 3: empty time_s"

    def test_short_row_is_missing_samples(self, tmp_path):
        path = raw_file(tmp_path / "syncope" / "short.csv",
                        "time_s,mBP,HR\n0.0,80,70\n0.8,81\n1.6\n2.4,83,71\n")
        rec = load_recording(path)
        assert rec.channels["mBP"].tolist() == [[0.0, 80.0], [0.8, 81.0], [2.4, 83.0]]
        assert rec.channels["HR"].tolist() == [[0.0, 70.0], [2.4, 71.0]]

    def test_short_row_without_its_time_cell(self, tmp_path):
        # time_s is the last column, so a short row has no time cell at all
        path = raw_file(tmp_path / "syncope" / "late.csv",
                        "mBP,HR,time_s\n80,70,0.0\n81,70\n")
        assert self.error(ParseError, path) == f"{path}: row 3: empty time_s"

    def test_blank_lines_are_not_counted_as_rows(self, tmp_path):
        path = raw_file(tmp_path / "syncope" / "blank.csv",
                        "time_s,mBP,HR\n\n0.0,80,70\n\n\n0.8,81,?\n")
        assert self.error(ParseError, path) == (
            f"{path}: row 3, column HR: bad value '?'")

    def test_header_with_spaces_around_a_channel(self, tmp_path):
        # header names are stripped both to find a column and to read it
        path = raw_file(tmp_path / "syncope" / "spaced.csv",
                        "time_s, mBP, HR\n0.0,80,70\n0.8,81,70\n")
        rec = load_recording(path)
        assert rec.channels["mBP"].tolist() == [[0.0, 80.0], [0.8, 81.0]]
        assert rec.channels["HR"].tolist() == [[0.0, 70.0], [0.8, 70.0]]

    def test_header_with_spaces_around_time(self, tmp_path):
        path = raw_file(tmp_path / "syncope" / "spaced.csv",
                        " time_s ,mBP,HR\n0.0,80,70\n")
        rec = load_recording(path)
        assert rec.channels["mBP"].tolist() == [[0.0, 80.0]]
        assert rec.channels["HR"].tolist() == [[0.0, 70.0]]

    def test_duplicate_column_reads_the_last(self, tmp_path):
        path = raw_file(tmp_path / "syncope" / "twice.csv",
                        "time_s,mBP,HR,mBP\n0.0,80,70,90\n0.8,81,70,91\n")
        rec = load_recording(path)
        assert rec.channels["mBP"].tolist() == [[0.0, 90.0], [0.8, 91.0]]

    def test_off_grid_timestamp(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "grid.csv",
                          [["0.0", "80", "70"], ["0.8", "81", "70"],
                           ["1.61", "", "70"], ["1.7", "82", "71"]])
        assert self.error(ParseError, path) == (
            "grid: channel mBP timestamp 1.7 is off the 1.25 Hz grid")

    def test_time_going_back(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "back.csv",
                          [["0.0", "80", "70"], ["0.8", "", "70"],
                           ["1.6", "82", "71"], ["0.8", "83", "72"]])
        assert self.error(NonMonotonicTime, path) == (
            "back: channel mBP time not strictly increasing at row 2")

    def test_non_finite_value(self, tmp_path):
        path = write_rows(tmp_path / "syncope" / "inf.csv",
                          [["0.0", "80", "70"], ["0.8", "81", "inf"]])
        assert self.error(ParseError, path) == "inf: non-finite sample in HR"

    def test_empty_file_and_missing_time_column(self, tmp_path):
        empty = raw_file(tmp_path / "syncope" / "empty.csv", "")
        assert self.error(ParseError, empty) == f"{empty}: empty file"
        blank = raw_file(tmp_path / "syncope" / "blank.csv", "\n0.0,80,70\n")
        assert self.error(ParseError, blank) == f"{blank}: missing time_s column"


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(7)
        mbp = np.column_stack((np.arange(40) * DT, rng.normal(85, 7, 40)))
        hr = np.column_stack((np.arange(6, 36) * DT, rng.normal(70, 5, 30)))
        # punch interior gaps so empty cells go through the writer too
        mbp = np.delete(mbp, np.s_[5:9], axis=0)
        hr = np.delete(hr, 12, axis=0)
        rec = RawRecording(
            id="round", label=Label.SYNCOPE,
            channels={"mBP": mbp, "HR": hr},
        )
        rec.validate()
        path = tmp_path / "round.csv"
        write_recording(rec, path)
        back = load_recording(path, label=Label.SYNCOPE)
        assert ({k: v.tolist() for k, v in back.channels.items()}
                == {k: v.tolist() for k, v in rec.channels.items()})

    @staticmethod
    def staggered():
        # mBP starts first, HR ends last, interior gaps in each; values
        # whose shortest text has an exponent go through the writer too
        rng = np.random.default_rng(11)
        mbp = np.column_stack((np.arange(0, 30) * DT, rng.normal(85, 7, 30)))
        hr = np.column_stack((np.arange(4, 38) * DT, rng.normal(70, 5, 34)))
        mbp[3, 1], hr[7, 1] = 1e16, 2.5e-05
        return {"mBP": np.delete(mbp, [5, 6, 7, 19], axis=0),
                "HR": np.delete(hr, [2, 11, 12, 30], axis=0)}

    @staticmethod
    def hr_only():
        rng = np.random.default_rng(12)
        return {"HR": np.column_stack((np.arange(3, 15) * DT,
                                       rng.normal(70, 5, 12)))}

    @staticmethod
    def one_row():
        # a single mBP sample at a time where HR has a gap
        rng = np.random.default_rng(13)
        hr = np.column_stack((np.arange(10) * DT, rng.normal(70, 5, 10)))
        return {"mBP": np.array([[4 * DT, 88.125]]),
                "HR": np.delete(hr, 4, axis=0)}

    @pytest.mark.parametrize("make, digest", [
        (staggered, "d0708cff0fe8cabda50ea1b2cc8256df0f7242758c0ac409bfd2558a1731017e"),
        (hr_only, "1bd83647402646e086274d6838caccf2b98476607f3f20f07dff0b407bbdd27c"),
        (one_row, "f7880b8655276984748c00956fda5e1bc8d4334c6e348d93541c36c648b798cc"),
    ], ids=["staggered-with-gaps", "one-channel", "one-row-channel"])
    def test_written_bytes_pinned(self, tmp_path, make, digest):
        # one row per timestamp of any channel, an empty cell for an absent
        # sample, repr text for every value and "\r\n" row ends, pinned
        rec = RawRecording(id="pin", label=Label.SYNCOPE, channels=make())
        path = tmp_path / "pin.csv"
        write_recording(rec, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        back = load_recording(path, label=Label.SYNCOPE)
        assert ({k: v.tolist() for k, v in back.channels.items()}
                == {k: v.tolist() for k, v in rec.channels.items()})

    @staticmethod
    def write_row_by_row(rec, path):
        """Reference writer: a dict of rows per timestamp through csv.writer."""
        by_time = {}
        for name, samples in rec.channels.items():
            for t, v in samples.tolist():
                by_time.setdefault(t, {})[name] = v
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "mBP", "HR"])
            for t in sorted(by_time):
                writer.writerow([repr(t)] + ["" if by_time[t].get(c) is None
                                             else repr(by_time[t][c])
                                             for c in CHANNEL_NAMES])

    def test_same_bytes_as_a_row_by_row_writer(self, tmp_path):
        # random spans, gaps and scales; an extra channel adds rows of its own
        rng = np.random.default_rng(17)
        for trial in range(40):
            channels = {}
            for name in rng.permutation(["mBP", "HR", "SpO2"])[:rng.integers(1, 4)]:
                n = int(rng.choice([1, 2, 30, 200]))
                k = np.sort(rng.choice(np.arange(50, 50 + 2 * n), n, replace=False))
                k -= int(rng.integers(0, 50))
                channels[str(name)] = np.column_stack(
                    (k * DT, rng.normal(80, 20, n) * 10.0 ** rng.integers(-8, 18)))
            rec = RawRecording(id="r", label=Label.SYNCOPE, channels=channels)
            write_recording(rec, tmp_path / "new.csv")
            self.write_row_by_row(rec, tmp_path / "ref.csv")
            assert ((tmp_path / "new.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes()), trial

    def test_manifest_round_trip(self, tmp_path):
        entries = {
            "a01": (Label.SYNCOPE, 12.8),
            "b02": (Label.NOSYNCOPE, None),
        }
        path = tmp_path / "manifest.csv"
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_manifest_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,label,marker_s\nx,presyncope,\n")
        with pytest.raises(ParseError):
            read_manifest(path)

    def test_manifest_header_is_stripped_and_blank_lines_skipped(self, tmp_path):
        path = raw_file(tmp_path / "manifest.csv",
                        " id , label ,marker_s\n\nx,syncope,1.6\n\ny,nosyncope,\n")
        assert read_manifest(path) == {"x": (Label.SYNCOPE, 1.6),
                                       "y": (Label.NOSYNCOPE, None)}


class TestReadTable:
    def test_header_stripped_blank_lines_left_out_cells_as_written(self, tmp_path):
        path = raw_file(tmp_path / "t.csv", "\n a ,b \r\n\r\n1, 2\n\n\n3,\n")
        assert read_table(path) == (["a", "b"], [("1", " 2"), ("3", "")])

    def test_empty_file(self, tmp_path):
        assert read_table(raw_file(tmp_path / "t.csv", "")) == ([], [])
        assert read_table(raw_file(tmp_path / "u.csv", "\n\n")) == ([], [])


class TestScanDataset:
    def _tree(self, tmp_path, n_no=6, n_syn=1):
        for i in range(n_no):
            write_rows(tmp_path / "nosyncope" / f"n{i:02d}.csv",
                       grid_rows(5 + i))
        for i in range(n_syn):
            write_rows(tmp_path / "syncope" / f"s{i:02d}.csv",
                       grid_rows(9 + i))
        return tmp_path

    def test_counts_six_nosyncope_one_syncope(self, tmp_path):
        cat = scan_dataset(self._tree(tmp_path))
        assert cat.counts == {Label.NOSYNCOPE: 6, Label.SYNCOPE: 1}
        assert len(cat.records) == 7
        assert cat.skipped == []
        assert len({r.id for r in cat.records}) == 7

    def test_empty_directory_raises(self, tmp_path):
        (tmp_path / "syncope").mkdir(parents=True)
        with pytest.raises(EmptyDataset):
            scan_dataset(tmp_path)

    def test_unreadable_file_skipped_not_fatal(self, tmp_path):
        self._tree(tmp_path, n_no=2, n_syn=1)
        junk = tmp_path / "syncope" / "junk.csv"
        junk.write_text("this,is\nnot,a recording\n")
        cat = scan_dataset(tmp_path)
        assert len(cat.records) == 3
        assert len(cat.skipped) == 1
        assert "junk" in cat.skipped[0][0]

    def test_undecodable_and_overlong_files_skipped_not_fatal(self, tmp_path):
        # a byte that is not UTF-8, and a cell longer than csv's field limit
        self._tree(tmp_path, n_no=2, n_syn=1)
        latin = tmp_path / "syncope" / "latin.csv"
        latin.write_bytes(b"time_s,mBP,HR\n0.0,80,70\n0.8,81,\xe9\n")
        long_cell = raw_file(tmp_path / "syncope" / "long.csv",
                             "time_s,mBP,HR\n0.0,80," + "7" * (csv.field_size_limit() + 1))
        cat = scan_dataset(tmp_path)
        assert sorted(r.id for r in cat.records) == ["n00", "n01", "s00"]
        reasons = dict(cat.skipped)
        assert reasons.keys() == {str(latin), str(long_cell)}
        assert reasons[str(latin)] == f"{latin}: not UTF-8 text"
        assert reasons[str(long_cell)].startswith(f"{long_cell}: field larger")

    def test_manifest_overrides_directory_label_and_sets_marker(self, tmp_path):
        write_rows(tmp_path / "nosyncope" / "rec9.csv", grid_rows(5))
        write_manifest(tmp_path / "manifest.csv",
                       {"rec9": (Label.SYNCOPE, 1.6)})
        cat = scan_dataset(tmp_path)
        (rec,) = cat.records
        assert rec.label is Label.SYNCOPE
        assert rec.marker_time == 1.6
        assert cat.counts[Label.SYNCOPE] == 1

    def test_duplicate_ids_keep_first_seen(self, tmp_path):
        write_rows(tmp_path / "nosyncope" / "twin.csv", grid_rows(4))
        write_rows(tmp_path / "syncope" / "twin.csv", grid_rows(6))
        cat = scan_dataset(tmp_path)
        assert len(cat.records) == 1
        # nosyncope/ sorts before syncope/, so that copy wins
        assert cat.records[0].label is Label.NOSYNCOPE
        assert any("duplicate id" in reason for _, reason in cat.skipped)

    def test_seven_hundred_file_tree_under_ten_seconds(self, tmp_path):
        cfg = SynthConfig(
            n_syncope=0, n_nosyncope=700,
            length_range=(600, 640), onset_lead=100,
            seed=11,
        )
        generate_dataset(cfg, tmp_path)
        t0 = time.perf_counter()
        cat = scan_dataset(tmp_path)
        elapsed = time.perf_counter() - t0
        # oracle: plain per-directory file count
        oracle = {
            lab: (len(list((tmp_path / lab.value).glob("*.csv")))
                  if (tmp_path / lab.value).is_dir() else 0)
            for lab in Label
        }
        assert cat.counts == oracle
        assert len(cat.records) == 700
        assert cat.skipped == []
        assert elapsed < 10.0


def on_grid(values):
    """A channel array holding ``values`` at consecutive grid times from 0."""
    return np.column_stack((np.arange(len(values)) * DT, np.asarray(values, float)))


def make_rec(rid, label, mbp_values, hr_values):
    return RawRecording(
        id=rid, label=label,
        channels={"mBP": on_grid(mbp_values), "HR": on_grid(hr_values)},
    )


def make_catalog(records):
    counts = {lab: 0 for lab in Label}
    for rec in records:
        counts[rec.label] += 1
    return DatasetCatalog(records=list(records), counts=counts)


def same_content(r1, r2):
    """Brute-force sample-content equality: lengths and values only."""
    if set(r1.channels) != set(r2.channels):
        return False
    for name in r1.channels:
        v1 = r1.channels[name][:, 1].tolist()
        v2 = r2.channels[name][:, 1].tolist()
        if v1 != v2:
            return False
    return True


class TestFindConflicts:
    def test_identical_content_across_classes_is_one_pair(self):
        a = make_rec("a", Label.SYNCOPE, [1, 2, 3], [4, 5, 6])
        b = make_rec("b", Label.NOSYNCOPE, [1, 2, 3], [4, 5, 6])
        cat = make_catalog([a, b])
        pairs = find_conflicts(cat)
        assert pairs == [("a", "b")]
        assert cat.conflicts == pairs

    def test_disjoint_contents_yield_no_conflicts(self):
        a = make_rec("a", Label.SYNCOPE, [1, 2, 3], [4, 5, 6])
        b = make_rec("b", Label.NOSYNCOPE, [1, 2, 9], [4, 5, 6])
        assert find_conflicts(make_catalog([a, b])) == []

    def test_same_label_duplicates_are_not_conflicts(self):
        a = make_rec("a", Label.SYNCOPE, [1, 2], [3, 4])
        b = make_rec("b", Label.SYNCOPE, [1, 2], [3, 4])
        assert find_conflicts(make_catalog([a, b])) == []

    def test_planted_pairs_match_brute_force(self):
        rng = np.random.default_rng(23)
        records = []
        for i in range(8):
            lab = Label.SYNCOPE if i % 2 else Label.NOSYNCOPE
            records.append(make_rec(f"r{i}", lab,
                                    rng.normal(85, 7, 20),
                                    rng.normal(70, 5, 20)))
        # plant two cross-class duplicates of r0 and r3
        records.append(make_rec("dup0", Label.SYNCOPE,
                                records[0].channels["mBP"][:, 1],
                                records[0].channels["HR"][:, 1]))
        records.append(make_rec("dup3", Label.NOSYNCOPE,
                                records[3].channels["mBP"][:, 1],
                                records[3].channels["HR"][:, 1]))
        cat = make_catalog(records)
        got = {frozenset(p) for p in find_conflicts(cat)}

        expected = set()
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                if (records[i].label != records[j].label
                        and same_content(records[i], records[j])):
                    expected.add(frozenset((records[i].id, records[j].id)))
        assert got == expected
        assert got == {frozenset(("r0", "dup0")), frozenset(("r3", "dup3"))}

    def test_symmetric_under_scan_order(self):
        a = make_rec("a", Label.SYNCOPE, [7, 8], [9, 10])
        b = make_rec("b", Label.NOSYNCOPE, [7, 8], [9, 10])
        first = {frozenset(p) for p in find_conflicts(make_catalog([a, b]))}
        second = {frozenset(p) for p in find_conflicts(make_catalog([b, a]))}
        assert first == second == {frozenset(("a", "b"))}

    def test_without_conflicts_removes_both_sides(self):
        a = make_rec("a", Label.SYNCOPE, [1, 2], [3, 4])
        b = make_rec("b", Label.NOSYNCOPE, [1, 2], [3, 4])
        c = make_rec("c", Label.NOSYNCOPE, [5, 6], [7, 8])
        cat = make_catalog([a, b, c])
        find_conflicts(cat)
        assert [r.id for r in cat.without_conflicts()] == ["c"]
