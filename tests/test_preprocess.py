"""Cleaning chain: trim, gap filling, outlier removal, normalization,
balancing, splitting, and the composed pipeline."""

from types import SimpleNamespace

import numpy as np
import pytest

from sentinel.data import (
    DEFAULT_RATE_HZ,
    Label,
    RawRecording,
    find_conflicts,
    scan_dataset,
)
from sentinel.errors import (
    BadWindow,
    ConfigInvalid,
    DegenerateSignal,
    EmptyChannel,
    EmptyDataset,
    ParseError,
    TooFewSeries,
)
from sentinel.preprocess import (
    MIN_LENGTH,
    TRIM_HEAD,
    TRIM_TAIL,
    CleanSeries,
    OutlierConfig,
    PreprocessConfig,
    _clean_one,
    balance_classes,
    fill_gap_values,
    fill_gaps,
    load_clean_dir,
    load_clean_series,
    median_filter,
    minmax_denormalize,
    minmax_normalize,
    preprocess_pipeline,
    remove_outliers_iterative,
    save_clean_series,
    split_train_test,
    studentize,
    trim_series,
)
from sentinel.synth import SynthConfig, generate_dataset

DT = 1.0 / DEFAULT_RATE_HZ


def grid_rec(n, label=Label.NOSYNCOPE, rid="r", marker_time=None, seed=0):
    rng = np.random.default_rng(seed)
    mbp = np.column_stack((np.arange(n) * DT, rng.normal(85, 7, n)))
    hr = np.column_stack((np.arange(n) * DT, rng.normal(70, 5, n)))
    return RawRecording(id=rid, label=label,
                        channels={"mBP": mbp, "HR": hr},
                        marker_time=marker_time)


class TestTrim:
    def test_length_1200_keeps_650(self):
        out = trim_series(grid_rec(1200))
        assert out is not None
        for name in ("mBP", "HR"):
            samples = out.channels[name]
            assert len(samples) == 650
            assert samples[0][0] == TRIM_HEAD * DT
            assert samples[-1][0] == 1149 * DT

    def test_length_1049_dropped(self):
        assert trim_series(grid_rec(1049)) is None

    def test_length_1050_boundary_kept(self):
        out = trim_series(grid_rec(1050))
        assert out is not None
        assert len(out.channels["mBP"]) == MIN_LENGTH

    def test_marker_in_trimmed_head_is_cleared(self):
        out = trim_series(grid_rec(1200, marker_time=100 * DT))
        assert out is not None and out.marker_time is None

    def test_marker_in_kept_region_is_preserved(self):
        out = trim_series(grid_rec(1200, marker_time=600 * DT))
        assert out is not None
        assert out.marker_time == 600 * DT

    def test_values_in_kept_region_untouched(self):
        rec = grid_rec(1200)
        out = trim_series(rec)
        assert np.array_equal(out.channels["mBP"], rec.channels["mBP"][500:1150])


class TestFillGaps:
    def test_edge_rule(self):
        x = np.array([np.nan, np.nan, 10.0, 20.0, np.nan])
        assert fill_gap_values(x).tolist() == [10.0, 10.0, 10.0, 20.0, 20.0]

    def test_linear_interpolation(self):
        x = np.array([10.0, np.nan, np.nan, 40.0])
        assert fill_gap_values(x).tolist() == [10.0, 20.0, 30.0, 40.0]

    def test_all_missing_raises(self):
        with pytest.raises(EmptyChannel):
            fill_gap_values(np.full(4, np.nan))

    def test_observed_positions_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        x[[4, 17, 30]] = np.nan
        out = fill_gap_values(x)
        good = ~np.isnan(x)
        assert np.array_equal(out[good], x[good])

    def test_late_starting_hr_takes_first_value(self):
        # 20-sample grid; HR only has samples from slot 8 onward
        mbp = np.array([(i * DT, 80.0 + i) for i in range(20)])
        hr = np.array([(i * DT, 60.0 + i) for i in range(8, 20)])
        rec = RawRecording(id="late", label=Label.NOSYNCOPE,
                           channels={"mBP": mbp, "HR": hr})
        grid = fill_gaps(rec)
        assert len(grid) == 20
        assert grid.hr[:8].tolist() == [68.0] * 8
        assert grid.hr[8:].tolist() == [60.0 + i for i in range(8, 20)]
        assert np.array_equal(grid.mbp, [80.0 + i for i in range(20)])

    def test_idempotent_on_gap_free_input(self):
        rec = grid_rec(30, seed=9)
        grid = fill_gaps(rec)
        assert np.array_equal(grid.mbp, rec.channels["mBP"][:, 1])
        assert np.array_equal(grid.hr, rec.channels["HR"][:, 1])

    def test_marker_time_becomes_index(self):
        rec = grid_rec(40, marker_time=13 * DT)
        assert fill_gaps(rec).marker_index == 13

    def test_missing_channel_raises(self):
        rec = RawRecording(id="x", label=Label.NOSYNCOPE,
                           channels={"mBP": np.array([[0.0, 1.0], [DT, 2.0]])})
        with pytest.raises(EmptyChannel):
            fill_gaps(rec)

    def test_trim_then_fill_reindexes_marker(self):
        rec = grid_rec(1200, marker_time=600 * DT)
        grid = fill_gaps(trim_series(rec))
        assert grid.marker_index == 600 - TRIM_HEAD
        assert len(grid) == 1200 - TRIM_HEAD - TRIM_TAIL


class TestStudentize:
    def test_symmetric_pair(self):
        assert studentize(np.array([1.0, 3.0])).tolist() == [-1.0, 1.0]

    def test_constant_raises(self):
        with pytest.raises(DegenerateSignal):
            studentize(np.array([5.0, 5.0, 5.0]))

    def test_moments_on_random_signal(self):
        x = np.random.default_rng(1).normal(12.0, 4.5, 1000)
        y = studentize(x)
        assert abs(float(np.mean(y))) < 1e-12
        assert abs(float(np.std(y)) - 1.0) < 1e-12


def brute_force_median(x, window):
    half = window // 2
    out = np.empty(x.size)
    for i in range(x.size):
        lo = max(0, i - half)
        hi = min(x.size, i + half + 1)
        out[i] = np.median(np.sort(x[lo:hi]))
    return out


class TestMedianFilter:
    def test_constant_signal_unchanged(self):
        x = np.full(50, 3.5)
        assert np.array_equal(median_filter(x, 7), x)

    def test_single_spike_suppressed(self):
        x = np.array([0.0, 0.0, 100.0, 0.0, 0.0])
        assert median_filter(x, 3).tolist() == [0.0] * 5

    def test_matches_brute_force_oracle(self):
        x = np.random.default_rng(8).normal(size=200)
        got = median_filter(x, 31)
        assert np.array_equal(got, brute_force_median(x, 31))

    @pytest.mark.parametrize("window", range(3, 32, 2))
    def test_matches_np_median_at_every_odd_window(self, window):
        rng = np.random.default_rng(window)
        for n in (window, window + 1, 3 * window + 2):
            x = rng.normal(size=n)
            assert np.array_equal(median_filter(x, window), brute_force_median(x, window))
            # repeated values: ties, and even-count edges whose middle pair is equal
            x = rng.integers(0, 3, size=n).astype(float)
            assert np.array_equal(median_filter(x, window), brute_force_median(x, window))

    @pytest.mark.parametrize("window", [3, 5, 31])
    def test_infinities_and_nan_match_np_median(self, window):
        rng = np.random.default_rng(5)
        n = 3 * window
        x = rng.normal(size=n)
        x[[1, n // 2]] = np.inf
        x[[2, n - 3]] = -np.inf
        with np.errstate(invalid="ignore"):  # -inf + inf in an even-count mean
            assert np.array_equal(median_filter(x, window), brute_force_median(x, window),
                                  equal_nan=True)
        x = rng.normal(size=n)
        x[n - 2] = np.nan  # inside the right edge windows and the last full ones
        got = median_filter(x, window)
        assert np.array_equal(got, brute_force_median(x, window), equal_nan=True)
        assert np.isnan(got[n - 2 - window // 2:]).all()
        assert not np.isnan(got[:n - 2 - window // 2]).any()

    def test_bad_windows(self):
        x = np.zeros(20)
        for window in (4, 1, 21):
            with pytest.raises(BadWindow):
                median_filter(x, window)


class TestOutlierRemoval:
    def clean_signal(self, n=400, noise=0.02, seed=4):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        return np.sin(2 * np.pi * t / 200.0) + rng.normal(0, noise, n)

    def test_clean_signal_untouched_one_iteration(self):
        result = remove_outliers_iterative(self.clean_signal(), OutlierConfig())
        assert result.iterations == 1
        assert result.removed.size == 0
        assert np.array_equal(result.values, self.clean_signal())

    def test_planted_spikes_removed_and_interpolated(self):
        x = self.clean_signal()
        clean = x.copy()
        planted = [50, 180, 320]
        x[planted] += 8.0
        result = remove_outliers_iterative(x, OutlierConfig())
        assert result.iterations <= 5
        assert set(result.removed) == set(planted)
        # replaced by interpolants close to the underlying signal
        assert np.all(np.abs(result.values[planted] - clean[planted]) < 0.2)

    def test_all_constant_raises(self):
        with pytest.raises(DegenerateSignal):
            remove_outliers_iterative(np.ones(100), OutlierConfig())

    def test_short_signal_raises(self):
        with pytest.raises(BadWindow):
            remove_outliers_iterative(np.zeros(10), OutlierConfig())

    def test_thresholds_strictly_decreasing(self):
        x = self.clean_signal()
        x[[60, 150, 250, 333]] += 8.0
        cfg = OutlierConfig(initial_threshold=3.0, decay=0.8)
        result = remove_outliers_iterative(x, cfg)
        assert result.thresholds[0] == 3.0
        for a, b in zip(result.thresholds, result.thresholds[1:]):
            assert b == pytest.approx(a * 0.8)
            assert b < a

    def test_unmarked_samples_never_altered(self):
        x = self.clean_signal(seed=12)
        x[[100, 200]] += 8.0
        result = remove_outliers_iterative(x, OutlierConfig())
        untouched = np.setdiff1d(np.arange(x.size), result.removed)
        assert np.array_equal(result.values[untouched], x[untouched])

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: with the default OutlierConfig, iterative removal "
        "replaces about 6% of uncorrupted grid positions of the rougher "
        "criterion-4 signal (noise_coef 0.85), against the 1% criterion 3 "
        "allows; the smooth default signal gives about 0.03%"))
    def test_rough_signal_false_removals_within_one_percent(self, tmp_path):
        cfg = SynthConfig(
            n_syncope=20, n_nosyncope=20,
            length_range=(1700, 1900), onset_lead=750,
            noise_coef=0.85, hr_noise_std=1.5, bp_noise_std=2.0,
            gap_probability=0.004, spike_probability=0.004, spike_sigma=30.0,
            seed=1,
        )
        gen = generate_dataset(cfg, tmp_path)
        catalog = scan_dataset(tmp_path)
        false_total = positions = 0
        for rec in catalog.records:
            offset = int(round(rec.time_span()[0] * catalog.rate_hz))
            grid = fill_gaps(rec, catalog.rate_hz)
            for name, values in (("mBP", grid.mbp), ("HR", grid.hr)):
                planted = {i - offset for i in gen.truth[rec.id].spikes[name]}
                result = remove_outliers_iterative(values, OutlierConfig())
                false_total += len({int(i) for i in result.removed} - planted)
                positions += values.size
        assert false_total / positions <= 0.01

    def test_config_validation(self):
        with pytest.raises(BadWindow):
            OutlierConfig(median_window=4)
        with pytest.raises(ValueError):
            OutlierConfig(decay=0.0)
        with pytest.raises(ValueError):
            OutlierConfig(max_iterations=0)


class TestMinmax:
    def test_three_point_example(self):
        y, params = minmax_normalize(np.array([0.0, 5.0, 10.0]))
        assert y.tolist() == [-1.0, 0.0, 1.0]
        assert params == (0.0, 10.0)

    def test_constant_raises(self):
        with pytest.raises(DegenerateSignal):
            minmax_normalize(np.array([-3.0, -3.0]))

    def test_round_trip_on_random_signal(self):
        x = np.random.default_rng(2).normal(85, 7, 500)
        y, params = minmax_normalize(x)
        assert float(np.min(y)) == -1.0
        assert float(np.max(y)) == 1.0
        assert np.all(np.abs(minmax_denormalize(y, params) - x) < 1e-12)


def stub_series(label, rid):
    return SimpleNamespace(id=rid, label=label)


class TestBalance:
    def test_majority_subsampled_to_96_each(self):
        records = [stub_series(Label.SYNCOPE, f"s{i}") for i in range(96)]
        records += [stub_series(Label.NOSYNCOPE, f"n{i}") for i in range(570)]
        out = balance_classes(records, seed=0)
        assert len(out) == 192
        assert sum(r.label is Label.SYNCOPE for r in out) == 96
        assert sum(r.label is Label.NOSYNCOPE for r in out) == 96
        # every syncope series kept
        assert {r.id for r in out if r.label is Label.SYNCOPE} \
            == {f"s{i}" for i in range(96)}

    def test_already_balanced_unchanged(self):
        records = [stub_series(Label.SYNCOPE, f"s{i}") for i in range(5)]
        records += [stub_series(Label.NOSYNCOPE, f"n{i}") for i in range(5)]
        assert balance_classes(records, seed=3) == records

    def test_deterministic_and_seed_sensitive(self):
        records = [stub_series(Label.SYNCOPE, f"s{i}") for i in range(4)]
        records += [stub_series(Label.NOSYNCOPE, f"n{i}") for i in range(40)]
        picks = []
        for seed in range(20):
            once = [r.id for r in balance_classes(records, seed)]
            again = [r.id for r in balance_classes(records, seed)]
            assert once == again
            picks.append(tuple(once))
        assert len(set(picks)) > 1

    def test_single_class_raises(self):
        records = [stub_series(Label.SYNCOPE, f"s{i}") for i in range(4)]
        with pytest.raises(TooFewSeries):
            balance_classes(records, seed=0)

    def test_input_order_preserved(self):
        records = [stub_series(Label.NOSYNCOPE, f"n{i}") for i in range(30)]
        records += [stub_series(Label.SYNCOPE, f"s{i}") for i in range(10)]
        out = balance_classes(records, seed=1)
        index = {r.id: i for i, r in enumerate(records)}
        positions = [index[r.id] for r in out]
        assert positions == sorted(positions)


class TestSplit:
    def balanced(self, per_class):
        recs = [stub_series(Label.SYNCOPE, f"s{i}") for i in range(per_class)]
        recs += [stub_series(Label.NOSYNCOPE, f"n{i}") for i in range(per_class)]
        return recs

    def test_192_at_0802_gives_154_and_38(self):
        split = split_train_test(self.balanced(96), 0.802, seed=0)
        assert len(split.train) == 154
        assert len(split.test) == 38
        for side in (split.train, split.test):
            assert sum(r.label is Label.SYNCOPE for r in side) == len(side) // 2

    def test_four_series_half_split_stratified(self):
        split = split_train_test(self.balanced(2), 0.5, seed=5)
        assert len(split.train) == len(split.test) == 2
        for side in (split.train, split.test):
            assert {r.label for r in side} == {Label.SYNCOPE, Label.NOSYNCOPE}

    def test_partition_and_determinism(self):
        records = self.balanced(12)
        a = split_train_test(records, 0.75, seed=9)
        b = split_train_test(records, 0.75, seed=9)
        assert [r.id for r in a.train] == [r.id for r in b.train]
        assert [r.id for r in a.test] == [r.id for r in b.test]
        train_ids = {r.id for r in a.train}
        test_ids = {r.id for r in a.test}
        assert not train_ids & test_ids
        assert len(a.train) + len(a.test) == len(records)

    def test_empty_side_raises(self):
        with pytest.raises(TooFewSeries):
            split_train_test(self.balanced(2), 0.9, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_train_test(self.balanced(4), 1.0, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5])
    def test_bad_fraction_rejected_when_config_is_built(self, fraction):
        with pytest.raises(ConfigInvalid, match="train_fraction"):
            PreprocessConfig(train_fraction=fraction)


def synth_catalog(tmp_path, n=25, seed=17, **kw):
    base = dict(
        n_syncope=n, n_nosyncope=n,
        length_range=(1400, 1600), onset_lead=300,
        gap_probability=0.01, spike_probability=0.01,
        seed=seed,
    )
    base.update(kw)
    generate_dataset(SynthConfig(**base), tmp_path)
    return scan_dataset(tmp_path)


class TestPipeline:
    def test_survivors_satisfy_clean_invariants(self, tmp_path):
        catalog = synth_catalog(tmp_path)
        split, report = preprocess_pipeline(catalog, PreprocessConfig(), seed=3)
        assert report.input_count == 50
        all_series = split.train + split.test
        assert len(all_series) == 50 - len(report.drops)
        labels = [s.label for s in all_series]
        assert labels.count(Label.SYNCOPE) == labels.count(Label.NOSYNCOPE)
        train_ids = {s.id for s in split.train}
        assert not train_ids & {s.id for s in split.test}
        for s in all_series:
            assert len(s.mbp) == len(s.hr) >= MIN_LENGTH
            assert np.all(np.isfinite(s.mbp)) and np.all(np.isfinite(s.hr))
            assert np.min(s.mbp) >= -1.0 and np.max(s.mbp) <= 1.0
            assert np.min(s.hr) >= -1.0 and np.max(s.hr) <= 1.0
            if s.marker_index is not None:
                assert 0 <= s.marker_index < len(s)
            if s.label is Label.SYNCOPE:
                assert s.marker_index is not None
            assert set(s.norm_params) == {"mBP", "HR"}
            assert s.window_input().shape == (len(s), 2)

    def test_all_too_short_tree_raises(self, tmp_path):
        recs = [grid_rec(600, rid=f"r{i}",
                         label=Label.SYNCOPE if i % 2 else Label.NOSYNCOPE)
                for i in range(4)]
        from sentinel.data import DatasetCatalog
        catalog = DatasetCatalog(
            records=recs,
            counts={Label.SYNCOPE: 2, Label.NOSYNCOPE: 2},
        )
        with pytest.raises(EmptyDataset):
            preprocess_pipeline(catalog, PreprocessConfig(), seed=0)

    def test_bit_identical_across_runs(self, tmp_path):
        catalog = synth_catalog(tmp_path, n=6)
        cfg = PreprocessConfig()
        first, _ = preprocess_pipeline(catalog, cfg, seed=11)
        second, _ = preprocess_pipeline(catalog, cfg, seed=11)
        for a, b in zip(first.train + first.test, second.train + second.test):
            assert a.id == b.id
            assert np.array_equal(a.mbp, b.mbp)
            assert np.array_equal(a.hr, b.hr)
            assert a.norm_params == b.norm_params

    def test_conflicting_pair_excluded_and_reported(self, tmp_path):
        catalog = synth_catalog(tmp_path, n=6, seed=29,
                                gap_probability=0.0, spike_probability=0.0)
        donor = catalog.records[0]
        twin = RawRecording(
            id="twin",
            label=(Label.NOSYNCOPE if donor.label is Label.SYNCOPE
                   else Label.SYNCOPE),
            channels={k: v.copy() for k, v in donor.channels.items()},
        )
        catalog.records.append(twin)
        catalog.counts[twin.label] += 1
        split, report = preprocess_pipeline(catalog, PreprocessConfig(), seed=2)
        survivor_ids = {s.id for s in split.train + split.test}
        assert donor.id not in survivor_ids
        assert "twin" not in survivor_ids
        dropped = {rid for stage, rid, _ in report.drops if stage == "conflicts"}
        assert dropped == {donor.id, "twin"}

    def test_conflicts_kept_when_disabled(self, tmp_path):
        catalog = synth_catalog(tmp_path, n=6, seed=29,
                                gap_probability=0.0, spike_probability=0.0)
        donor = catalog.records[0]
        twin = RawRecording(
            id="twin",
            label=(Label.NOSYNCOPE if donor.label is Label.SYNCOPE
                   else Label.SYNCOPE),
            channels={k: v.copy() for k, v in donor.channels.items()},
        )
        catalog.records.append(twin)
        catalog.counts[twin.label] += 1
        cfg = PreprocessConfig(exclude_conflicts=False)
        split, report = preprocess_pipeline(catalog, cfg, seed=2)
        assert not any(stage == "conflicts" for stage, _, _ in report.drops)


class TestCausality:
    @pytest.mark.xfail(strict=True, reason=(
        "known look-ahead: minmax_normalize scales by the whole-series "
        "min/max, studentize in the outlier pass uses the whole-series mean "
        "and SD, and the centred median filter reads 15 samples ahead, so "
        "the cleaned value at sample t depends on samples after t"))
    def test_cleaned_prefix_ignores_later_samples(self):
        t = 300  # a grid position of the trimmed series
        rec = trim_series(grid_rec(1400, seed=21))
        cut = rec.channels["mBP"][0, 0] + t * DT
        # a blood-pressure collapse with a heart-rate rise after t
        mbp, hr = rec.channels["mBP"].copy(), rec.channels["HR"].copy()
        mbp[mbp[:, 0] > cut, 1] -= 30.0
        hr[hr[:, 0] > cut, 1] += 20.0
        edited = RawRecording(id=rec.id, label=rec.label,
                              channels={"mBP": mbp, "HR": hr})
        before = _clean_one(rec, PreprocessConfig(), DEFAULT_RATE_HZ)
        after = _clean_one(edited, PreprocessConfig(), DEFAULT_RATE_HZ)
        assert np.array_equal(after.mbp[:t + 1], before.mbp[:t + 1])
        assert np.array_equal(after.hr[:t + 1], before.hr[:t + 1])


class TestCleanPersistence:
    def make_series(self, with_marker=True):
        rng = np.random.default_rng(31)
        n = 520
        return CleanSeries(
            id="c01", label=Label.SYNCOPE,
            mbp=rng.uniform(-1, 1, n), hr=rng.uniform(-1, 1, n),
            marker_index=400 if with_marker else None,
            rate_hz=DEFAULT_RATE_HZ,
            norm_params={"mBP": (61.25, 112.5), "HR": (48.0, 99.75)},
        )

    def test_round_trip_bit_identical(self, tmp_path):
        series = self.make_series()
        path = tmp_path / "c01.csv"
        save_clean_series(series, path)
        back = load_clean_series(path)
        assert back.id == series.id
        assert back.label is series.label
        assert back.marker_index == series.marker_index
        assert back.rate_hz == series.rate_hz
        assert back.norm_params == series.norm_params
        assert np.array_equal(back.mbp, series.mbp)
        assert np.array_equal(back.hr, series.hr)

    def test_round_trip_without_marker(self, tmp_path):
        series = self.make_series(with_marker=False)
        path = tmp_path / "c02.csv"
        save_clean_series(series, path)
        assert load_clean_series(path).marker_index is None

    def test_load_dir_sorted_and_empty_raises(self, tmp_path):
        for rid in ("b", "a"):
            series = self.make_series()
            series.id = rid
            save_clean_series(series, tmp_path / f"{rid}.csv")
        assert [s.id for s in load_clean_dir(tmp_path)] == ["a", "b"]
        empty = tmp_path / "none"
        empty.mkdir()
        with pytest.raises(EmptyDataset):
            load_clean_dir(empty)


CLEAN_HEAD = ("# id=c01\n# label=syncope\n# rate_hz=1.25\n"
              "# norm_min_mbp=60.0\n# norm_max_mbp=110.0\n"
              "# norm_min_hr=50.0\n# norm_max_hr=120.0\n")


class TestLoadCleanSeriesMessages:
    """What the cleaned-series reader accepts, and the exact texts of what
    it rejects."""

    def write(self, tmp_path, text):
        path = tmp_path / "c01.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    def error(self, path):
        with pytest.raises(ParseError) as info:
            load_clean_series(path)
        return str(info.value)

    def test_column_header_other_than_mbp_hr(self, tmp_path):
        path = self.write(tmp_path, CLEAN_HEAD + "hr,mbp\r\n0.5,0.25\r\n")
        assert self.error(path) == f"{path}: expected 'mbp,hr' column header"

    @pytest.mark.parametrize("row", ["0.5", "0.5,0.25,0.125"])
    def test_row_of_one_or_three_fields(self, tmp_path, row):
        path = self.write(tmp_path, CLEAN_HEAD + f"mbp,hr\r\n0.5,0.25\r\n{row}\r\n")
        assert self.error(path) == f"{path}: bad row {row!r}"

    def test_missing_header_key(self, tmp_path):
        head = CLEAN_HEAD.replace("# norm_max_hr=120.0\n", "")
        path = self.write(tmp_path, head + "mbp,hr\r\n0.5,0.25\r\n")
        assert self.error(path) == f"{path}: missing header keys ['norm_max_hr']"

    def test_file_with_no_rows(self, tmp_path):
        path = self.write(tmp_path, CLEAN_HEAD + "mbp,hr\r\n")
        assert self.error(path) == f"{path}: no samples"
        empty = self.write(tmp_path, "")
        assert self.error(empty) == (
            f"{empty}: missing header keys ['id', 'label', 'norm_max_hr', "
            "'norm_max_mbp', 'norm_min_hr', 'norm_min_mbp', 'rate_hz']")

    def test_blank_lines_comment_rows_and_newline_ends(self, tmp_path):
        # a "#" line among the rows is read as a header key
        path = self.write(tmp_path, CLEAN_HEAD + "\nmbp, hr\n0.5,-0.25\n\n"
                          "# marker_index=1\n  \n-1.0 , 1.0\n")
        series = load_clean_series(path)
        assert series.mbp.tolist() == [0.5, -1.0]
        assert series.hr.tolist() == [-0.25, 1.0]
        assert series.marker_index == 1
        assert series.norm_params == {"mBP": (60.0, 110.0), "HR": (50.0, 120.0)}

    @pytest.mark.parametrize("row", ["nan,0.1", "inf,-inf", "0.1,-inf"])
    def test_non_finite_value(self, tmp_path, row):
        # a NaN probability never alarms, so the reader refuses the file and
        # names the sample by its index in the series
        path = self.write(tmp_path, CLEAN_HEAD + f"mbp,hr\r\n0.5,0.25\r\n\r\n{row}\r\n")
        assert self.error(path) == f"{path}: sample 1: non-finite value in row {row!r}"

    @pytest.mark.parametrize("row", ["0.1,abc", "abc,0.1", "0.1,", "0x1,0.1"])
    def test_cell_that_is_not_a_number(self, tmp_path, row):
        path = self.write(tmp_path, CLEAN_HEAD + f"mbp,hr\r\n0.5,0.25\r\n{row}\r\n")
        assert self.error(path) == f"{path}: sample 1: bad number in row {row!r}"

    def test_bad_number_reported_before_a_bad_row(self, tmp_path):
        path = self.write(tmp_path, CLEAN_HEAD + "mbp,hr\r\n0.5,abc\r\n0.5\r\n")
        assert self.error(path) == f"{path}: sample 0: bad number in row '0.5,abc'"

    @pytest.mark.parametrize("key, value", [
        ("label", "Syncope"), ("marker_index", "x694"), ("rate_hz", "fast"),
        ("norm_max_mbp", ""),
    ])
    def test_header_value_that_does_not_parse(self, tmp_path, key, value):
        head = CLEAN_HEAD + f"# {key}={value}\n"  # a later entry wins
        path = self.write(tmp_path, head + "mbp,hr\r\n0.5,0.25\r\n")
        assert self.error(path) == f"{path}: bad header value {key}={value!r}"

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "c01.csv"
        path.write_bytes(CLEAN_HEAD.encode("utf-8") + b"mbp,hr\r\n0.5,\xff0.25\r\n")
        assert self.error(path) == f"{path}: not UTF-8 text"
