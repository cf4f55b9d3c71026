"""Generator determinism, planted-pattern shape, corruption bookkeeping,
and parseability of the emitted tree."""

import numpy as np
import pytest

from sentinel import synth
from sentinel.data import Label, load_recording, scan_dataset
from sentinel.errors import ConfigInvalid


def quiet_cfg(**kw):
    base = dict(n_syncope=1, n_nosyncope=1, length_range=(1600, 1800),
                seed=5)
    base.update(kw)
    return synth.SynthConfig(**base)


class TestConfig:
    def test_probability_bounds(self):
        with pytest.raises(ConfigInvalid):
            quiet_cfg(gap_probability=1.5)
        with pytest.raises(ConfigInvalid):
            quiet_cfg(spike_probability=-0.1)

    def test_onset_must_fit(self):
        with pytest.raises(ConfigInvalid):
            quiet_cfg(onset_lead=1600)
        with pytest.raises(ConfigInvalid):
            quiet_cfg(onset_lead=0)

    def test_amplitudes_positive(self):
        with pytest.raises(ConfigInvalid):
            quiet_cfg(bp_drop_fraction=0.0)
        with pytest.raises(ConfigInvalid):
            quiet_cfg(hr_noise_std=-1.0)
        with pytest.raises(ConfigInvalid):
            quiet_cfg(spike_sigma=0.0)

    def test_marker_window_must_exist(self):
        # head trim + headroom + onset leaves no room before the tail trim
        with pytest.raises(ConfigInvalid):
            quiet_cfg(length_range=(1380, 1400), onset_lead=750)
        # but is fine for nosyncope-only datasets
        cfg = quiet_cfg(n_syncope=0, length_range=(1380, 1400), onset_lead=750)
        assert cfg.n_syncope == 0

    def test_gap_length_range(self):
        with pytest.raises(ConfigInvalid):
            quiet_cfg(gap_length_range=(0, 5))
        with pytest.raises(ConfigInvalid):
            quiet_cfg(gap_length_range=(9, 5))


class TestGeneratedTree:
    def test_clean_generation_parses_and_shows_pattern(self, tmp_path):
        cfg = quiet_cfg()
        out = synth.generate_dataset(cfg, tmp_path / "data")
        assert sorted(out.ids) == ["nos000", "syn000"]
        catalog = scan_dataset(tmp_path / "data")
        assert catalog.skipped == []
        assert len(catalog.records) == 2
        assert catalog.counts[Label.SYNCOPE] == 1

        rec = load_recording(tmp_path / "data" / "syncope" / "syn000.csv",
                             label=Label.SYNCOPE)
        truth = out.truth["syn000"]
        # gap-free: both channels cover every sample
        assert len(rec.channels["mBP"]) == truth.length
        assert len(rec.channels["HR"]) == truth.length
        bp = rec.channels["mBP"][:, 1]
        m = truth.marker_index
        assert np.mean(bp[m - 200:m]) < np.mean(bp[:truth.length // 2])

    def test_same_seed_byte_identical(self, tmp_path):
        cfg1 = quiet_cfg(spike_probability=0.01, gap_probability=0.002)
        cfg2 = quiet_cfg(spike_probability=0.01, gap_probability=0.002)
        a = synth.generate_dataset(cfg1, tmp_path / "a")
        b = synth.generate_dataset(cfg2, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert ((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes()), rel
        c = synth.generate_dataset(quiet_cfg(seed=6), tmp_path / "c")
        rec_a = (tmp_path / "a" / "nosyncope" / "nos000.csv").read_bytes()
        rec_c = (tmp_path / "c" / "nosyncope" / "nos000.csv").read_bytes()
        assert rec_a != rec_c

    def test_marker_placement_invariants(self):
        cfg = quiet_cfg(n_syncope=6, n_nosyncope=0, length_range=(2000, 2600),
                        seed=9)
        root = np.random.SeedSequence(cfg.seed)
        for child in root.spawn(6):
            rec, truth = synth.generate_series(
                cfg, Label.SYNCOPE, "s", np.random.default_rng(child))
            m, n = truth.marker_index, truth.length
            assert m >= (2 * n) // 3
            assert m - cfg.onset_lead >= 500 + cfg.marker_headroom
            assert m <= n - 61
            assert rec.marker_time == pytest.approx(m / cfg.rate_hz)

    def test_pattern_shape(self):
        cfg = quiet_cfg(hr_noise_std=0.01, bp_noise_std=0.01, seed=3)
        rec, truth = synth.generate_series(
            cfg, Label.SYNCOPE, "s", np.random.default_rng(1))
        bp = rec.channels["mBP"][:, 1]
        hr = rec.channels["HR"][:, 1]
        m = truth.marker_index
        onset = m - cfg.onset_lead
        bp_level = np.mean(bp[:onset - 50])
        hr_level = np.mean(hr[:onset - 50])
        # mBP ends the ramp down by about the configured fraction
        assert bp[m] == pytest.approx(bp_level * (1 - cfg.bp_drop_fraction),
                                      rel=0.02)
        # HR rises mid-lead...
        mid = onset + int(0.65 * cfg.onset_lead)
        assert hr[mid] > hr_level + 0.5 * cfg.hr_rise_fraction * hr_level
        # ...then collapses below baseline at the marker
        assert hr[m] < hr_level - 0.5 * cfg.hr_drop_fraction * hr_level

    def test_nosyncope_has_no_marker_or_trend(self):
        cfg = quiet_cfg(seed=11)
        rec, truth = synth.generate_series(
            cfg, Label.NOSYNCOPE, "n", np.random.default_rng(2))
        assert truth.marker_index is None
        assert rec.marker_time is None


class TestCorruption:
    def test_sidecar_matches_planted(self, tmp_path):
        cfg = quiet_cfg(spike_probability=0.01, gap_probability=0.003,
                        seed=21)
        out = synth.generate_dataset(cfg, tmp_path / "d")
        loaded = synth.load_truth(out.truth_path)
        assert set(loaded) == set(out.truth)
        for sid in loaded:
            assert loaded[sid].spikes == out.truth[sid].spikes
            assert loaded[sid].gaps == out.truth[sid].gaps
            assert loaded[sid].marker_index == out.truth[sid].marker_index

    def test_gaps_remove_samples_spikes_survive(self, tmp_path):
        cfg = quiet_cfg(spike_probability=0.01, gap_probability=0.003,
                        seed=13)
        out = synth.generate_dataset(cfg, tmp_path / "d")
        dt = 1.0 / cfg.rate_hz
        for sid in out.ids:
            label = "syncope" if sid.startswith("syn") else "nosyncope"
            rec = load_recording(tmp_path / "d" / label / f"{sid}.csv",
                                 label=Label(label))
            truth = out.truth[sid]
            for ch in ("mBP", "HR"):
                present = set(np.round(rec.channels[ch][:, 0] / dt).astype(int).tolist())
                gapped = set()
                for start, glen in truth.gaps[ch]:
                    gapped.update(range(start, start + glen))
                assert not (present & gapped)
                assert set(truth.spikes[ch]) <= present
                assert not (set(truth.spikes[ch]) & gapped)

    def test_spike_count_binomial(self):
        # p=0.01 per sample per channel on fixed-length series; across many
        # seeds the total must sit within 3 sigma of the binomial expectation
        total, n_draws = 0, 0
        for seed in range(50):
            cfg = quiet_cfg(n_syncope=0, length_range=(2000, 2000),
                            spike_probability=0.01, seed=seed)
            rec, truth = synth.generate_series(
                cfg, Label.NOSYNCOPE, "n", np.random.default_rng(seed))
            total += len(truth.spikes["mBP"]) + len(truth.spikes["HR"])
            n_draws += 2 * truth.length
        expect = 0.01 * n_draws
        sigma = np.sqrt(n_draws * 0.01 * 0.99)
        assert abs(total - expect) <= 3 * sigma

    def test_spike_amplitude_visible(self):
        cfg = quiet_cfg(spike_probability=0.005, seed=17)
        rec, truth = synth.generate_series(
            cfg, Label.NOSYNCOPE, "n", np.random.default_rng(3))
        bp = rec.channels["mBP"][:, 1]
        spikes = truth.spikes["mBP"]
        assert spikes  # seed chosen so at least one lands
        clean_std = cfg.bp_noise_std
        neighborhood = np.ones(len(bp), dtype=bool)
        neighborhood[spikes] = False
        baseline = np.median(bp[neighborhood])
        for i in spikes:
            assert abs(bp[i] - baseline) > 5 * clean_std
