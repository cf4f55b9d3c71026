"""Seeded generator of plausible two-channel recordings.

Every series is slow AR(1) noise around a per-series baseline. Syncope
series additionally get a pre-syncopal pattern in the window leading up to
a marker placed in the final third: mean blood pressure ramps smoothly
down while heart rate first rises, then collapses below baseline as the
marker approaches. Gap and spike corruption is injected after pattern
synthesis and its exact positions are written to a ground-truth sidecar so
cleaning can be scored against what was planted.

Nothing here claims clinical fidelity; magnitudes are only meant to give
the pipeline a learnable, corruptible signal.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import signal

from .data import DEFAULT_RATE_HZ, Label, RawRecording, write_manifest, write_recording
from .errors import ConfigInvalid
from .preprocess import TRIM_HEAD


@dataclass
class SynthConfig:
    n_syncope: int = 8
    n_nosyncope: int = 8
    length_range: tuple[int, int] = (2000, 4000)
    rate_hz: float = DEFAULT_RATE_HZ
    # channel baselines (per-series level ~ N(mean, std))
    hr_base_mean: float = 70.0
    hr_base_std: float = 5.0
    bp_base_mean: float = 85.0
    bp_base_std: float = 7.0
    # AR(1) drift noise
    noise_coef: float = 0.98
    hr_noise_std: float = 2.0
    bp_noise_std: float = 3.0
    # pre-syncopal pattern
    onset_lead: int = 750
    bp_drop_fraction: float = 0.3
    hr_rise_fraction: float = 0.15
    hr_drop_fraction: float = 0.25
    marker_headroom: int = 120
    # corruption
    gap_probability: float = 0.0
    gap_length_range: tuple[int, int] = (3, 20)
    spike_probability: float = 0.0
    spike_sigma: float = 8.0
    seed: int = 0

    def __post_init__(self):
        self.length_range = tuple(self.length_range)
        self.gap_length_range = tuple(self.gap_length_range)
        if self.n_syncope < 0 or self.n_nosyncope < 0:
            raise ConfigInvalid("series counts must be non-negative")
        lo, hi = self.length_range
        if not (0 < lo <= hi):
            raise ConfigInvalid(f"bad length_range {self.length_range}")
        for name in ("gap_probability", "spike_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigInvalid(f"{name} must be in [0,1], got {v}")
        for name in ("hr_base_mean", "bp_base_mean", "hr_noise_std",
                     "bp_noise_std", "bp_drop_fraction", "hr_rise_fraction",
                     "hr_drop_fraction", "spike_sigma", "rate_hz"):
            if getattr(self, name) <= 0:
                raise ConfigInvalid(f"{name} must be positive")
        if not 0.0 <= self.noise_coef < 1.0:
            raise ConfigInvalid("noise_coef must be in [0,1)")
        if self.onset_lead < 1 or self.onset_lead >= lo:
            raise ConfigInvalid(
                f"onset_lead {self.onset_lead} must be positive and below "
                f"the minimum length {lo}"
            )
        g_lo, g_hi = self.gap_length_range
        if not (1 <= g_lo <= g_hi):
            raise ConfigInvalid(f"bad gap_length_range {self.gap_length_range}")
        if self.n_syncope > 0 and self._marker_low(lo) > self._marker_high(lo):
            raise ConfigInvalid(
                "length_range too short to place a marker after head trimming "
                f"with onset_lead {self.onset_lead}"
            )

    def _marker_low(self, length: int) -> int:
        # final third, and far enough in that trimming keeps the whole pattern
        return max((2 * length) // 3,
                   TRIM_HEAD + self.marker_headroom + self.onset_lead)

    def _marker_high(self, length: int) -> int:
        return length - 61  # clear of the 50-sample tail trim


@dataclass
class SeriesTruth:
    """Planted ground truth for one generated series."""

    length: int
    marker_index: int | None
    spikes: dict[str, list[int]]
    gaps: dict[str, list[tuple[int, int]]]  # (start, length) pairs


def _ar1(rng: np.random.Generator, n: int, coef: float, target_std: float) -> np.ndarray:
    """Stationary order-1 autoregressive noise with the given marginal std."""
    innovation_std = target_std * np.sqrt(1.0 - coef * coef)
    x0 = rng.normal(0.0, target_std)
    if n == 1:
        return np.array([x0])
    eps = rng.normal(0.0, innovation_std, size=n - 1)
    # x[t] = coef*x[t-1] + eps[t-1], run as an IIR filter seeded with x0
    rest, _ = signal.lfilter([1.0], [1.0, -coef], eps, zi=np.array([coef * x0]))
    return np.concatenate([[x0], rest])


def _smoothstep(tau: np.ndarray) -> np.ndarray:
    tau = np.clip(tau, 0.0, 1.0)
    return tau * tau * (3.0 - 2.0 * tau)


def _pattern_offsets(cfg: SynthConfig, length: int, marker: int,
                     bp_level: float, hr_level: float) -> tuple[np.ndarray, np.ndarray]:
    """Additive pre-syncopal offsets for (mBP, HR), zero before onset."""
    bp = np.zeros(length)
    hr = np.zeros(length)
    onset = marker - cfg.onset_lead
    t = np.arange(length)
    tau = (t - onset) / cfg.onset_lead
    ramp = _smoothstep(tau)
    bp -= cfg.bp_drop_fraction * bp_level * ramp
    # HR rises until 70% of the lead, then collapses below baseline
    rise = cfg.hr_rise_fraction * hr_level
    fall = (cfg.hr_rise_fraction + cfg.hr_drop_fraction) * hr_level
    hr += rise * _smoothstep(tau / 0.7)
    hr -= fall * _smoothstep((tau - 0.7) / 0.3)
    return bp, hr


def generate_series(cfg: SynthConfig, label: Label, sid: str,
                    rng: np.random.Generator) -> tuple[RawRecording, SeriesTruth]:
    """One recording plus its planted ground truth. Draws are ordered so a
    given (rng state, label) always produces the same series."""
    length = int(rng.integers(cfg.length_range[0], cfg.length_range[1] + 1))
    bp_level = rng.normal(cfg.bp_base_mean, cfg.bp_base_std)
    hr_level = rng.normal(cfg.hr_base_mean, cfg.hr_base_std)
    bp = bp_level + _ar1(rng, length, cfg.noise_coef, cfg.bp_noise_std)
    hr = hr_level + _ar1(rng, length, cfg.noise_coef, cfg.hr_noise_std)

    marker = None
    if label is Label.SYNCOPE:
        marker = int(rng.integers(cfg._marker_low(length),
                                  cfg._marker_high(length) + 1))
        bp_off, hr_off = _pattern_offsets(cfg, length, marker, bp_level, hr_level)
        bp = bp + bp_off
        hr = hr + hr_off

    # corruption: gaps drop samples, spikes perturb surviving samples
    missing = {"mBP": np.zeros(length, dtype=bool),
               "HR": np.zeros(length, dtype=bool)}
    gaps: dict[str, list[tuple[int, int]]] = {"mBP": [], "HR": []}
    for name in ("mBP", "HR"):
        if cfg.gap_probability > 0:
            starts = np.flatnonzero(rng.random(length) < cfg.gap_probability)
            for s in starts:
                s = int(s)
                if missing[name][s]:
                    continue
                glen = int(rng.integers(cfg.gap_length_range[0],
                                        cfg.gap_length_range[1] + 1))
                glen = min(glen, length - s)
                missing[name][s:s + glen] = True
                gaps[name].append((s, glen))

    spikes: dict[str, list[int]] = {"mBP": [], "HR": []}
    for name, values, noise_std in (("mBP", bp, cfg.bp_noise_std),
                                    ("HR", hr, cfg.hr_noise_std)):
        if cfg.spike_probability > 0:
            hits = rng.random(length) < cfg.spike_probability
            hits &= ~missing[name]
            idx = np.flatnonzero(hits)
            signs = rng.choice([-1.0, 1.0], size=len(idx))
            scale = cfg.spike_sigma * noise_std
            values[idx] += signs * scale * (1.0 + 0.25 * rng.random(len(idx)))
            spikes[name] = [int(i) for i in idx]

    dt = 1.0 / cfg.rate_hz
    channels = {}
    for name, values in (("mBP", bp), ("HR", hr)):
        idx = np.flatnonzero(~missing[name])
        channels[name] = np.column_stack((idx * dt, values[idx]))
    rec = RawRecording(
        id=sid, label=label, channels=channels,
        marker_time=None if marker is None else marker * dt,
    )
    truth = SeriesTruth(length=length, marker_index=marker,
                        spikes=spikes, gaps=gaps)
    return rec, truth


@dataclass
class GeneratedDataset:
    out_dir: Path
    ids: list[str]
    manifest_path: Path
    truth_path: Path
    truth: dict[str, SeriesTruth]


def generate_dataset(cfg: SynthConfig, out_dir) -> GeneratedDataset:
    """Write the full synthetic tree: per-label CSVs, manifest.csv, and a
    ground-truth sidecar JSON. Byte-identical for identical configs."""
    out_dir = Path(out_dir)
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_syncope + cfg.n_nosyncope)
    plan = ([(Label.SYNCOPE, f"syn{i:03d}") for i in range(cfg.n_syncope)]
            + [(Label.NOSYNCOPE, f"nos{i:03d}") for i in range(cfg.n_nosyncope)])
    manifest: dict[str, tuple[Label, float | None]] = {}
    truths: dict[str, SeriesTruth] = {}
    ids = []
    for (label, sid), child in zip(plan, children):
        rec, truth = generate_series(cfg, label, sid, np.random.default_rng(child))
        write_recording(rec, out_dir / label.value / f"{sid}.csv")
        manifest[sid] = (label, rec.marker_time)
        truths[sid] = truth
        ids.append(sid)
    manifest_path = out_dir / "manifest.csv"
    write_manifest(manifest_path, manifest)
    truth_path = out_dir / "ground_truth.json"
    doc = {
        "config": asdict(cfg),
        "series": {
            sid: {
                "length": t.length,
                "marker_index": t.marker_index,
                "spikes": t.spikes,
                "gaps": {k: [list(g) for g in v] for k, v in t.gaps.items()},
            }
            for sid, t in truths.items()
        },
    }
    with open(truth_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return GeneratedDataset(out_dir=out_dir, ids=ids, manifest_path=manifest_path,
                            truth_path=truth_path, truth=truths)


def load_truth(path) -> dict[str, SeriesTruth]:
    with open(path) as fh:
        doc = json.load(fh)
    out = {}
    for sid, t in doc["series"].items():
        out[sid] = SeriesTruth(
            length=t["length"], marker_index=t["marker_index"],
            spikes={k: list(map(int, v)) for k, v in t["spikes"].items()},
            gaps={k: [tuple(g) for g in v] for k, v in t["gaps"].items()},
        )
    return out
