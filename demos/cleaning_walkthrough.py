"""Walk one corrupted recording through every cleaning stage.

Generates a single synthetic syncope series with planted spikes and gaps,
then shows what trimming, gap filling, iterative outlier removal and
normalization each do to it.  Everything is seeded, so the numbers printed
here are reproducible.

Run:  python3 demos/cleaning_walkthrough.py
"""

import tempfile
from pathlib import Path

import numpy as np

from sentinel.data import scan_dataset
from sentinel.preprocess import (
    OutlierConfig,
    fill_gaps,
    minmax_normalize,
    remove_outliers_iterative,
    studentize,
    trim_series,
)
from sentinel.synth import SynthConfig, generate_dataset


def main():
    cfg = SynthConfig(
        n_syncope=1,
        n_nosyncope=0,
        length_range=(1800, 1800),
        onset_lead=400,
        gap_probability=0.005,
        spike_probability=0.003,
        spike_sigma=20.0,
        seed=42,
    )
    with tempfile.TemporaryDirectory(prefix="cleaning_demo_") as tmp:
        generated = generate_dataset(cfg, Path(tmp))
        catalog = scan_dataset(Path(tmp))
    rec = catalog.records[0]
    truth = generated.truth[rec.id]

    print(f"series {rec.id}: {truth.length} grid positions at "
          f"{cfg.rate_hz} Hz, marker at index {truth.marker_index}")
    for name in ("mBP", "HR"):
        n_gap = sum(length for _, length in truth.gaps[name])
        print(f"  {name}: {len(rec.channels[name])} samples kept, "
              f"{n_gap} dropped in {len(truth.gaps[name])} gaps, "
              f"{len(truth.spikes[name])} spikes planted")

    # stage 1: trim the instrumented head and tail
    trimmed = trim_series(rec, catalog.rate_hz)
    t0, t1 = trimmed.time_span()
    print(f"\ntrim: kept [{t0:.1f}s, {t1:.1f}s], "
          f"{len(trimmed.channels['mBP'])} mBP samples remain")

    # stage 2: align to the common grid and interpolate the gaps
    grid = fill_gaps(trimmed, catalog.rate_hz)
    print(f"fill: {grid.mbp.size} grid positions, no NaNs left "
          f"(mBP finite: {np.isfinite(grid.mbp).all()}), "
          f"marker now at index {grid.marker_index}")

    # stage 3: iterative outlier removal with a decaying threshold
    ocfg = OutlierConfig(median_window=31, initial_threshold=3.0,
                         decay=0.8, max_iterations=5)
    for name, values in (("mBP", grid.mbp), ("HR", grid.hr)):
        result = remove_outliers_iterative(values, ocfg)
        print(f"outliers[{name}]: removed {result.removed.size} samples "
              f"in {result.iterations} iterations "
              f"(thresholds {[round(t, 3) for t in result.thresholds]})")
        if result.removed.size:
            worst = int(result.removed[np.argmax(
                np.abs(values[result.removed] - result.values[result.removed]))])
            print(f"    largest correction at index {worst}: "
                  f"{values[worst]:.1f} -> {result.values[worst]:.1f}")
        if name == "mBP":
            cleaned_mbp = result.values

    # stage 4: normalize for the network
    z = studentize(cleaned_mbp)
    print(f"\nstudentize: mBP mean {z.mean():+.2e}, std {z.std():.3f}")
    y, (lo, hi) = minmax_normalize(cleaned_mbp)
    print(f"minmax: mBP raw range [{lo:.1f}, {hi:.1f}] mapped to "
          f"[{y.min():.2f}, {y.max():.2f}]")


if __name__ == "__main__":
    main()
