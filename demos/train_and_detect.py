"""Train a small detector end to end and read its per-series verdicts.

Builds a compact synthetic cohort, cleans it, trains a one-layer
bidirectional model for a couple of minutes of CPU time, then walks the
held-out series and prints when (and how early) each syncope was flagged.

Run:  python3 demos/train_and_detect.py
"""

import tempfile
import time
from pathlib import Path

from sentinel.data import Label, scan_dataset
from sentinel.evaluate import evaluate_dataset, median_reaction
from sentinel.nn import ModelSpec
from sentinel.preprocess import PreprocessConfig, preprocess_pipeline
from sentinel.synth import SynthConfig, generate_dataset
from sentinel.train import TrainConfig, fit

SEED = 7


def main():
    cfg = SynthConfig(
        n_syncope=14,
        n_nosyncope=14,
        length_range=(1100, 1300),
        onset_lead=300,
        noise_coef=0.9,
        bp_drop_fraction=0.35,
        hr_rise_fraction=0.18,
        hr_drop_fraction=0.30,
        seed=SEED,
    )
    with tempfile.TemporaryDirectory(prefix="detect_demo_") as tmp:
        generate_dataset(cfg, Path(tmp))
        catalog = scan_dataset(Path(tmp))
    split, drops = preprocess_pipeline(
        catalog, PreprocessConfig(train_fraction=0.75), seed=SEED)
    print(f"cohort: {len(split.train)} train / {len(split.test)} test series "
          f"({drops.survivor_count()} of {drops.input_count} survived cleaning)")

    spec = ModelSpec(num_layers=1, units=[12], bidirectional=True,
                     window_size=60)
    tcfg = TrainConfig(window_size=60, epochs=30, stride=40,
                       positive_horizon=300, batch_size=16, seed=SEED)
    t0 = time.perf_counter()
    model, _, history = fit(split, spec, tcfg)
    print(f"trained on {history.n_windows} windows "
          f"({history.n_positive} positive) in {time.perf_counter()-t0:.0f}s; "
          f"loss {history.epoch_losses[0]:.3f} -> {history.epoch_losses[-1]:.3f}")

    report = evaluate_dataset(model, split.test, threshold=0.7)
    c = report.confusion
    print(f"\nthreshold 0.7: accuracy {report.accuracy:.3f} "
          f"(tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn})")
    print(f"{'series':10s} {'label':10s} {'verdict':14s} reaction")
    for row in report.per_series:
        if not row.detected:
            verdict = "quiet"
        elif row.label is Label.SYNCOPE:
            verdict = "caught"
        else:
            verdict = "false alarm"
        reaction = ("-" if row.reaction_seconds is None
                    else f"{row.reaction_seconds:.0f}s before marker")
        print(f"{row.id:10s} {row.label.value:10s} {verdict:14s} {reaction}")
    med = median_reaction(report)
    if med is not None:
        print(f"\nmedian reaction over detected syncope: {med:.0f}s "
              f"(onset ramp spans {cfg.onset_lead / cfg.rate_hz:.0f}s)")


if __name__ == "__main__":
    main()
