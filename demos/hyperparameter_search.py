"""Two-phase surrogate search over a reduced hyperparameter space.

Phase 1 explores a mixed space (architecture, window, learning rate) with a
Gaussian-process surrogate and expected improvement; phase 2 re-searches the
architecture dimensions with everything else pinned at the phase-1 winner.
Each trial is ``sentinel hpo``'s (``hpo.make_pipeline_objective``), training
four-epoch models on a tiny cohort; the mechanics are identical at full scale.

Run:  python3 demos/hyperparameter_search.py
"""

import tempfile
from pathlib import Path

from sentinel.data import scan_dataset
from sentinel.hpo import Dimension, SearchSpace, make_pipeline_objective, run_two_phase
from sentinel.preprocess import PreprocessConfig, preprocess_pipeline
from sentinel.synth import SynthConfig, generate_dataset

SEED = 11


def main():
    cfg = SynthConfig(
        n_syncope=10,
        n_nosyncope=10,
        length_range=(1100, 1200),
        onset_lead=300,
        noise_coef=0.9,
        bp_drop_fraction=0.35,
        seed=SEED,
    )
    with tempfile.TemporaryDirectory(prefix="hpo_demo_") as tmp:
        generate_dataset(cfg, Path(tmp))
        catalog = scan_dataset(Path(tmp))
    split, _ = preprocess_pipeline(
        catalog, PreprocessConfig(train_fraction=0.8), seed=SEED)
    print(f"outer: {len(split.train)} train / {len(split.test)} test; "
          f"trials score on a 75/25 inner split of train")

    space = SearchSpace([
        Dimension("gru_units", "integer", 4, 16),
        Dimension("gru_layers", "integer", 1, 2),
        Dimension("window_size", "integer", 40, 80),
        Dimension("learning_rate", "log-real", 0.1, 1.0),
    ])

    # the dimensions the space leaves out train at the library's values
    objective = make_pipeline_objective(split.train, SEED, epochs=4, stride=60,
                                        horizon=300, inner_fraction=0.75)
    result = run_two_phase(space, budget1=10, budget2=6,
                           objective_fn=objective, seed=SEED, n_init=4)

    print("\nphase 1 (full space):")
    for i, t in enumerate(result.phase1):
        print(f"  {i:2d}: units={t.params['gru_units']:3.0f} "
              f"layers={t.params['gru_layers']:.0f} "
              f"window={t.params['window_size']:3.0f} "
              f"lr={t.params['learning_rate']:.3f} -> {t.objective:.3f}")
    print("phase 2 (architecture dims, rest pinned):")
    for i, t in enumerate(result.phase2):
        print(f"  {i:2d}: units={t.params['gru_units']:3.0f} "
              f"layers={t.params['gru_layers']:.0f} "
              f"window={t.params['window_size']:3.0f} -> {t.objective:.3f}")
    print(f"\nbest objective {result.best_objective:.3f} "
          f"(inner error rate) at {result.best_params}")


if __name__ == "__main__":
    main()
