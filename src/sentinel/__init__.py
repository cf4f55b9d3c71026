"""Syncope early-warning toolkit: signal cleaning, GRU classifiers trained
from scratch, thresholded detection with reaction-time analysis, and
Bayesian hyperparameter search, all behind a reproducible seeded CLI.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    DatasetCatalog,
    Label,
    RawRecording,
    find_conflicts,
    load_recording,
    scan_dataset,
    write_recording,
)
from .evaluate import (  # noqa: F401
    EvalReport,
    accuracy,
    default_threshold_grid,
    detect_series,
    evaluate_dataset,
    f_measure,
    median_reaction,
    precision,
    recall,
    series_probabilities,
    threshold_sweep,
)
from .hpo import (  # noqa: F401
    Dimension,
    SearchSpace,
    default_space,
    partial_dependence,
    run_phase,
    run_two_phase,
)
from .nn import GruModel, ModelSpec, forward_batch  # noqa: F401
from .preprocess import (  # noqa: F401
    CleanSeries,
    OutlierConfig,
    PreprocessConfig,
    SplitDataset,
    preprocess_pipeline,
    remove_outliers_iterative,
)
from .synth import SynthConfig, generate_dataset  # noqa: F401
from .train import (  # noqa: F401
    TrainConfig,
    fit,
    load_checkpoint,
    save_checkpoint,
)
