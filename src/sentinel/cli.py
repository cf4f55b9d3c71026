"""Command-line entry point wiring every pipeline stage into reproducible
seeded runs.

Settings resolve in fixed order: built-in defaults, then an INI config
file (section ``[global]`` plus one section per command), then command
flags — later sources win. A setting that feeds a library config field
or function parameter takes its type and default from there. Unknown
sections or keys are rejected by name. Each run writes all of its
outputs plus a ``run.json`` provenance record (command, resolved
settings, seed, timings, versions) into one run directory and never
writes anywhere else; :func:`replay_run` re-executes a recorded run and
reproduces those outputs byte for byte.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import inspect
import json
import logging
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args

from . import __version__
from .data import scan_dataset
from .errors import (
    AllTrialsFailed,
    ConfigError,
    ConfigInvalid,
    DataError,
    EmptyDataset,
    NumericError,
    SentinelError,
    UnknownCommand,
)
from .evaluate import (
    DEFAULT_THRESHOLD,
    _openblas,
    default_threshold_grid,
    evaluate_dataset,
    threshold_sweep,
    write_report_csv,
    write_report_json,
    write_sweep_csv,
)
from .hpo import (
    Dimension,
    SearchSpace,
    Surrogate,
    default_space,
    observe,
    partial_dependence,
    phase2_space,
    read_trials_csv,
    run_phase,
    run_phase2,
    run_two_phase,
    write_pd_csv,
    write_trials_csv,
)
from .nn import ModelSpec
from .preprocess import (
    OutlierConfig,
    PreprocessConfig,
    SplitDataset,
    check_fraction,
    load_clean_dir,
    preprocess_pipeline,
    save_clean_series,
    split_train_test,
)
from .report import render_csv, render_index
from .synth import SynthConfig, generate_dataset
from .train import TrainConfig, fit, load_checkpoint, save_checkpoint, save_loss_trace

RUN_FORMAT = "sentinel-run"
RUN_VERSION = 1

SEED_ENV_VAR = "SENTINEL_SEED"

_LOG_LEVELS = ("debug", "info", "warning", "error")


@dataclass(frozen=True)
class Option:
    """One named setting: its value type, default and flag help text, and
    the name of the library config field it feeds, if any."""

    key: str
    kind: type = str
    default: object = None
    required: bool = False
    help: str = ""
    field: str | None = None


def _derived(owner, key: str, name: str | None = None, help: str = "",
             index: int | None = None) -> Option:
    """An option whose type and default are those of field or parameter
    ``name`` (default: ``key``) of ``owner``, a config dataclass or a
    function, so that the library holds the only copy of the default.
    ``index`` takes one element of a tuple-valued field, which the option
    then does not feed on its own."""
    name = name or key
    param = inspect.signature(owner, eval_str=True).parameters[name]
    if index is not None:
        return Option(key, get_args(param.annotation)[index],
                      param.default[index], help=help)
    return Option(key, param.annotation, param.default, help=help, field=name)


GLOBAL_OPTIONS = (
    Option("out", help="run directory (default runs/<command>)"),
    Option("seed", int, field="seed",
           help=f"global RNG seed; falls back to ${SEED_ENV_VAR}, then 0"),
    Option("log_level", str, "info", help="debug|info|warning|error"),
)

# settings that several commands share
_TRAIN_DIR = Option("train_dir", required=True,
                    help="directory of cleaned training series")
_RATE_HZ = _derived(scan_dataset, "rate_hz", help="sampling rate")
_STRIDE = _derived(TrainConfig, "stride", help="training window stride")
_HORIZON = _derived(TrainConfig, "horizon", "positive_horizon",
                    help="positive-label horizon")
_SCORED = (
    Option("model", required=True, help="checkpoint path"),
    Option("data", required=True, help="directory of cleaned series to score"),
)
_DETECTION = (
    _derived(evaluate_dataset, "consecutive",
             help="consecutive windows above threshold to detect"),
    _derived(evaluate_dataset, "beta", help="F-measure beta"),
)

COMMAND_OPTIONS: dict[str, tuple[Option, ...]] = {
    "synth": (
        _derived(SynthConfig, "n_syncope", help="number of positive series"),
        _derived(SynthConfig, "n_nosyncope", help="number of negative series"),
        _derived(SynthConfig, "length_min", "length_range", index=0,
                 help="shortest series (samples)"),
        _derived(SynthConfig, "length_max", "length_range", index=1,
                 help="longest series (samples)"),
        _derived(SynthConfig, "onset_lead",
                 help="pattern onset this many samples before the marker"),
        _RATE_HZ,
        Option("corrupt", bool, False, help="also plant gaps and spikes"),
        Option("gap_probability", float, 0.01,
               help="per-sample gap start probability (with --corrupt)"),
        Option("spike_probability", float, 0.01,
               help="per-sample spike probability (with --corrupt)"),
    ),
    "preprocess": (
        Option("data", required=True,
               help="directory of recording CSVs to clean"),
        _RATE_HZ,
        _derived(OutlierConfig, "median_window", help="outlier median window"),
        _derived(OutlierConfig, "outlier_threshold", "initial_threshold",
                 help="initial studentized cut"),
        _derived(OutlierConfig, "outlier_decay", "decay",
                 help="threshold decay per iteration"),
        _derived(OutlierConfig, "outlier_iters", "max_iterations",
                 help="max outlier iterations"),
        _derived(PreprocessConfig, "train_fraction", help="train split fraction"),
        _derived(PreprocessConfig, "exclude_conflicts",
                 help="drop cross-class duplicate recordings"),
    ),
    "train": (
        _TRAIN_DIR,
        Option("spec", str, "2x32b",
               help="model shape LAYERSxUNITS[b], e.g. 2x32b for "
                    "bidirectional"),
        _derived(TrainConfig, "window", "window_size",
                 help="history window (samples)"),
        _STRIDE,
        _HORIZON,
        _derived(TrainConfig, "batch", "batch_size", help="batch size"),
        _derived(TrainConfig, "epochs", help="training epochs"),
        _derived(TrainConfig, "rho", help="ADADELTA decay rate"),
        _derived(TrainConfig, "epsilon", help="ADADELTA epsilon"),
        _derived(TrainConfig, "learning_rate", "lr_multiplier",
                 help="multiplier on ADADELTA updates"),
        _derived(TrainConfig, "lr_decay",
                 help="learning-rate multiplier decay per epoch"),
    ),
    "evaluate": (
        *_SCORED,
        _derived(evaluate_dataset, "threshold", help="detection threshold"),
        *_DETECTION,
    ),
    "sweep": (
        *_SCORED,
        Option("grid", str, "",
               help="comma-separated thresholds (default 0.05..0.95)"),
        *_DETECTION,
    ),
    "hpo": (
        _TRAIN_DIR,
        Option("phase", str, "both", help="1, 2, or both"),
        Option("budget", int, 16, help="phase-1 trials"),
        Option("budget2", int, 8, help="phase-2 trials"),
        _derived(run_phase, "n_init", help="quasi-random warmup trials"),
        Option("epochs", int, 5, help="training epochs per trial",
               field="epochs"),
        Option("inner_fraction", float, 0.8,
               help="inner train/validation split fraction"),
        _STRIDE,
        _HORIZON,
        Option("bidirectional", bool, True,
               help="train bidirectional models"),
        Option("space", str, "",
               help="search-space INI file (default: built-in space)"),
        Option("phase1_log", str, "",
               help="phase-1 trials CSV (required when phase=2)"),
    ),
    "report": (
        Option("inputs", required=True,
               help="comma-separated CSV files or directories to render"),
    ),
}

COMMANDS = tuple(COMMAND_OPTIONS)

_COMMAND_HELP = {
    "synth": "generate a labelled synthetic dataset",
    "preprocess": "clean, balance, and split a recording tree",
    "train": "train a GRU classifier on cleaned series",
    "evaluate": "score a checkpoint on cleaned series",
    "sweep": "evaluate across a threshold grid",
    "hpo": "Bayesian hyperparameter search",
    "report": "render result CSVs to static HTML/SVG",
}


@dataclass
class RunConfig:
    """Fully resolved settings for one command invocation."""

    command: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]


# --- settings resolution ----------------------------------------------------------


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _convert(opt: Option, raw, where: str):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        return _BOOL_WORDS[text.lower()] if opt.kind is bool else opt.kind(text)
    except (ValueError, KeyError):
        raise ConfigInvalid(f"{where}: key '{opt.key}' has invalid "
                            f"{opt.kind.__name__} value {raw!r}") from None


def _schema(command: str) -> dict[str, Option]:
    return {o.key: o for o in (*GLOBAL_OPTIONS, *COMMAND_OPTIONS[command])}


def _read_ini(path, what: str) -> configparser.ConfigParser:
    """Parse an INI file, mapping open and parse errors to ConfigInvalid."""
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="\x00unused")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {what} file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigInvalid(f"bad {what} file {path}: {exc}") from exc
    return parser


def read_config_file(path) -> dict[str, dict]:
    """Parse an INI settings file into {section: {key: value}}.

    Sections must be ``global`` or a command name; keys must belong to
    that section's schema. Violations raise ConfigInvalid naming the
    offending section or key.
    """
    parser = _read_ini(path, "config")
    out: dict[str, dict] = {}
    for section in parser.sections():
        if section == "global":
            allowed = {o.key: o for o in GLOBAL_OPTIONS}
        elif section in COMMAND_OPTIONS:
            allowed = _schema(section)
        else:
            raise ConfigInvalid(f"{path}: unknown section '{section}'")
        values = {}
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigInvalid(
                    f"{path}: unknown key '{key}' in section [{section}]"
                )
            values[key] = _convert(allowed[key], raw, f"{path} [{section}]")
        out[section] = values
    return out


def resolve_config(command: str, file_values: dict | None = None,
                   flag_values: dict | None = None) -> RunConfig:
    """Merge defaults, config-file sections, and flags into a RunConfig."""
    if command not in COMMAND_OPTIONS:
        raise UnknownCommand(f"unknown command '{command}'")
    schema = _schema(command)
    values = {key: opt.default for key, opt in schema.items()}
    file_values = file_values or {}
    for section in ("global", command):
        for key, value in file_values.get(section, {}).items():
            if key in values:
                values[key] = value
    for key, value in (flag_values or {}).items():
        if key not in schema:
            raise ConfigInvalid(f"{command}: unknown key '{key}'")
        if value is not None:
            values[key] = _convert(schema[key], value, command)

    if values["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            values["seed"] = 0
        else:
            try:
                values["seed"] = int(env)
            except ValueError:
                raise ConfigInvalid(
                    f"{SEED_ENV_VAR} is not an integer: {env!r}"
                ) from None
    if values["out"] is None:
        values["out"] = str(Path("runs") / command)
    values["log_level"] = str(values["log_level"]).lower()
    if values["log_level"] not in _LOG_LEVELS:
        raise ConfigInvalid(
            f"log_level must be one of {'/'.join(_LOG_LEVELS)}, "
            f"got {values['log_level']!r}"
        )
    for key, opt in schema.items():
        if opt.required and values[key] in (None, ""):
            raise ConfigInvalid(f"{command}: missing required setting '{key}'")
    return RunConfig(command, values)


# --- small shared helpers ---------------------------------------------------------


def _make(cls, config: RunConfig, **extra):
    """Build library config dataclass ``cls`` from every resolved setting
    that feeds one of its fields; ``extra`` sets or overrides the rest."""
    names = {f.name for f in fields(cls)}
    fed = {opt.field: config[opt.key]
           for opt in _schema(config.command).values() if opt.field in names}
    return cls(**{**fed, **extra})


def parse_model_spec(text: str, window: int, channels: int = 2) -> ModelSpec:
    """Parse the compact LAYERSxUNITS[b] model notation, e.g. '2x32b'."""
    m = re.fullmatch(r"(\d+)x(\d+)(b?)", str(text).strip().lower())
    if not m:
        raise ConfigInvalid(
            f"spec: cannot parse model spec {text!r} (expected e.g. '2x32b')"
        )
    layers, units = int(m.group(1)), int(m.group(2))
    if layers < 1 or units < 1:
        raise ConfigInvalid(f"spec: layers and units must be >= 1 in {text!r}")
    return ModelSpec(num_layers=layers, units=[units] * layers,
                     bidirectional=m.group(3) == "b", window_size=window,
                     input_channels=channels)


def _files_under(root: Path, out: Path) -> list[str]:
    return sorted(
        p.relative_to(out).as_posix()
        for p in root.rglob("*") if p.is_file()
    )


def _versions() -> dict:
    """Versions of the interpreter and libraries, and the OpenBLAS build
    numpy loaded with its thread count (None where it is not found):
    trained weights can follow the BLAS thread count."""
    import numpy
    import scipy

    blas = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sentinel": __version__,
        "blas": None if blas is None else {"library": blas.library,
                                           "threads": blas.get()},
    }


# --- command handlers -------------------------------------------------------------


def _cmd_synth(config: RunConfig, out: Path, log) -> list[str]:
    corrupt = config["corrupt"]
    scfg = _make(
        SynthConfig, config,
        length_range=(config["length_min"], config["length_max"]),
        gap_probability=config["gap_probability"] if corrupt else 0.0,
        spike_probability=config["spike_probability"] if corrupt else 0.0,
    )
    generated = generate_dataset(scfg, out / "data")
    log.info("generated %d series under %s", len(generated.ids), out / "data")
    return _files_under(out / "data", out)


def _cmd_preprocess(config: RunConfig, out: Path, log) -> list[str]:
    pcfg = _make(PreprocessConfig, config, outlier=_make(OutlierConfig, config))
    catalog = scan_dataset(config["data"], rate_hz=config["rate_hz"])
    for path, reason in catalog.skipped:
        log.warning("skipped %s: %s", path, reason)
    split, drop_report = preprocess_pipeline(catalog, pcfg, config["seed"])
    written = []
    for side, series_list in (("train", split.train), ("test", split.test)):
        for series in series_list:
            rel = Path("clean") / side / f"{series.id}.csv"
            save_clean_series(series, out / rel)
            written.append(rel.as_posix())
    with open(out / "drop_report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "series_id", "reason"])
        writer.writerows(drop_report.drops)
    written.append("drop_report.csv")
    log.info("kept %d train / %d test series; dropped %d",
             len(split.train), len(split.test), len(drop_report.drops))
    return sorted(written)


def _cmd_train(config: RunConfig, out: Path, log) -> list[str]:
    series = load_clean_dir(config["train_dir"])
    spec = parse_model_spec(config["spec"], config["window"])
    tcfg = _make(TrainConfig, config)
    split = SplitDataset(train=series, test=[], seed=config["seed"])
    model, optimizer, history = fit(split, spec, tcfg)
    for sid in history.skipped_series:
        log.warning("series %s has no marker; skipped", sid)
    save_checkpoint(model, out / "model.ckpt", optimizer=optimizer)
    save_loss_trace(history.epoch_losses, out / "loss.csv")
    if history.epoch_losses:
        log.info("trained on %d windows (%d positive); final loss %.6f",
                 history.n_windows, history.n_positive,
                 history.epoch_losses[-1])
    return ["loss.csv", "model.ckpt"]


def _cmd_evaluate(config: RunConfig, out: Path, log) -> list[str]:
    model = load_checkpoint(config["model"])
    series = load_clean_dir(config["data"])
    result = evaluate_dataset(
        model, series, config["threshold"],
        consecutive=config["consecutive"], beta=config["beta"],
    )
    write_report_csv(result, out / "report.csv")
    write_report_json(result, out / "summary.json")
    log.info("accuracy %s, recall %s over %d series",
             result.accuracy, result.recall, result.confusion.total)
    return ["report.csv", "summary.json"]


def _parse_grid(text: str) -> list[float]:
    text = str(text).strip()
    if not text:
        return default_threshold_grid()
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigInvalid(
            f"grid: cannot parse threshold list {text!r}"
        ) from None
    if not values:
        raise ConfigInvalid("grid: threshold list is empty")
    return values


def _cmd_sweep(config: RunConfig, out: Path, log) -> list[str]:
    model = load_checkpoint(config["model"])
    series = load_clean_dir(config["data"])
    reports = threshold_sweep(
        model, series, _parse_grid(config["grid"]),
        consecutive=config["consecutive"], beta=config["beta"],
    )
    write_sweep_csv(reports, out / "sweep.csv")
    log.info("swept %d thresholds over %d series",
             len(reports), len(series))
    return ["sweep.csv"]


def load_space_file(path) -> SearchSpace:
    """Read a search-space INI: one section per dimension, keys
    kind/lower/upper."""
    parser = _read_ini(path, "space")
    dimensions = []
    for section in parser.sections():
        items = dict(parser.items(section))
        unknown = set(items) - {"kind", "lower", "upper"}
        if unknown:
            raise ConfigInvalid(
                f"{path}: unknown key '{sorted(unknown)[0]}' in "
                f"dimension [{section}]"
            )
        if "lower" not in items or "upper" not in items:
            raise ConfigInvalid(
                f"{path}: dimension [{section}] needs lower and upper"
            )
        kind = items.get("kind", "real")
        try:
            lower, upper = float(items["lower"]), float(items["upper"])
        except ValueError:
            raise ConfigInvalid(
                f"{path}: dimension [{section}] has non-numeric bounds"
            ) from None
        dimensions.append(Dimension(section, kind, lower, upper))
    if not dimensions:
        raise ConfigInvalid(f"{path}: space file defines no dimensions")
    return SearchSpace(dimensions)


def make_pipeline_objective(series, config: RunConfig, log):
    """Objective for HPO: 1 - validation accuracy of a freshly trained model.

    The series are split once (seeded) into inner train/validation sides;
    every trial trains on the same inner split so objective values are
    comparable across trials. The settings every trial shares are checked
    here, before the first trial.
    """
    # a window longer than the horizon implies at least a window-length
    # lookback, so each trial clamps the horizon up to its window
    horizon = config["horizon"]
    base = _make(TrainConfig, config,
                 positive_horizon=max(horizon, TrainConfig.window_size))
    check_fraction(config["inner_fraction"], "inner_fraction")
    inner = split_train_test(series, config["inner_fraction"], config["seed"])
    bidirectional = config["bidirectional"]

    def objective(params: dict) -> float:
        window = int(params.get("window_size", base.window_size))
        layers = int(params.get("gru_layers", 1))
        units = int(params.get("gru_units", 32))
        spec = ModelSpec(num_layers=layers, units=[units] * layers,
                         bidirectional=bidirectional, window_size=window)
        tcfg = replace(
            base, window_size=window, positive_horizon=max(horizon, window),
            batch_size=int(params.get("batch_size", base.batch_size)),
            lr_multiplier=float(params.get("learning_rate", base.lr_multiplier)),
            lr_decay=float(params.get("lr_decay", base.lr_decay)),
        )
        model, _, _ = fit(inner, spec, tcfg)
        result = evaluate_dataset(
            model, inner.test,
            float(params.get("output_threshold", DEFAULT_THRESHOLD)))
        value = 1.0 - (result.accuracy if result.accuracy is not None else 0.0)
        log.info("objective %.4f at %s", value,
                 {k: params[k] for k in sorted(params)})
        return value

    return objective


def _write_partial_dependence(space: SearchSpace, trials, seed: int,
                              out: Path) -> list[str]:
    """Partial dependence of one GP fit over all of a phase's trials,
    seeded like the search of that phase."""
    if len(trials) < 2:
        return []
    surrogate = observe(Surrogate(space, seed=seed),
                        [t.params for t in trials], [t.objective for t in trials])
    written = []
    pairs = [[0, 1]] if len(space) >= 2 else []
    for dims in [[i] for i in range(len(space))] + pairs:
        rel = "pd_" + "_".join(space.names[i] for i in dims) + ".csv"
        write_pd_csv(partial_dependence(surrogate, dims), out / rel)
        written.append(rel)
    return written


def _check_phase1_seed(phase1_log: Path, seed: int) -> None:
    """A phase-1 trials log does not hold its seed, but the run.json beside
    it does: phase 2 over a log searched with another seed would match
    neither seed's ``--phase both``."""
    record = phase1_log.parent / "run.json"
    if not record.is_file():
        return
    doc = load_run_record(record)
    if doc["command"] == "hpo" and doc.get("seed") != seed:
        raise ConfigInvalid(
            f"hpo: phase-1 log {phase1_log} was searched with seed "
            f"{doc.get('seed')!r} ({record}), phase 2 was given seed {seed}"
        )


def _cmd_hpo(config: RunConfig, out: Path, log) -> list[str]:
    series = load_clean_dir(config["train_dir"])
    space = load_space_file(config["space"]) if config["space"] \
        else default_space()
    objective = make_pipeline_objective(series, config, log)
    seed, n_init = config["seed"], config["n_init"]
    phase = str(config["phase"]).lower()

    if phase == "1":
        trials, best = run_phase(space, config["budget"], objective, seed,
                                 n_init=n_init)
        logs = {"trials.csv": (trials, space)}
        best_params, best_objective = best.params, best.objective
        pd_space, pd_trials, pd_seed = space, trials, seed
    elif phase in ("2", "both"):
        sub = phase2_space(space)
        if phase == "both":
            result = run_two_phase(space, config["budget"], config["budget2"],
                                   objective, seed, n_init=n_init)
            logs = {"trials_phase1.csv": (result.phase1, space),
                    "trials_phase2.csv": (result.phase2, sub)}
        else:
            if not config["phase1_log"]:
                raise ConfigInvalid(
                    "hpo: phase 2 needs phase1_log=<phase-1 trials CSV>"
                )
            _check_phase1_seed(Path(config["phase1_log"]), seed)
            result = run_phase2(space, read_trials_csv(config["phase1_log"], space),
                                config["budget2"], objective, seed, n_init=n_init)
            logs = {"trials.csv": (result.phase2, sub)}
        best_params, best_objective = result.best_params, result.best_objective
        pd_space, pd_trials, pd_seed = sub, result.phase2, result.seed2
    else:
        raise ConfigInvalid(
            f"hpo: phase must be 1, 2 or both, got {config['phase']!r}"
        )

    written = list(logs)
    for rel, (trials, trial_space) in logs.items():
        write_trials_csv(trials, trial_space, out / rel)
    with open(out / "best.json", "w", encoding="utf-8") as fh:
        json.dump({"params": best_params, "objective": best_objective},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append("best.json")
    written += _write_partial_dependence(pd_space, pd_trials, pd_seed, out)
    log.info("best objective %.4f at %s", best_objective,
             {k: best_params[k] for k in sorted(best_params)})
    return sorted(written)


def _gather_report_inputs(text: str) -> list[Path]:
    paths: list[Path] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        p = Path(part)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.csv")))
        elif p.is_file():
            paths.append(p)
        else:
            raise ConfigInvalid(f"report: input {part!r} does not exist")
    if not paths:
        raise ConfigInvalid("report: inputs name no CSV files")
    return paths


def _cmd_report(config: RunConfig, out: Path, log) -> list[str]:
    entries = []
    written: list[str] = []
    used_names: set[str] = set()
    for path in _gather_report_inputs(config["inputs"]):
        rendered = render_csv(path)
        if rendered is None:
            log.warning("unrecognized CSV layout: %s", path)
            continue
        title, svg = rendered
        name = f"{path.stem}.svg"
        serial = 1
        while name in used_names:
            serial += 1
            name = f"{path.stem}_{serial}.svg"
        used_names.add(name)
        (out / name).write_text(svg + "\n", encoding="utf-8")
        entries.append((title, svg))
        written.append(name)
    if not entries:
        raise EmptyDataset("report: no renderable CSV inputs")
    (out / "index.html").write_text(render_index(entries), encoding="utf-8")
    written.append("index.html")
    log.info("rendered %d chart(s)", len(entries))
    return sorted(written)


_HANDLERS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "hpo": _cmd_hpo,
    "report": _cmd_report,
}


# --- dispatch and provenance ------------------------------------------------------


def _setup_logging(level_name: str) -> None:
    level = getattr(logging, level_name.upper())
    root = logging.getLogger("sentinel")
    root.setLevel(level)
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)


def _write_run_record(config: RunConfig, out: Path, outputs: list[str],
                      started: float, elapsed: float) -> None:
    record = {
        "format": RUN_FORMAT,
        "format_version": RUN_VERSION,
        "command": config.command,
        "config": {k: config.values[k] for k in sorted(config.values)},
        "seed": config["seed"],
        "started_unix": started,
        "elapsed_s": elapsed,
        "versions": _versions(),
        "outputs": sorted(outputs),
    }
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def dispatch(command: str, config: RunConfig) -> int:
    """Run one command into its run directory; 0 on success.

    Failures raise SentinelError subclasses; :func:`main` maps them to
    exit codes.
    """
    if command not in _HANDLERS:
        raise UnknownCommand(f"unknown command '{command}'")
    _setup_logging(config["log_level"])
    log = logging.getLogger(f"sentinel.cli.{command}")
    for key in sorted(config.values):
        log.info("config %s=%r", key, config.values[key])
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    outputs = _HANDLERS[command](config, out, log)
    elapsed = time.time() - started
    _write_run_record(config, out, outputs, started, elapsed)
    log.info("wrote %d file(s) + run.json under %s", len(outputs), out)
    return 0


def load_run_record(path) -> dict:
    """Read and shape-check a run.json provenance record."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"unreadable run record {path}: {exc}") from exc
    if (not isinstance(doc, dict) or doc.get("format") != RUN_FORMAT
            or "command" not in doc or "config" not in doc):
        raise ConfigInvalid(f"{path} is not a run record")
    return doc


def replay_run(run_json_path, out_dir) -> int:
    """Re-execute a recorded run into ``out_dir``.

    All recorded settings are reused verbatim except the run directory,
    so every output except run.json itself (whose timings differ) is
    reproduced byte for byte. Input paths are replayed as recorded and
    must still resolve.
    """
    doc = load_run_record(run_json_path)
    config = resolve_config(doc["command"],
                            flag_values={**doc["config"], "out": str(out_dir)})
    return dispatch(config.command, config)


# --- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentinel",
        description="Syncope early-warning pipeline with reproducible runs.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", default=None, metavar="FILE",
                       help="INI settings file")
        for opt in (*GLOBAL_OPTIONS, *options):
            kind = ({"action": argparse.BooleanOptionalAction}
                    if opt.kind is bool else {"type": opt.kind})
            p.add_argument("--" + opt.key.replace("_", "-"), dest=opt.key,
                           default=None, help=opt.help, **kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        print("error: a command is required (see --help)", file=sys.stderr)
        return 2
    try:
        file_values = read_config_file(args.config) if args.config else {}
        flag_values = {key: getattr(args, key) for key in _schema(args.command)}
        config = resolve_config(args.command, file_values, flag_values)
        return dispatch(args.command, config)
    except SentinelError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return exit_code_for(exc)


def exit_code_for(exc: SentinelError) -> int:
    """Map the error hierarchy onto the documented exit codes."""
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, (NumericError, AllTrialsFailed)):
        return 4
    if isinstance(exc, DataError):
        return 3
    return 3  # artifact problems (checkpoints, metrics) read as data issues


if __name__ == "__main__":
    sys.exit(main())
