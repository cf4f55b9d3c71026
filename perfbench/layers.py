"""Which program functions the traced run wraps, and the per-layer metrics
derived from the spans and counters.

Each function is wrapped at every name a caller looks it up by: the module
that defines it when the package or the benchmark calls it there, and the
importing module (``sentinel.cli``, ``sentinel.train``, ``sentinel.evaluate``)
where that module calls it through its own globals. Both wrappers record
the same span name.
"""

from __future__ import annotations

from collections import defaultdict

from sentinel import cli, data, evaluate, hpo, nn, preprocess, synth, train

from spans import Tracer

# (module, attribute, span name)
WRAPPED = [
    (synth, "generate_dataset", "synth.generate_dataset"),
    (data, "scan_dataset", "data.scan_dataset"),
    (cli, "scan_dataset", "data.scan_dataset"),
    (preprocess, "preprocess_pipeline", "preprocess.pipeline"),
    (cli, "preprocess_pipeline", "preprocess.pipeline"),
    (preprocess, "remove_outliers_iterative", "preprocess.remove_outliers"),
    (preprocess, "median_filter", "preprocess.median_filter"),
    (preprocess, "save_clean_series", "preprocess.save_clean"),
    (cli, "save_clean_series", "preprocess.save_clean"),
    (preprocess, "load_clean_dir", "preprocess.load_clean"),
    (cli, "load_clean_dir", "preprocess.load_clean"),
    (train, "build_window_set", "train.build_window_set"),
    (train, "fit", "train.fit"),
    (cli, "fit", "train.fit"),
    (train, "save_checkpoint", "train.save_checkpoint"),
    (train, "load_checkpoint", "train.load_checkpoint"),
    (nn, "forward_batch", "nn.forward_batch"),
    (train, "forward_batch", "nn.forward_batch"),
    (evaluate, "forward_batch", "nn.forward_batch"),
    (train, "backward_batch", "nn.backward_batch"),
    (train, "adadelta_update", "nn.adadelta_update"),
    (nn, "sigmoid", "nn.sigmoid"),
    (evaluate, "series_probabilities", "evaluate.series_probabilities"),
    (evaluate, "evaluate_dataset", "evaluate.evaluate_dataset"),
    (cli, "evaluate_dataset", "evaluate.evaluate_dataset"),
    (evaluate, "threshold_sweep", "evaluate.threshold_sweep"),
    (hpo, "observe", "hpo.observe"),
    (cli, "observe", "hpo.observe"),
    (hpo, "suggest_next", "hpo.suggest_next"),
    (cli, "partial_dependence", "hpo.partial_dependence"),
    (cli, "run_two_phase", "hpo.run_two_phase"),
    (cli, "dispatch", "cli.dispatch"),
]


def forward_flops(spec) -> int:
    """Matmul FLOPs of one window's forward pass (2 per multiply-add)."""
    flops, d = 0, spec.input_channels
    directions = 2 if spec.bidirectional else 1
    for h in spec.units:
        flops += directions * spec.window_size * (6 * d * h + 6 * h * h)
        d = directions * h
    return flops + 4 * spec.feature_dim()


def _count_catalog(tracer, args, kwargs, catalog):
    tracer.count("data.records", len(catalog.records))
    tracer.count("data.samples", sum(len(samples) for rec in catalog.records
                                     for samples in rec.channels.values()))


def _count_forward(tracer, args, kwargs, result):
    model, windows = args[0], args[1]
    tracer.count("nn.windows", len(windows))
    tracer.count("nn.flops", len(windows) * forward_flops(model.spec))


def _count_backward(tracer, args, kwargs, result):
    model, cache = args[0], args[1]
    # BPTT does twice the forward matmul work: input and weight gradients.
    tracer.count("nn.flops", 2 * len(cache.probs) * forward_flops(model.spec))


def _count_trace(tracer, args, kwargs, trace):
    model, series = args[0], args[1]
    tracer.count("evaluate.trace_windows", len(trace))
    # keyed by model and series; the model is kept alive so that its id
    # is not reused by a later model
    tracer.models[id(model)] = model
    tracer.count(f"evaluate.traced:{id(model)}:{series.id}")


def _count_trials(tracer, args, kwargs, result):
    trials = result.phase1 + result.phase2
    tracer.count("hpo.trials", len(trials))
    tracer.count("hpo.trials_failed", sum(t.status != "done" for t in trials))


HOOKS = {
    "data.scan_dataset": _count_catalog,
    "preprocess.pipeline":
        lambda t, a, k, r: t.count("preprocess.dropped", len(r[1].drops)),
    "preprocess.remove_outliers":
        lambda t, a, k, r: t.count("preprocess.outlier_iterations", r.iterations),
    "train.build_window_set": lambda t, a, k, r: t.count("train.windows", len(r)),
    "nn.forward_batch": _count_forward,
    "nn.backward_batch": _count_backward,
    "evaluate.series_probabilities": _count_trace,
    "hpo.run_two_phase": _count_trials,
}


def instrument(tracer: Tracer) -> None:
    for module, attr, name in WRAPPED:
        tracer.wrap(module, attr, name, HOOKS.get(name))
    make_objective = cli.make_pipeline_objective

    def traced_objective_factory(*args, **kwargs):
        return tracer.traced(make_objective(*args, **kwargs), "cli.objective")

    cli.make_pipeline_objective = traced_objective_factory
    tracer.patched.append((cli, "make_pipeline_objective", make_objective))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(tracer: Tracer, phase_rounds: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of the traced pass.

    Times, calls and work counts are per round of each measured phase,
    summed over the phases, so that they do not grow when a faster program
    fits more rounds into the run; ratios are taken over the whole pass.
    The corpus is only ever generated during set-up, so
    ``synth.generate_dataset_s`` is taken from the (single) set-up.
    """
    per_round: dict = defaultdict(float)
    whole: dict = defaultdict(float)
    for phase, rounds in phase_rounds.items():
        for name, entry in tracer.totals(phase).items():
            for key, value in entry.items():
                per_round[name, key] += value / rounds
                whole[name, key] += value
        for (p, key), value in tracer.counts.items():
            if p == phase:
                per_round[key] += value / rounds
                whole[key] += value
    # distinct (model, series) pairs traced
    pairs = sum(1 for p, key in tracer.counts
                if p in phase_rounds and key.startswith("evaluate.traced:"))

    def busy(name):
        return per_round[name, "busy_s"]

    def calls(name):
        return per_round[name, "calls"]

    return {
        "synth.generate_dataset_s":
            tracer.totals("setup")["synth.generate_dataset"]["busy_s"],
        "data.scan_dataset_s": busy("data.scan_dataset"),
        "data.records": per_round["data.records"],
        "data.samples": per_round["data.samples"],
        "preprocess.pipeline_s": busy("preprocess.pipeline"),
        "preprocess.remove_outliers_s": busy("preprocess.remove_outliers"),
        "preprocess.remove_outliers_calls": calls("preprocess.remove_outliers"),
        "preprocess.outlier_iterations": per_round["preprocess.outlier_iterations"],
        "preprocess.median_filter_s": busy("preprocess.median_filter"),
        "preprocess.median_filter_calls": calls("preprocess.median_filter"),
        "preprocess.dropped": per_round["preprocess.dropped"],
        "preprocess.save_clean_s": busy("preprocess.save_clean"),
        "preprocess.load_clean_s": busy("preprocess.load_clean"),
        "train.build_window_set_s": busy("train.build_window_set"),
        "train.windows": per_round["train.windows"],
        "train.fit_s": busy("train.fit"),
        "train.save_checkpoint_s": busy("train.save_checkpoint"),
        "train.load_checkpoint_s": busy("train.load_checkpoint"),
        "nn.forward_batch_s": busy("nn.forward_batch"),
        "nn.forward_batch_calls": calls("nn.forward_batch"),
        "nn.windows_per_forward_call": _ratio(
            whole["nn.windows"], whole["nn.forward_batch", "calls"]),
        "nn.backward_batch_s": busy("nn.backward_batch"),
        "nn.adadelta_update_s": busy("nn.adadelta_update"),
        "nn.sigmoid_s": busy("nn.sigmoid"),
        "nn.sigmoid_calls": calls("nn.sigmoid"),
        "nn.gflop_per_s": _ratio(
            whole["nn.flops"] / 1e9,
            whole["nn.forward_batch", "busy_s"] + whole["nn.backward_batch", "busy_s"]),
        "evaluate.series_probabilities_s": busy("evaluate.series_probabilities"),
        "evaluate.trace_windows": per_round["evaluate.trace_windows"],
        # 1 when no series is traced twice by the same model
        "evaluate.traces_per_series": _ratio(
            whole["evaluate.series_probabilities", "calls"], pairs),
        "evaluate.evaluate_dataset_self_s":
            per_round["evaluate.evaluate_dataset", "self_s"],
        "hpo.observe_s": busy("hpo.observe"),
        "hpo.observe_calls": calls("hpo.observe"),
        "hpo.refits_per_trial": _ratio(whole["hpo.observe", "calls"],
                                       whole["hpo.trials"]),
        "hpo.suggest_next_s": busy("hpo.suggest_next"),
        "hpo.partial_dependence_s": busy("hpo.partial_dependence"),
        "hpo.trials": per_round["hpo.trials"],
        "hpo.trials_failed": per_round["hpo.trials_failed"],
        "cli.objective_s": busy("cli.objective"),
        "cli.self_s": per_round["cli.dispatch", "self_s"],
    }
