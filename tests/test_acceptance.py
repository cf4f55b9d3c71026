"""Acceptance gate: nine end-to-end checks over the whole pipeline.

Each criterion is one test that prints a single line

    [CRITERION n] <name>: PASS|FAIL (<measured values and bounds>)

before asserting, so a plain ``pytest -s tests/test_acceptance.py`` gives a
readable scorecard.  Bounds and tolerances are stated inline next to each
assertion.  Criterion 6 (architecture comparison) is a soft trend check: a
violation is printed and recorded but does not fail the suite.

The heavyweight fixtures (synthetic corpus -> preprocess -> 50-epoch
bidirectional training) are module-scoped and shared by criteria 4, 5 and 7;
expect the module to take a few minutes end to end.
"""

import filecmp
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from test_nn import finite_difference_grads, max_relative_error

from sentinel import nn
from sentinel.cli import main, replay_run
from sentinel.data import Label, RawRecording, scan_dataset
from sentinel.errors import (
    EmptyEvaluation,
    NoDetections,
    NoPositives,
    UndefinedF,
)
from sentinel.evaluate import (
    accuracy,
    default_threshold_grid,
    f_measure,
    median_reaction,
    precision,
    recall,
    threshold_sweep,
)
from sentinel.hpo import Dimension, SearchSpace, run_phase
from sentinel.nn import ModelSpec
from sentinel.preprocess import (
    OutlierConfig,
    PreprocessConfig,
    fill_gaps,
    preprocess_pipeline,
    remove_outliers_iterative,
)
from sentinel.synth import SynthConfig, generate_dataset
from sentinel.train import TrainConfig, fit

SEED = 20250825


def _line(number, name, ok, detail):
    print(f"[CRITERION {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# shared heavyweight runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Synthetic corpus -> preprocess -> 50-epoch bidirectional training.

    Shared by criteria 4 (accuracy), 5 (reaction time) and 7 (threshold
    sweep).  The pinned quantities are the ones under test: bidirectional
    2-layer/32-unit model, window 100, horizon 750 samples, batch 16,
    50 epochs, balanced 96 train / 24 test series, all from one fixed seed.
    """
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("acc_pipeline")
    cfg = SynthConfig(
        n_syncope=60,
        n_nosyncope=60,
        length_range=(1700, 1900),
        onset_lead=750,
        noise_coef=0.85,
        bp_drop_fraction=0.35,
        hr_rise_fraction=0.18,
        hr_drop_fraction=0.30,
        hr_noise_std=1.5,
        bp_noise_std=2.0,
        seed=SEED,
    )
    generate_dataset(cfg, out)
    catalog = scan_dataset(out)
    split, _ = preprocess_pipeline(catalog, PreprocessConfig(), seed=SEED)
    spec = ModelSpec(num_layers=2, units=[32, 32], bidirectional=True,
                     window_size=100)
    tcfg = TrainConfig(window_size=100, epochs=50, stride=40,
                       positive_horizon=750, batch_size=16, seed=SEED)
    model, _, history = fit(split, spec, tcfg)
    reports = threshold_sweep(model, split.test, default_threshold_grid())
    elapsed = time.perf_counter() - t0
    return {
        "split": split,
        "history": history,
        "reports": reports,
        "elapsed": elapsed,
        "onset_lead": cfg.onset_lead,
        "rate_hz": cfg.rate_hz,
    }


@pytest.fixture(scope="module")
def arch_comparison(tmp_path_factory):
    """Matched-spec bidirectional vs forward-only runs over five seeds.

    One shared dataset; per seed, both architectures train with identical
    settings (1 layer, 12 units, window 60, 30 epochs) and are scored at
    threshold 0.7.
    """
    out = tmp_path_factory.mktemp("acc_arch")
    cfg = SynthConfig(
        n_syncope=16,
        n_nosyncope=16,
        length_range=(1100, 1300),
        onset_lead=300,
        noise_coef=0.9,
        bp_drop_fraction=0.35,
        hr_rise_fraction=0.18,
        hr_drop_fraction=0.30,
        seed=9,
    )
    generate_dataset(cfg, out)
    catalog = scan_dataset(out)
    split, _ = preprocess_pipeline(
        catalog, PreprocessConfig(train_fraction=0.75), seed=9)
    accs = {True: [], False: []}
    for seed in range(5):
        for bidir in (True, False):
            spec = ModelSpec(num_layers=1, units=[12], bidirectional=bidir,
                             window_size=60)
            tcfg = TrainConfig(window_size=60, epochs=30, stride=40,
                               positive_horizon=300, batch_size=16, seed=seed)
            model, _, _ = fit(split, spec, tcfg)
            reports = threshold_sweep(model, split.test, [0.7])
            accs[bidir].append(reports[0].accuracy)
    return accs


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences
# ---------------------------------------------------------------------------


class TestCriterion1:
    def test_gradients_match_finite_differences(self):
        """Max relative error < 1e-4 vs central differences (step 1e-5) for
        three model shapes; the whole check must finish within 60 s."""
        t0 = time.perf_counter()
        worst = 0.0
        shapes = [(1, [8], False), (2, [8, 8], False), (2, [8, 8], True)]
        for num_layers, units, bidir in shapes:
            rng = np.random.default_rng(100 + num_layers + int(bidir))
            spec = nn.ModelSpec(num_layers, units, bidirectional=bidir,
                                window_size=20, input_channels=2)
            model = nn.init_params(spec, seed=42)
            windows = rng.normal(size=(3, 20, 2))
            targets = np.array([0, 1, 1])
            _, cache = nn.forward_batch(model, windows)
            analytic = nn.backward_batch(model, cache, targets)
            numeric = finite_difference_grads(model, windows, targets,
                                              step=1e-5)
            assert set(analytic) == set(numeric)
            for name in numeric:
                worst = max(worst, max_relative_error(analytic[name],
                                                      numeric[name]))
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-4 and elapsed < 60.0
        _line(1, "gradient-check", ok,
              f"max rel err {worst:.3e} < 1e-4 over 1x8, 2x8, 2x8-bidir; "
              f"{elapsed:.1f}s < 60s")
        assert worst < 1e-4
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: detection metrics match their defining formulas
# ---------------------------------------------------------------------------


class TestCriterion2:
    def test_metrics_match_brute_force(self):
        """recall, precision, F-beta (beta in {0.5, 1, 2}) and accuracy agree
        with directly-coded formulas on every confusion table with entries
        <= 10, to absolute error < 1e-12; undefined cases must raise."""
        worst = 0.0
        n_checked = 0
        betas = (0.5, 1.0, 2.0)
        for tp in range(11):
            for fp in range(11):
                for fn in range(11):
                    for tn in range(11):
                        if tp + fn == 0:
                            with pytest.raises(NoPositives):
                                recall(tp, fn)
                            r = None
                        else:
                            r = recall(tp, fn)
                            worst = max(worst, abs(r - tp / (tp + fn)))
                        if tp + fp == 0:
                            with pytest.raises(NoDetections):
                                precision(tp, fp)
                            p = None
                        else:
                            p = precision(tp, fp)
                            worst = max(worst, abs(p - tp / (tp + fp)))
                        if r is not None and p is not None:
                            for beta in betas:
                                if r + beta * beta * p == 0:
                                    with pytest.raises(UndefinedF):
                                        f_measure(r, p, beta)
                                else:
                                    want = ((1 + beta * beta) * r * p
                                            / (r + beta * beta * p))
                                    worst = max(worst, abs(
                                        f_measure(r, p, beta) - want))
                        total = tp + fp + fn + tn
                        if total == 0:
                            with pytest.raises(EmptyEvaluation):
                                accuracy(tp + tn, fp + fn)
                        else:
                            worst = max(worst, abs(
                                accuracy(tp + tn, fp + fn)
                                - (tp + tn) / total))
                        n_checked += 1
        ok = worst < 1e-12
        _line(2, "metric-identities", ok,
              f"{n_checked} confusion tables, beta in {betas}, "
              f"worst abs err {worst:.2e} < 1e-12")
        assert n_checked == 11 ** 4
        assert worst < 1e-12


# ---------------------------------------------------------------------------
# criterion 3: cleaning recovers planted corruption
# ---------------------------------------------------------------------------


class TestCriterion3:
    def test_planted_spikes_and_gaps_recovered(self, tmp_path):
        """On 50 synthetic series with planted spikes (amplitude at least
        5x the series' own standard deviation) and planted gaps:
        - iterative outlier removal hits >= 95% of planted spike indices,
        - false removals stay <= 1% of all grid positions,
        - every series converges within 5 iterations,
        - gap filling restores exactly-linear segments to < 1e-9.
        """
        cfg = SynthConfig(
            n_syncope=25,
            n_nosyncope=25,
            length_range=(1200, 1600),
            onset_lead=400,
            gap_probability=0.004,
            spike_probability=0.004,
            spike_sigma=30.0,
            seed=77,
        )
        gen = generate_dataset(cfg, tmp_path)
        catalog = scan_dataset(tmp_path)
        assert len(catalog.records) == 50

        ocfg = OutlierConfig(max_iterations=8)
        noise = {"mBP": cfg.bp_noise_std, "HR": cfg.hr_noise_std}
        planted_total = hit_total = false_total = positions = 0
        max_iters = 0
        min_amp_ratio = np.inf
        for rec in catalog.records:
            truth = gen.truth[rec.id]
            t_first, _ = rec.time_span()
            offset = int(round(t_first * catalog.rate_hz))
            grid = fill_gaps(rec, catalog.rate_hz)
            for name, values in (("mBP", grid.mbp), ("HR", grid.hr)):
                n = values.size
                planted = {i - offset for i in truth.spikes[name]
                           if 0 <= i - offset < n}
                if planted:
                    # precondition: planted amplitude really is >= 5 sigma
                    # even against the full series spread (pattern included)
                    min_amp_ratio = min(
                        min_amp_ratio,
                        cfg.spike_sigma * noise[name] / float(np.std(values)))
                result = remove_outliers_iterative(values, ocfg)
                removed = {int(i) for i in result.removed}
                planted_total += len(planted)
                hit_total += len(removed & planted)
                false_total += len(removed - planted)
                positions += n
                max_iters = max(max_iters, result.iterations)

        assert planted_total > 100, "expected a substantial planted corpus"
        assert min_amp_ratio >= 5.0, (
            f"planted spikes only {min_amp_ratio:.2f} sigma")
        hit_rate = hit_total / planted_total
        false_rate = false_total / positions

        # gap filling on exactly linear channels, using the same planted
        # gap masks; interior interpolation must be exact to < 1e-9
        rng = np.random.default_rng(123)
        dt = 1.0 / cfg.rate_hz
        gap_positions = 0
        worst_gap_err = 0.0
        for sid, truth in gen.truth.items():
            n = truth.length
            masks = {}
            lines = {}
            channels = {}
            for name in ("mBP", "HR"):
                mask = np.zeros(n, dtype=bool)
                for start, glen in truth.gaps[name]:
                    mask[start:start + glen] = True
                mask[0] = mask[-1] = False  # keep endpoints observed
                line = (rng.uniform(-50.0, 50.0)
                        + rng.uniform(-0.5, 0.5) * np.arange(n))
                masks[name], lines[name] = mask, line
                channels[name] = [(i * dt, float(line[i]))
                                  for i in np.flatnonzero(~mask)]
            rec = RawRecording(id=sid, label=Label.NOSYNCOPE,
                               channels=channels, marker_time=None,
                               source_path=None, incomplete=False)
            grid = fill_gaps(rec, cfg.rate_hz)
            for name, values in (("mBP", grid.mbp), ("HR", grid.hr)):
                assert values.size == n
                err = float(np.max(np.abs(values - lines[name])))
                worst_gap_err = max(worst_gap_err, err)
                gap_positions += int(masks[name].sum())
        assert gap_positions > 100, "expected a substantial gap corpus"

        ok = (hit_rate >= 0.95 and false_rate <= 0.01 and max_iters <= 5
              and worst_gap_err < 1e-9)
        _line(3, "corruption-recovery", ok,
              f"spike hit rate {hit_rate:.3f} >= 0.95 "
              f"({hit_total}/{planted_total}), false rate "
              f"{false_rate:.5f} <= 0.01, iterations <= {max_iters} (cap 5), "
              f"linear gap err {worst_gap_err:.2e} < 1e-9 "
              f"over {gap_positions} gap samples")
        assert hit_rate >= 0.95
        assert false_rate <= 0.01
        assert max_iters <= 5
        assert worst_gap_err < 1e-9


# ---------------------------------------------------------------------------
# criteria 4 + 5 + 7: the shared end-to-end run
# ---------------------------------------------------------------------------


def _report_at(reports, threshold):
    for r in reports:
        if abs(r.threshold - threshold) < 1e-12:
            return r
    raise AssertionError(f"no report at threshold {threshold}")


@pytest.mark.slow
class TestCriterion4:
    def test_end_to_end_accuracy(self, pipeline_run):
        """Bidirectional 2x32, window 100, horizon 750, batch 16, 50 epochs,
        balanced 96/24 synthetic split: series accuracy >= 0.85 at
        threshold 0.7, full run < 15 minutes."""
        split = pipeline_run["split"]
        rep = _report_at(pipeline_run["reports"], 0.7)
        c = rep.confusion
        elapsed = pipeline_run["elapsed"]
        counts_ok = len(split.train) == 96 and len(split.test) == 24
        ok = counts_ok and rep.accuracy >= 0.85 and elapsed < 900.0
        _line(4, "end-to-end-accuracy", ok,
              f"accuracy {rep.accuracy:.3f} >= 0.85 at threshold 0.7 "
              f"(tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn}, "
              f"{len(split.train)}/{len(split.test)} split, "
              f"{elapsed:.0f}s < 900s)")
        assert counts_ok
        assert rep.accuracy >= 0.85
        assert elapsed < 900.0


@pytest.mark.slow
class TestCriterion5:
    def test_reaction_time(self, pipeline_run):
        """With onset planted 750 samples before the marker, the median
        reaction over detected syncope series is >= 450 s (75% of the
        600 s onset-to-marker span at 1.25 Hz)."""
        rep = _report_at(pipeline_run["reports"], 0.7)
        med = median_reaction(rep)
        n_detected = sum(1 for r in rep.per_series
                         if r.label is Label.SYNCOPE and r.detected)
        span_s = pipeline_run["onset_lead"] / pipeline_run["rate_hz"]
        ok = med is not None and med >= 450.0 and n_detected > 0
        _line(5, "reaction-time", ok,
              f"median reaction {med if med is None else round(med, 1)}s "
              f">= 450s over {n_detected} detected syncope series "
              f"(onset span {span_s:.0f}s)")
        assert n_detected > 0
        assert med is not None
        assert med >= 450.0


@pytest.mark.slow
class TestCriterion7:
    def test_sweep_monotonicity(self, pipeline_run):
        """Across the 19-point threshold grid, per-series detection count
        and recall are non-increasing in the threshold; zero violations
        allowed."""
        reports = pipeline_run["reports"]
        assert len(reports) == 19
        detections = [r.confusion.tp + r.confusion.fp for r in reports]
        recalls = [r.recall for r in reports]
        assert all(v is not None for v in recalls)
        det_viol = sum(1 for a, b in zip(detections, detections[1:])
                       if b > a)
        rec_viol = sum(1 for a, b in zip(recalls, recalls[1:]) if b > a)
        ok = det_viol == 0 and rec_viol == 0
        _line(7, "sweep-monotonicity", ok,
              f"19 thresholds, detection violations {det_viol}, "
              f"recall violations {rec_viol} (0 allowed); detections "
              f"{detections[0]} -> {detections[-1]}")
        assert det_viol == 0
        assert rec_viol == 0


# ---------------------------------------------------------------------------
# criterion 6 (soft): bidirectional vs forward-only trend
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestCriterion6:
    def test_bidirectional_trend(self, arch_comparison):
        """Over 5 seeds at a matched spec, median bidirectional accuracy
        should be >= the forward-only median.  Soft criterion: a violation
        is printed for investigation but does not fail the suite."""
        acc_b = arch_comparison[True]
        acc_v = arch_comparison[False]
        assert len(acc_b) == 5 and len(acc_v) == 5
        med_b = statistics.median(acc_b)
        med_v = statistics.median(acc_v)
        ok = med_b >= med_v
        detail = (f"median bidir {med_b:.3f} vs forward-only {med_v:.3f} "
                  f"over 5 seeds; per-seed bidir "
                  f"{[round(a, 3) for a in acc_b]} vs "
                  f"{[round(a, 3) for a in acc_v]}")
        if ok:
            _line(6, "bidirectional-trend", True, detail)
        else:
            _line(6, "bidirectional-trend", False,
                  detail + "; soft criterion, reported but not enforced")


# ---------------------------------------------------------------------------
# criterion 8: surrogate search on a known quadratic
# ---------------------------------------------------------------------------


class TestCriterion8:
    def test_quadratic_search(self):
        """Budget 30 (8 space-filling + 22 guided) on a deterministic
        two-dimensional quadratic: the best objective comes within 1e-2 of
        the optimum, best-so-far never increases, and rerunning with the
        same seed reproduces the trial log exactly."""
        space = SearchSpace([Dimension("x", "real", 0.0, 1.0),
                             Dimension("y", "real", 0.0, 1.0)])

        def objective(params):
            return (params["x"] - 0.31) ** 2 + (params["y"] - 0.64) ** 2

        trials, best = run_phase(space, budget=30, objective_fn=objective,
                                 seed=5)
        assert len(trials) == 30
        assert all(t.status == "done" for t in trials)

        best_so_far = []
        current = float("inf")
        for t in trials:
            current = min(current, t.objective)
            best_so_far.append(current)
        monotone = all(a >= b for a, b in zip(best_so_far, best_so_far[1:]))
        assert best.objective == min(t.objective for t in trials)

        trials2, best2 = run_phase(space, budget=30, objective_fn=objective,
                                   seed=5)
        identical = (len(trials2) == 30 and all(
            a.params == b.params and a.objective == b.objective
            and a.status == b.status for a, b in zip(trials, trials2)))

        ok = best.objective < 1e-2 and monotone and identical
        _line(8, "surrogate-search", ok,
              f"best {best.objective:.2e} < 1e-2 of optimum at "
              f"(x={best.params['x']:.3f}, y={best.params['y']:.3f}), "
              f"best-so-far monotone {monotone}, "
              f"same-seed log identical {identical}")
        assert best.objective < 1e-2
        assert monotone
        assert identical
        assert best2.objective == best.objective


# ---------------------------------------------------------------------------
# criterion 9: every CLI command replays bit-identically
# ---------------------------------------------------------------------------

SPACE_INI = """\
[gru_units]
kind = integer
lower = 4
upper = 8

[window_size]
kind = integer
lower = 40
upper = 80
"""


def _tree_files(root):
    return sorted(p for p in Path(root).rglob("*")
                  if p.is_file() and p.name != "run.json")


def _replay_matches(run_dir, replay_dir):
    """Replay run.json into replay_dir; every non-run.json file must be
    byte-identical between the two trees."""
    assert replay_run(Path(run_dir) / "run.json", replay_dir) == 0
    originals = _tree_files(run_dir)
    replays = _tree_files(replay_dir)
    rel_a = [p.relative_to(run_dir) for p in originals]
    rel_b = [p.relative_to(replay_dir) for p in replays]
    if rel_a != rel_b:
        return False, f"file sets differ: {rel_a} vs {rel_b}"
    for a, b in zip(originals, replays):
        if not filecmp.cmp(a, b, shallow=False):
            return False, f"content differs: {a.relative_to(run_dir)}"
    return True, f"{len(originals)} files identical"


class TestCriterion9:
    def test_cli_replay_bit_identical(self, tmp_path):
        """Each CLI command runs once; re-running it from its recorded
        run.json must reproduce every output byte for byte."""
        base = tmp_path / "runs"
        synth = base / "synth"
        prep = base / "prep"
        train = base / "train"
        evl = base / "eval"
        sweep = base / "sweep"
        hpo = base / "hpo"
        report = base / "report"

        assert main(["synth", "--out", str(synth), "--seed", "3",
                     "--n-syncope", "6", "--n-nosyncope", "6",
                     "--length-min", "1400", "--length-max", "1600",
                     "--onset-lead", "300", "--corrupt",
                     "--log-level", "warning"]) == 0
        assert main(["preprocess", "--data", str(synth / "data"),
                     "--out", str(prep), "--seed", "3",
                     "--log-level", "warning"]) == 0
        assert main(["train", "--train-dir", str(prep / "clean" / "train"),
                     "--out", str(train), "--seed", "3", "--spec", "1x8",
                     "--window", "60", "--stride", "80", "--epochs", "2",
                     "--log-level", "warning"]) == 0
        assert main(["evaluate", "--model", str(train / "model.ckpt"),
                     "--data", str(prep / "clean" / "test"),
                     "--out", str(evl), "--threshold", "0.6",
                     "--log-level", "warning"]) == 0
        assert main(["sweep", "--model", str(train / "model.ckpt"),
                     "--data", str(prep / "clean" / "test"),
                     "--out", str(sweep), "--log-level", "warning"]) == 0
        space_file = tmp_path / "space.ini"
        space_file.write_text(SPACE_INI)
        assert main(["hpo", "--train-dir", str(prep / "clean" / "train"),
                     "--out", str(hpo), "--seed", "3", "--phase", "1",
                     "--budget", "3", "--n-init", "2", "--epochs", "1",
                     "--stride", "80", "--space", str(space_file),
                     "--log-level", "warning"]) == 0
        assert main(["report", "--inputs",
                     f"{train / 'loss.csv'},{sweep / 'sweep.csv'}",
                     "--out", str(report), "--log-level", "warning"]) == 0

        results = {}
        for name, run_dir in (("synth", synth), ("preprocess", prep),
                              ("train", train), ("evaluate", evl),
                              ("sweep", sweep), ("hpo", hpo),
                              ("report", report)):
            ok, detail = _replay_matches(run_dir, tmp_path / f"replay_{name}")
            results[name] = (ok, detail)

        all_ok = all(ok for ok, _ in results.values())
        summary = ", ".join(f"{k}:{'ok' if ok else detail}"
                            for k, (ok, detail) in results.items())
        _line(9, "cli-replay", all_ok, summary)
        for name, (ok, detail) in results.items():
            assert ok, f"{name}: {detail}"
