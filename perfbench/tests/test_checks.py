"""The benchmark's correctness checks must accept right outputs and reject
each planted wrong one.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import checks  # noqa: E402
from sentinel import evaluate, hpo, nn, preprocess  # noqa: E402
from sentinel.data import Label  # noqa: E402
from sentinel.preprocess import CleanSeries  # noqa: E402

SPACE_FILE = HERE.parent / "hpo_space.ini"


# --- ingest -----------------------------------------------------------------------


def _ingest_case(spike_left=False, nudge=0, squeeze=False, head_gap=0, start=None):
    """One two-channel recording with a spike at raw index 40 and a gap at
    60-62, cleaned the way the pipeline should clean it. With ``head_gap``
    both channels also miss that many positions right after the trimmed
    head, so the cleaned series starts after them (at ``start`` if given)."""
    n, trim = 200, 10
    first = trim + head_gap if start is None else start
    k = np.arange(n)
    raw, clean, truth = {}, {"meta": {}}, {"spikes": {}, "gaps": {}}
    raw_rec = {}
    for c, base in (("mBP", 80.0), ("HR", 70.0)):
        values = base + 3.0 * np.sin(k / 9.0)
        spiked = values.copy()
        spiked[40] += 60.0
        raw_rec[c] = {int(i): float(spiked[i]) for i in k
                      if not (60 <= i <= 62 or trim <= i < trim + head_gap)}
        cleaned = spiked[first:].copy() if spike_left else values[first:].copy()
        cleaned[:nudge] += 0.5
        y, (lo, hi) = preprocess.minmax_normalize(cleaned)
        clean[c] = 0.99 * y if squeeze else y
        clean["meta"][f"norm_min_{c.lower()}"] = repr(lo)
        clean["meta"][f"norm_max_{c.lower()}"] = repr(hi)
        truth["spikes"][c] = [40]
        truth["gaps"][c] = [[60, 3]]
    raw["r1"] = raw_rec
    return raw, {"r1": clean}, {"r1": truth}, trim


def _check_ingest(case):
    raw, clean, truth, trim = case
    return checks.check_ingest(raw, clean, truth, trim,
                               preprocess.minmax_denormalize)


def test_ingest_accepts_a_right_cleaning():
    assert _check_ingest(_ingest_case()) == []


def test_ingest_aligns_a_series_whose_head_is_a_gap_in_both_channels():
    assert _check_ingest(_ingest_case(head_gap=3)) == []


def test_ingest_rejects_a_series_misaligned_with_its_recording():
    problems = _check_ingest(_ingest_case(head_gap=3, start=10))
    assert any("uncorrupted samples altered" in p for p in problems)


def test_ingest_rejects_a_spike_left_in_a_cleaned_series():
    problems = _check_ingest(_ingest_case(spike_left=True))
    assert any("planted spikes removed" in p for p in problems)


def test_ingest_rejects_altered_uncorrupted_samples():
    problems = _check_ingest(_ingest_case(nudge=5))
    assert any("uncorrupted samples altered" in p for p in problems)


def test_ingest_rejects_a_channel_not_spanning_minus_one_to_one():
    problems = _check_ingest(_ingest_case(squeeze=True))
    assert any("not [-1, 1]" in p for p in problems)


def _run_dir(root: Path) -> Path:
    (root / "clean" / "train").mkdir(parents=True)
    (root / "clean" / "train" / "a.csv").write_bytes(b"# id=a\nmbp,hr\n0.5,-1.0\n")
    (root / "drop_report.csv").write_bytes(b"stage,series_id,reason\n")
    (root / "run.json").write_text(json.dumps({"elapsed_s": root.name}))
    return root


def test_replay_comparison_accepts_identical_outputs(tmp_path):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert checks.compare_trees(a, b) == []


def test_replay_comparison_rejects_one_flipped_byte(tmp_path):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    target = b / "clean" / "train" / "a.csv"
    data = bytearray(target.read_bytes())
    data[-3] ^= 0x01
    target.write_bytes(bytes(data))
    assert checks.compare_trees(a, b) == ["replay differs in clean/train/a.csv"]


def test_replay_comparison_rejects_a_missing_file(tmp_path):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    (b / "drop_report.csv").unlink()
    assert checks.compare_trees(a, b)


# --- train ------------------------------------------------------------------------


def _gradients(nudge=0.0):
    analytic = {"w": np.array([[0.25, -1e-3], [3e-8, 2.0]])}
    numeric = {"w": {(0, 0): 0.25, (0, 1): -1e-3, (1, 0): 3.00005e-8, (1, 1): 2.0}}
    analytic["w"][0, 1] += nudge
    return analytic, numeric


def test_train_accepts_a_falling_loss_and_matching_gradients():
    assert checks.check_train([0.69, 0.52], *_gradients()) == []


def test_train_rejects_a_gradient_off_by_one_part_in_a_thousand():
    problems = checks.check_train([0.69, 0.52], *_gradients(nudge=1e-6))
    assert any("gradient relative error" in p for p in problems)


@pytest.mark.parametrize("losses", [[0.5, 0.5], [0.5, 0.6], [0.5, float("nan")]])
def test_train_rejects_a_loss_that_does_not_fall(losses):
    assert checks.check_train(losses, *_gradients())


# --- detect -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def detection():
    """A small real model swept over two short series."""
    spec = nn.ModelSpec(1, [4], True, 6)
    model = nn.init_params(spec, seed=3)
    rng = np.random.default_rng(5)
    series = [
        CleanSeries("s1", Label.SYNCOPE, rng.uniform(-1, 1, 40),
                    rng.uniform(-1, 1, 40), 35, 1.25, {}),
        CleanSeries("n1", Label.NOSYNCOPE, rng.uniform(-1, 1, 30),
                    rng.uniform(-1, 1, 30), None, 1.25, {}),
    ]
    traces = {s.id: evaluate.series_probabilities(model, s) for s in series}
    lo, hi = min(t.min() for t in traces.values()), max(t.max() for t in traces.values())
    grid = list(np.linspace(lo, hi, 7)[1:-1])
    reports = evaluate.threshold_sweep(model, series, grid)
    x = series[0].window_input()
    monitor = [
        (e, float(nn.forward_batch(model, x[None, e - 5:e + 1], need_cache=False)[0][0, 1]))
        for e in range(5, len(x))]
    info = {s.id: (s.label is Label.SYNCOPE, s.marker_index, s.rate_hz)
            for s in series}
    return reports, info, traces, monitor


def _check_detect(detection, reports=None, monitor=None):
    r, info, traces, m = detection
    return checks.check_detect(r if reports is None else reports, info, traces,
                               6, "s1", m if monitor is None else monitor)


def test_detect_accepts_the_program_outputs(detection):
    assert _check_detect(detection) == []


def test_detect_rejects_a_nudged_monitor_probability(detection):
    monitor = list(detection[3])
    monitor[7] = (monitor[7][0], monitor[7][1] + 1e-9)
    problems = _check_detect(detection, monitor=monitor)
    assert len(problems) == 1 and "at end index 12 differs" in problems[0]


def test_detect_rejects_a_detection_that_is_not_the_first_crossing(detection):
    reports = copy.deepcopy(detection[0])
    outcome = next(o for r in reports for o in r.per_series
                   if o.detection_index is not None)
    outcome.detection_index += 1
    problems = _check_detect(detection, reports=reports)
    assert any("first crossing" in p for p in problems)


def test_detect_rejects_a_wrong_reaction_time(detection):
    reports = copy.deepcopy(detection[0])
    outcome = next(o for r in reports for o in r.per_series
                   if o.reaction_seconds is not None)
    outcome.reaction_seconds += 0.8
    problems = _check_detect(detection, reports=reports)
    assert any("reaction" in p for p in problems)


def test_detect_rejects_recall_rising_with_the_threshold(detection):
    reports = copy.deepcopy(detection[0])
    reports[-1].recall = 2.0
    problems = _check_detect(detection, reports=reports)
    assert any("recall rises" in p for p in problems)


# --- hpo --------------------------------------------------------------------------

BUDGETS, N_INIT, SEED = (6, 5), 3, 4


@pytest.fixture(scope="module")
def search(tmp_path_factory):
    """A real two-phase search over the benchmark's space file, on a cheap
    objective, written the way ``sentinel hpo`` writes it."""
    from sentinel.cli import load_space_file

    space = load_space_file(SPACE_FILE)
    out = tmp_path_factory.mktemp("hpo")

    def objective(p):
        return (p["gru_units"] - 6) ** 2 / 10 + abs(p["learning_rate"] - 0.5)

    result = hpo.run_two_phase(space, *BUDGETS, objective, SEED, n_init=N_INIT)
    hpo.write_trials_csv(result.phase1, space, out / "p1.csv")
    hpo.write_trials_csv(result.phase2, hpo.phase2_space(space), out / "p2.csv")
    best = {"params": result.best_params, "objective": result.best_objective}
    return (checks.read_trials(out / "p1.csv"), checks.read_trials(out / "p2.csv"),
            json.loads(json.dumps(best)))


def _check_hpo(trials1, trials2, best, budgets=BUDGETS):
    return checks.check_hpo(checks.read_space(SPACE_FILE),
                            ("gru_units", "gru_layers", "window_size"),
                            trials1, trials2, best, budgets, N_INIT, SEED)


def test_hpo_accepts_the_program_outputs(search):
    assert _check_hpo(*search) == []


def test_hpo_rejects_a_trial_outside_its_space(search):
    trials1, trials2, best = search
    trials2 = [dict(t) for t in trials2]
    trials2[-1]["window_size"] = "61"
    problems = _check_hpo(trials1, trials2, best)
    assert any("window_size=61 outside" in p for p in problems)


def test_hpo_rejects_a_warmup_point_that_is_not_the_sobol_point(search):
    trials1, trials2, best = search
    trials1 = [dict(t) for t in trials1]
    trials1[1]["learning_rate"] = repr(float(trials1[1]["learning_rate"]) * (1 + 1e-9))
    problems = _check_hpo(trials1, trials2, best)
    assert any("warm-up trial 1" in p for p in problems)


def test_hpo_rejects_a_best_that_is_not_the_minimum(search):
    trials1, trials2, best = search
    worse = {"params": best["params"], "objective": best["objective"] + 0.1}
    problems = _check_hpo(trials1, trials2, worse)
    assert any("is not the minimum" in p for p in problems)


def test_hpo_rejects_a_trial_count_off_the_budget(search):
    trials1, trials2, best = search
    problems = _check_hpo(trials1[:-1], trials2, best)
    assert any("budget 6" in p for p in problems)
