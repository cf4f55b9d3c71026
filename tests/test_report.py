"""Every result table the program writes renders through ``report.render_csv``,
and rendering is deterministic."""

import numpy as np

from sentinel import evaluate, hpo, nn, train
from sentinel.data import Label
from sentinel.preprocess import CleanSeries
from sentinel.report import render_csv


def result_tables(directory, monkeypatch):
    """Write each layout ``render_csv`` knows through the writer the
    commands use, and return the paths."""
    paths = {name: directory / f"{name}.csv" for name in
             ("loss", "sweep", "trials_phase1", "trials_phase2", "pd_1d", "pd_2d")}
    train.save_loss_trace([0.69, 0.52, 0.47], paths["loss"])

    series = [CleanSeries(id=sid, label=label, mbp=np.zeros(300), hr=np.zeros(300),
                          marker_index=marker, rate_hz=1.25,
                          norm_params={"mBP": (60.0, 110.0), "HR": (50.0, 120.0)})
              for sid, label, marker in (("sy", Label.SYNCOPE, 280), ("no", Label.NOSYNCOPE, None))]
    ramp = np.linspace(0.0, 1.0, 201)
    traces = {"sy": ramp, "no": 0.5 * ramp[::-1]}
    monkeypatch.setattr(evaluate, "series_probabilities",
                        lambda model, s, rule=None: traces[s.id])
    model = nn.init_params(nn.ModelSpec(1, [4], False, 100), seed=0)
    evaluate.write_sweep_csv(
        evaluate.threshold_sweep(model, series, evaluate.default_threshold_grid()),
        paths["sweep"])

    space = hpo.default_space()
    calls = []

    def objective(params):  # the third trial fails, so the log holds both statuses
        calls.append(params)
        if len(calls) == 3:
            raise RuntimeError("diverged")
        return float(np.mean(space.to_unit(params) ** 2))

    result = hpo.run_two_phase(space, 4, 3, objective, seed=5, n_init=2)
    assert {t.status for t in result.phase1} == {"done", "failed"}
    hpo.write_trials_csv(result.phase1, space, paths["trials_phase1"])
    hpo.write_trials_csv(result.phase2, hpo.phase2_space(space), paths["trials_phase2"])

    surr = hpo.observe(hpo.Surrogate(space, seed=5), [t.params for t in result.phase1],
                       [t.objective for t in result.phase1])
    hpo.write_pd_csv(hpo.partial_dependence(surr, [0]), paths["pd_1d"])
    hpo.write_pd_csv(hpo.partial_dependence(surr, [0, 1]), paths["pd_2d"])
    return paths


def test_every_result_table_renders_the_same_bytes_twice(tmp_path, monkeypatch):
    paths = result_tables(tmp_path, monkeypatch)
    for name, path in paths.items():
        rendered = render_csv(path)
        assert rendered is not None, f"{name}: unrecognized layout"
        title, svg = rendered
        assert title == name and svg.startswith("<svg")
        assert render_csv(path) == rendered, f"{name}: rendered differently twice"
    # the 2-D grid draws the heat map, the others lines
    assert "(light) to" in render_csv(paths["pd_2d"])[1]
    assert all("<polyline" in render_csv(paths[name])[1]
               for name in ("loss", "sweep", "trials_phase1", "trials_phase2", "pd_1d"))

