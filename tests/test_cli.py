"""Config resolution, command dispatch, exit codes, provenance records,
and bit-identical replay of recorded runs."""

import argparse
import filecmp
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from sentinel import cli, hpo
from sentinel.cli import (
    COMMANDS,
    RunConfig,
    build_parser,
    dispatch,
    exit_code_for,
    load_run_record,
    load_space_file,
    main,
    parse_model_spec,
    read_config_file,
    replay_run,
    resolve_config,
)
from sentinel.errors import (
    AllTrialsFailed,
    ConfigInvalid,
    CorruptCheckpoint,
    EmptyDataset,
    NonFiniteLoss,
    UnknownCommand,
)
from sentinel.train import load_checkpoint


class TestResolveConfig:
    def test_defaults(self):
        cfg = resolve_config("synth")
        assert cfg["n_syncope"] == 8
        assert cfg["seed"] == 0
        assert cfg["out"] == str(Path("runs") / "synth")
        assert cfg["corrupt"] is False

    def test_file_beats_default_and_flag_beats_file(self, tmp_path):
        ini = tmp_path / "settings.ini"
        ini.write_text("[global]\nseed = 5\n[synth]\nn_syncope = 3\n")
        file_values = read_config_file(ini)
        cfg = resolve_config("synth", file_values)
        assert cfg["seed"] == 5 and cfg["n_syncope"] == 3
        cfg = resolve_config("synth", file_values, {"n_syncope": 11})
        assert cfg["n_syncope"] == 11 and cfg["seed"] == 5

    def test_unknown_key_named(self, tmp_path):
        ini = tmp_path / "settings.ini"
        ini.write_text("[train]\nwyndow = 9\n")
        with pytest.raises(ConfigInvalid, match="wyndow"):
            read_config_file(ini)

    def test_unknown_section_rejected(self, tmp_path):
        ini = tmp_path / "settings.ini"
        ini.write_text("[trainer]\nepochs = 2\n")
        with pytest.raises(ConfigInvalid, match="trainer"):
            read_config_file(ini)

    def test_bad_typed_value_named(self, tmp_path):
        ini = tmp_path / "settings.ini"
        ini.write_text("[train]\nepochs = soon\n")
        with pytest.raises(ConfigInvalid, match="epochs"):
            read_config_file(ini)

    def test_bool_words(self, tmp_path):
        ini = tmp_path / "settings.ini"
        ini.write_text("[synth]\ncorrupt = yes\n")
        assert read_config_file(ini)["synth"]["corrupt"] is True

    def test_evaluate_requires_model(self):
        with pytest.raises(ConfigInvalid, match="model"):
            resolve_config("evaluate", flag_values={"data": "somewhere"})

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("SENTINEL_SEED", "42")
        assert resolve_config("synth")["seed"] == 42
        assert resolve_config("synth", flag_values={"seed": 9})["seed"] == 9
        monkeypatch.setenv("SENTINEL_SEED", "many")
        with pytest.raises(ConfigInvalid, match="SENTINEL_SEED"):
            resolve_config("synth")

    def test_unknown_command(self):
        with pytest.raises(UnknownCommand):
            resolve_config("trane")

    def test_bad_log_level(self):
        with pytest.raises(ConfigInvalid, match="log_level"):
            resolve_config("synth", flag_values={"log_level": "chatty"})

    def test_exit_code_mapping(self):
        assert exit_code_for(ConfigInvalid("x")) == 2
        assert exit_code_for(EmptyDataset("x")) == 3
        assert exit_code_for(NonFiniteLoss("x")) == 4
        assert exit_code_for(AllTrialsFailed("x")) == 4
        assert exit_code_for(CorruptCheckpoint("x")) == 3


# every resolved setting of each command and its type, with the required
# settings given as REQUIRED: most defaults come from the library's config
# dataclasses, so a default changed there shows up here as a CLI change
REQUIRED = {
    "preprocess": {"data": "d"}, "train": {"train_dir": "t"},
    "evaluate": {"model": "m", "data": "d"}, "sweep": {"model": "m", "data": "d"},
    "hpo": {"train_dir": "t"}, "report": {"inputs": "i"},
}
GOLDEN_VALUES = {
    "synth": {
        "n_syncope": 8, "n_nosyncope": 8, "length_min": 2000, "length_max": 4000,
        "onset_lead": 750, "rate_hz": 1.25, "corrupt": False,
        "gap_probability": 0.01, "spike_probability": 0.01,
    },
    "preprocess": {
        "data": "d", "rate_hz": 1.25, "median_window": 31,
        "outlier_threshold": 3.0, "outlier_decay": 0.8, "outlier_iters": 5,
        "train_fraction": 0.8, "exclude_conflicts": True,
    },
    "train": {
        "train_dir": "t", "spec": "2x32b", "window": 100, "stride": 10,
        "horizon": 750, "batch": 16, "epochs": 50, "rho": 0.95,
        "epsilon": 1e-6, "learning_rate": 1.0, "lr_decay": 1.0,
    },
    "evaluate": {"model": "m", "data": "d", "threshold": 0.5,
                 "consecutive": 1, "beta": 1.0},
    "sweep": {"model": "m", "data": "d", "grid": "", "consecutive": 1,
              "beta": 1.0},
    "hpo": {
        "train_dir": "t", "phase": "both", "budget": 16, "budget2": 8,
        "n_init": 8, "epochs": 5, "inner_fraction": 0.8, "stride": 10,
        "horizon": 750, "bidirectional": True, "space": "", "phase1_log": "",
    },
    "report": {"inputs": "i"},
}
GOLDEN_FLAGS = {
    "synth": {"--n-syncope", "--n-nosyncope", "--length-min", "--length-max",
              "--onset-lead", "--rate-hz", "--corrupt", "--no-corrupt",
              "--gap-probability", "--spike-probability"},
    "preprocess": {"--data", "--rate-hz", "--median-window",
                   "--outlier-threshold", "--outlier-decay", "--outlier-iters",
                   "--train-fraction", "--exclude-conflicts",
                   "--no-exclude-conflicts"},
    "train": {"--train-dir", "--spec", "--window", "--stride", "--horizon",
              "--batch", "--epochs", "--rho", "--epsilon", "--learning-rate",
              "--lr-decay"},
    "evaluate": {"--model", "--data", "--threshold", "--consecutive", "--beta"},
    "sweep": {"--model", "--data", "--grid", "--consecutive", "--beta"},
    "hpo": {"--train-dir", "--phase", "--budget", "--budget2", "--n-init",
            "--epochs", "--inner-fraction", "--stride", "--horizon",
            "--bidirectional", "--no-bidirectional", "--space", "--phase1-log"},
    "report": {"--inputs"},
}


def command_parsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


class TestSettingsSurface:
    def test_commands(self):
        assert COMMANDS == tuple(GOLDEN_VALUES)

    @pytest.mark.parametrize("command", list(GOLDEN_VALUES))
    def test_resolved_defaults_and_types(self, command, monkeypatch):
        monkeypatch.delenv("SENTINEL_SEED", raising=False)
        values = resolve_config(command,
                                flag_values=REQUIRED.get(command)).values
        want = {"out": str(Path("runs") / command), "seed": 0,
                "log_level": "info", **GOLDEN_VALUES[command]}
        assert values == want
        assert {k: type(v) for k, v in values.items()} == \
            {k: type(v) for k, v in want.items()}

    @pytest.mark.parametrize("command", list(GOLDEN_FLAGS))
    def test_accepted_flags(self, command):
        flags = {flag for action in command_parsers()[command]._actions
                 for flag in action.option_strings}
        common = {"-h", "--help", "--config", "--out", "--seed", "--log-level"}
        assert flags == common | GOLDEN_FLAGS[command]


def documented_commands(text: str) -> list[str]:
    """The ``sentinel ...`` lines of a shell text, continuations joined."""
    joined = re.sub(r"\\\n\s*", " ", text)
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("sentinel ")]


class TestDocumentedCommandsParse:
    ROOT = Path(__file__).resolve().parents[1]

    def readme_commands(self):
        text = (self.ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
        return documented_commands(section)

    def demo_commands(self):
        text = (self.ROOT / "demos" / "cli_walkthrough.sh").read_text(encoding="utf-8")
        return documented_commands(text)

    @pytest.mark.parametrize("source, at_least", [("readme", 8), ("demo", 6)])
    def test_every_documented_command_parses(self, source, at_least):
        lines = getattr(self, f"{source}_commands")()
        assert len(lines) >= at_least
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"{source} command does not parse: {line}")


class TestModelSpecNotation:
    def test_bidirectional(self):
        spec = parse_model_spec("2x32b", window=100)
        assert spec.num_layers == 2
        assert spec.units == [32, 32]
        assert spec.bidirectional
        assert spec.window_size == 100

    def test_vanilla(self):
        spec = parse_model_spec("1x8", window=40)
        assert spec.num_layers == 1 and spec.units == [8]
        assert not spec.bidirectional

    def test_garbage_rejected(self):
        for text in ("x", "2x", "ax8", "2x32bb", ""):
            with pytest.raises(ConfigInvalid):
                parse_model_spec(text, window=40)


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

# a phase-1 space with one dimension that phase 2 pins
PINNED_SPACE_INI = SPACE_INI + """
[learning_rate]
kind = log-real
lower = 0.3
upper = 1.0
"""
LOG_HEADER = "trial,gru_units,window_size,learning_rate,objective,status"


class TestSpaceFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "space.ini"
        path.write_text(SPACE_INI)
        space = load_space_file(path)
        assert space.names == ["gru_units", "window_size"]
        assert space.dimensions[0].kind == "integer"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "space.ini"
        path.write_text("[gru_units]\nkind = integer\nlower = 1\nupper = 3\nstep = 2\n")
        with pytest.raises(ConfigInvalid, match="step"):
            load_space_file(path)

    def test_missing_bounds_rejected(self, tmp_path):
        path = tmp_path / "space.ini"
        path.write_text("[gru_units]\nkind = integer\nlower = 1\n")
        with pytest.raises(ConfigInvalid):
            load_space_file(path)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> preprocess -> train chain shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run_cli(
        "synth", "--out", root / "synth", "--seed", 3,
        "--n-syncope", 6, "--n-nosyncope", 6,
        "--length-min", 1400, "--length-max", 1600,
        "--onset-lead", 300, "--corrupt", "--log-level", "warning",
    ) == 0
    assert run_cli(
        "preprocess", "--out", root / "prep",
        "--data", root / "synth" / "data",
        "--seed", 3, "--log-level", "warning",
    ) == 0
    assert run_cli(
        "train", "--out", root / "train",
        "--train-dir", root / "prep" / "clean" / "train",
        "--spec", "1x8", "--window", 60, "--stride", 80, "--epochs", 2,
        "--seed", 3, "--log-level", "warning",
    ) == 0
    return root


class TestPipelineSmoke:
    def test_synth_outputs(self, pipeline):
        data = pipeline / "synth" / "data"
        assert (data / "manifest.csv").exists()
        assert (data / "ground_truth.json").exists()
        assert len(list((data / "syncope").glob("*.csv"))) == 6

    def test_preprocess_outputs(self, pipeline):
        prep = pipeline / "prep"
        assert list((prep / "clean" / "train").glob("*.csv"))
        assert list((prep / "clean" / "test").glob("*.csv"))
        header = (prep / "drop_report.csv").read_text().splitlines()[0]
        assert header == "stage,series_id,reason"

    def test_train_outputs_loadable(self, pipeline):
        model = load_checkpoint(pipeline / "train" / "model.ckpt")
        assert model.spec.units == [8]
        loss_lines = (pipeline / "train" / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 3

    def test_evaluate_and_outputs(self, pipeline):
        out = pipeline / "eval"
        assert run_cli(
            "evaluate", "--out", out,
            "--model", pipeline / "train" / "model.ckpt",
            "--data", pipeline / "prep" / "clean" / "test",
            "--threshold", 0.6, "--log-level", "warning",
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["threshold"] == 0.6
        assert set(summary["confusion"]) == {"tp", "fp", "fn", "tn"}
        report_lines = (out / "report.csv").read_text().splitlines()
        assert report_lines[0] == "series_id,label,detected,detection_index,reaction_s"
        assert len(report_lines) == summary["n_series"] + 1

    def test_sweep_defaults_to_19_thresholds(self, pipeline):
        out = pipeline / "sweep"
        assert run_cli(
            "sweep", "--out", out,
            "--model", pipeline / "train" / "model.ckpt",
            "--data", pipeline / "prep" / "clean" / "test",
            "--log-level", "warning",
        ) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 20
        assert lines[1].startswith("0.05,")

    def test_hpo_phase1_outputs(self, pipeline, tmp_path):
        space = tmp_path / "space.ini"
        space.write_text(SPACE_INI)
        out = pipeline / "hpo"
        assert run_cli(
            "hpo", "--out", out,
            "--train-dir", pipeline / "prep" / "clean" / "train",
            "--space", space, "--phase", "1",
            "--budget", 3, "--n-init", 2, "--epochs", 1, "--stride", 80,
            "--seed", 5, "--log-level", "warning",
        ) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,gru_units,window_size,objective,status"
        assert len(lines) == 4
        best = json.loads((out / "best.json").read_text())
        assert set(best) == {"objective", "params"}
        assert (out / "pd_gru_units.csv").exists()
        assert (out / "pd_gru_units_window_size.csv").exists()

    def test_hpo_both_fits_partial_dependence_once_with_phase2_seed(
            self, pipeline, tmp_path, monkeypatch):
        fits = []  # (surrogate seed, observations) per GP fit
        fit = hpo._fit_hyperparameters

        def counted(surr):
            fits.append((surr.seed, surr.n_observed))
            fit(surr)

        monkeypatch.setattr(hpo, "_fit_hyperparameters", counted)
        space = tmp_path / "space.ini"
        space.write_text(SPACE_INI)
        out = pipeline / "hpo_both"
        assert run_cli(
            "hpo", "--out", out,
            "--train-dir", pipeline / "prep" / "clean" / "train",
            "--space", space, "--phase", "both",
            "--budget", 3, "--budget2", 2, "--n-init", 2, "--epochs", 1,
            "--stride", 80, "--seed", 5, "--log-level", "warning",
        ) == 0
        # one refit per observed trial in each phase (phase 2 searches with
        # seed + 1), then a single fit over phase 2's trials for the pd files
        assert fits == [(5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 2)]
        assert (out / "pd_gru_units_window_size.csv").exists()

    def test_hpo_phase1_then_phase2_equals_both(self, pipeline, tmp_path):
        space = tmp_path / "space.ini"
        space.write_text(PINNED_SPACE_INI)
        common = ["--train-dir", pipeline / "prep" / "clean" / "train",
                  "--space", space, "--n-init", 2, "--epochs", 1,
                  "--stride", 80, "--seed", 5, "--log-level", "warning"]
        p1, p2, both = tmp_path / "p1", tmp_path / "p2", tmp_path / "both"
        assert run_cli("hpo", "--out", p1, "--phase", "1", "--budget", 3,
                       *common) == 0
        assert run_cli("hpo", "--out", p2, "--phase", "2", "--budget2", 2,
                       "--phase1-log", p1 / "trials.csv", *common) == 0
        assert run_cli("hpo", "--out", both, "--phase", "both", "--budget", 3,
                       "--budget2", 2, *common) == 0
        pairs = [(p1 / "trials.csv", both / "trials_phase1.csv"),
                 (p2 / "trials.csv", both / "trials_phase2.csv"),
                 (p2 / "best.json", both / "best.json")]
        pd_names = sorted(p.name for p in both.glob("pd_*.csv"))
        assert pd_names == sorted(p.name for p in p2.glob("pd_*.csv"))
        assert pd_names == ["pd_gru_units.csv", "pd_gru_units_window_size.csv",
                            "pd_window_size.csv"]
        pairs += [(p2 / name, both / name) for name in pd_names]
        for split, joint in pairs:
            assert split.read_bytes() == joint.read_bytes(), split.name

    def test_hpo_phase2_with_another_seed_than_phase1_exits_2(
            self, pipeline, tmp_path, monkeypatch, capsys):
        space = tmp_path / "space.ini"
        space.write_text(PINNED_SPACE_INI)
        common = ["--train-dir", pipeline / "prep" / "clean" / "train",
                  "--space", space, "--n-init", 2, "--epochs", 1,
                  "--stride", 80, "--log-level", "warning"]
        p1 = tmp_path / "p1"
        assert run_cli("hpo", "--out", p1, "--phase", "1", "--budget", 2,
                       "--seed", 5, *common) == 0
        fits = []
        monkeypatch.setattr(cli, "fit", lambda *a, **k: fits.append(a))
        capsys.readouterr()
        code = run_cli("hpo", "--out", tmp_path / "p2", "--phase", "2",
                       "--budget2", 2, "--seed", 7,
                       "--phase1-log", p1 / "trials.csv", *common)
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigInvalid"
        assert "seed 5" in err["message"] and "seed 7" in err["message"]
        assert fits == []

    def test_report_renders_html_and_svg(self, pipeline):
        out = pipeline / "report"
        assert run_cli(
            "report", "--out", out,
            "--inputs", f"{pipeline / 'sweep' / 'sweep.csv'},"
                        f"{pipeline / 'train' / 'loss.csv'}",
            "--log-level", "warning",
        ) == 0
        html = (out / "index.html").read_text()
        assert "<svg" in html and "sweep" in html and "loss" in html
        assert (out / "sweep.svg").read_text().startswith("<svg")
        assert (out / "loss.svg").exists()

    def test_run_record_contents(self, pipeline):
        record = load_run_record(pipeline / "train" / "run.json")
        assert record["command"] == "train"
        assert record["seed"] == 3
        assert record["config"]["spec"] == "1x8"
        assert record["config"]["epochs"] == 2
        assert set(record["versions"]) == {"python", "numpy", "scipy", "sentinel",
                                           "blas"}
        blas = record["versions"]["blas"]
        assert blas is None or (set(blas) == {"library", "threads"}
                                and "openblas" in blas["library"]
                                and blas["threads"] >= 1)
        for rel in record["outputs"]:
            assert (pipeline / "train" / rel).exists()
        assert record["outputs"] == sorted(record["outputs"])


def replay_matches(run_dir: Path, new_dir: Path) -> bool:
    replay_run(run_dir / "run.json", new_dir)
    originals = {
        p.relative_to(run_dir).as_posix(): p
        for p in run_dir.rglob("*") if p.is_file() and p.name != "run.json"
    }
    replays = {
        p.relative_to(new_dir).as_posix(): p
        for p in new_dir.rglob("*") if p.is_file() and p.name != "run.json"
    }
    if originals.keys() != replays.keys():
        return False
    return all(filecmp.cmp(originals[rel], replays[rel], shallow=False)
               for rel in originals)


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file but run.json."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "run.json"):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class TestPreprocessGolden:
    def test_golden_output_tree(self, tmp_path):
        # parser, trim (three series too short), gap fill, outlier removal
        # with its median filter, normalization, balance, split and the
        # cleaned-CSV writer, pinned: none of them uses BLAS, so these bytes
        # are the same on every machine
        assert run_cli(
            "synth", "--out", tmp_path / "synth", "--seed", 31,
            "--n-syncope", 5, "--n-nosyncope", 5,
            "--length-min", 950, "--length-max", 1300, "--onset-lead", 100,
            "--corrupt", "--gap-probability", 0.01, "--spike-probability", 0.01,
            "--log-level", "warning",
        ) == 0
        assert run_cli(
            "preprocess", "--out", tmp_path / "prep",
            "--data", tmp_path / "synth" / "data",
            "--seed", 31, "--log-level", "warning",
        ) == 0
        # the synthesized channels as written by write_recording
        assert tree_digest(tmp_path / "synth") == (
            "74c8ce8c8c4262917e7ab1ff779a42160f9e355857a8ea2077bb8759bd745da9")
        report = (tmp_path / "prep" / "drop_report.csv").read_text()
        assert report.count("trim,") == 3 and report.count("balance,") == 1
        assert tree_digest(tmp_path / "prep") == (
            "a62157e5daa0d813e672741325e6733255ae5c8dcd16358fa865ec398d1d1837")


class TestReplay:
    def test_train_replay_bit_identical(self, pipeline, tmp_path):
        assert replay_matches(pipeline / "train", tmp_path / "again")

    def test_preprocess_replay_bit_identical(self, pipeline, tmp_path):
        assert replay_matches(pipeline / "prep", tmp_path / "again")

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{\"format\": \"something-else\"}")
        with pytest.raises(ConfigInvalid):
            replay_run(path, tmp_path / "out")

    def test_edited_record_with_unknown_key_rejected(self, pipeline, tmp_path):
        record = json.loads((pipeline / "train" / "run.json").read_text())
        record["config"]["wyndow"] = 9
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ConfigInvalid, match="wyndow"):
            replay_run(path, tmp_path / "out")


class TestExitCodes:
    def test_no_command_is_config_error(self, capsys):
        assert main([]) == 2
        assert "command" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[train]\nwyndow = 9\n")
        code = main(["train", "--config", str(ini),
                     "--train-dir", "x", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigInvalid"
        assert "wyndow" in err["message"]

    def test_evaluate_without_model_exits_2(self, tmp_path, capsys):
        code = main(["evaluate", "--data", "x", "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigInvalid"

    def test_missing_dataset_exits_3(self, tmp_path):
        code = main(["preprocess", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o"), "--log-level", "error"])
        assert code == 3

    def test_all_negative_training_data_exits_3(self, pipeline, tmp_path):
        only_negative = tmp_path / "neg"
        only_negative.mkdir()
        src = pipeline / "prep" / "clean" / "train"
        for path in src.glob("nos*.csv"):
            (only_negative / path.name).write_bytes(path.read_bytes())
        code = main(["train", "--train-dir", str(only_negative),
                     "--spec", "1x8", "--window", "60", "--epochs", "1",
                     "--out", str(tmp_path / "o"), "--log-level", "error"])
        assert code == 3

    def test_report_without_renderable_inputs_exits_3(self, tmp_path, capsys):
        junk = tmp_path / "junk.csv"
        junk.write_text("a,b\n1,2\n")
        code = main(["report", "--inputs", str(junk),
                     "--out", str(tmp_path / "o"), "--log-level", "error"])
        assert code == 3

    @pytest.mark.parametrize("command, args, named", [
        ("hpo", ["--inner-fraction", "1.5"], "inner_fraction"),
        ("hpo", ["--epochs", "-1"], "epochs"),
        ("hpo", ["--n-init", "-2"], "n_init"),
        ("preprocess", ["--train-fraction", "1"], "train_fraction"),
    ])
    def test_bad_setting_exits_2_before_any_work(self, pipeline, tmp_path,
                                                 monkeypatch, capsys,
                                                 command, args, named):
        fits = []
        monkeypatch.setattr(cli, "fit", lambda *a, **k: fits.append(a))
        if command == "hpo":
            space = tmp_path / "space.ini"
            space.write_text(SPACE_INI)
            inputs = ["--train-dir", pipeline / "prep" / "clean" / "train",
                      "--space", space, "--budget", 8, "--stride", 80]
        else:
            inputs = ["--data", pipeline / "synth" / "data"]
        code = run_cli(command, *inputs, *args, "--out", tmp_path / "o",
                       "--log-level", "error")
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert named in err["message"]
        assert fits == []

    @pytest.mark.parametrize("rows, named", [
        (None, "cannot read"),
        (["trial,gru_units,window_size,objective,status", "0,5,50,0.5,done"],
         "lacks column 'learning_rate'"),
        ([LOG_HEADER, "0,5,50,0.5,0.5,done", "1,6,60,0.5,abc,done"],
         "row 3: bad objective value 'abc'"),
        ([LOG_HEADER, "0,5,50,0.5,nan,done"], "row 2: objective nan"),
        ([LOG_HEADER, "0,700,50,0.5,0.5,done"], "row 2: {'gru_units': 700"),
        ([LOG_HEADER, "0,5,50,0.5,0.5,maybe"], "row 2: status 'maybe'"),
    ], ids=["missing", "phase2-log", "non-numeric", "non-finite", "outside",
            "status"])
    def test_bad_phase1_log_exits_2_before_any_work(self, pipeline, tmp_path,
                                                    monkeypatch, capsys,
                                                    rows, named):
        fits = []
        monkeypatch.setattr(cli, "fit", lambda *a, **k: fits.append(a))
        space = tmp_path / "space.ini"
        space.write_text(PINNED_SPACE_INI)
        log = tmp_path / "phase1.csv"
        if rows is not None:
            log.write_text("\n".join(rows) + "\n")
        code = run_cli("hpo", "--train-dir", pipeline / "prep" / "clean" / "train",
                       "--space", space, "--phase", "2", "--phase1-log", log,
                       "--budget", 2, "--n-init", 2, "--stride", 80,
                       "--out", tmp_path / "o", "--log-level", "error")
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ConfigInvalid"
        assert str(log) in err["message"] and named in err["message"]
        assert fits == []

    def test_report_missing_input_exits_2(self, tmp_path):
        code = main(["report", "--inputs", str(tmp_path / "ghost.csv"),
                     "--out", str(tmp_path / "o"), "--log-level", "error"])
        assert code == 2

    def test_dispatch_unknown_command_raises(self):
        with pytest.raises(UnknownCommand):
            dispatch("trane", RunConfig("trane", {"log_level": "error"}))


class TestRunDirIsolation:
    def test_no_writes_outside_run_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "elsewhere" / "run"
        assert run_cli(
            "synth", "--out", out, "--seed", 1,
            "--n-syncope", 0, "--n-nosyncope", 2,
            "--length-min", 600, "--length-max", 650, "--onset-lead", 100,
            "--log-level", "warning",
        ) == 0
        assert list(workdir.iterdir()) == []
        assert (out / "run.json").exists()
