"""The four workloads: what each builds during set-up, what it times, and
how its outputs are checked.

Every input is generated here from the run's seed; the program receives
only those files and objects. Program functions are always called through
their module (``train.fit``, not a from-import) so that the traced run's
wrappers see the calls.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from sentinel import cli, data, evaluate, nn, preprocess, synth, train

import checks

HERE = Path(__file__).resolve().parent
SPACE_FILE = HERE / "hpo_space.ini"

# Criterion-4 corpus of the acceptance suite (lengths, pattern, noise).
CORPUS = dict(length_range=(1700, 1900), onset_lead=750, noise_coef=0.85,
              bp_drop_fraction=0.35, hr_rise_fraction=0.18,
              hr_drop_fraction=0.30, hr_noise_std=1.5, bp_noise_std=2.0)
# Criterion-3 corpus: default signal, planted gaps and spikes; recording
# lengths as in criterion 4.
CORRUPTED = dict(length_range=(1700, 1900), gap_probability=0.004,
                 spike_probability=0.004, spike_sigma=30.0)
# The paper's model: two bidirectional layers of 32 units over 100 samples.
SPEC = dict(num_layers=2, units=[32, 32], bidirectional=True, window_size=100)
TRAINING = dict(window_size=100, stride=40, positive_horizon=750, batch_size=16)
PHASE2_DIMS = ("gru_units", "gru_layers", "window_size")


@dataclass
class Measured:
    """What one pass over a workload's timed phases produced."""

    rounds: int = 0
    phase_rounds: dict[str, int] = field(default_factory=dict)
    round_items: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, other: "Measured") -> None:
        """Fold another pass's rounds into this one."""
        self.rounds += other.rounds
        for phase, n in other.phase_rounds.items():
            self.phase_rounds[phase] = self.phase_rounds.get(phase, 0) + n
        self.round_items += other.round_items
        self.round_s += other.round_s
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def items_per_s(self) -> float:
        """Median over the rounds of work items per second (0 if none ran)."""
        rates = [n / s for n, s in zip(self.round_items, self.round_s)]
        return statistics.median(rates) if rates else 0.0


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


def _synthesize(out: Path, seed: int, per_class: int, corrupt: bool = False):
    cfg = synth.SynthConfig(n_syncope=per_class, n_nosyncope=per_class,
                            seed=seed, **(CORRUPTED if corrupt else CORPUS))
    return synth.generate_dataset(cfg, out)


def _cleaned_corpus(work: Path, seed: int, per_class: int) -> None:
    """Synthesize, clean and write a corpus as ``work/clean/{train,test}``."""
    _synthesize(work / "raw", seed, per_class)
    catalog = data.scan_dataset(work / "raw")
    split, _ = preprocess.preprocess_pipeline(
        catalog, preprocess.PreprocessConfig(), seed=seed)
    for side, series in (("train", split.train), ("test", split.test)):
        for s in series:
            preprocess.save_clean_series(s, work / "clean" / side / f"{s.id}.csv")


class Workload:
    """A workload's inputs live under ``work``; ``setup`` builds them,
    ``measure`` times one round, ``check`` inspects the last round."""

    name = ""
    MIN_ROUNDS = 1  # rounds a run does even when they outlast its seconds

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, set_phase) -> Measured:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def extras(self, m: Measured) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed next to the metrics."""
        raise NotImplementedError

    def _next_out(self) -> Path:
        """A fresh run directory for the next round; the previous round's
        is removed first, so only the last round's outputs remain."""
        if self.runs:
            shutil.rmtree(self._out(self.runs - 1), ignore_errors=True)
        self.runs += 1
        return self._out(self.runs - 1)

    def _out(self, k: int) -> Path:
        return self.work / f"{self.name}{k}"


class Ingest(Workload):
    """``sentinel preprocess`` in-process over a corrupted raw corpus."""

    name = "ingest"
    PER_CLASS = 20

    def setup(self):
        self.raw = self.work / "raw"
        self.truth = _synthesize(self.raw, self.seed, self.PER_CLASS, corrupt=True)
        self.runs = 0

    def measure(self, set_phase):
        set_phase("ingest")
        n_records = len(self.truth.ids)
        m = Measured(rounds=1, phase_rounds={"ingest": 1}, attempted=n_records)
        out = self._next_out()
        argv = ["preprocess", "--data", str(self.raw), "--out", str(out),
                "--seed", str(self.seed), "--log-level", "warning"]
        t0 = perf_counter()
        code = cli.main(argv)
        dt = perf_counter() - t0
        if code != 0:
            m.failed = n_records
            return m
        with open(out / "drop_report.csv", encoding="utf-8") as fh:
            m.failed = sum(1 for _ in fh) - 1
        m.round_items.append(self._cleaned_samples(out))
        m.round_s.append(dt)
        return m

    @staticmethod
    def _cleaned_samples(out: Path) -> int:
        total = 0
        for path in (out / "clean").rglob("*.csv"):
            with open(path, encoding="utf-8") as fh:
                total += sum(1 for line in fh if not line.startswith("#")) - 1
        return total

    def check(self):
        out = self._out(self.runs - 1)
        rate = synth.SynthConfig().rate_hz
        raw = {p.stem: checks.read_raw_recording(p, rate)
               for p in sorted(self.raw.glob("*/*.csv"))}
        clean = {}
        for path in sorted((out / "clean").rglob("*.csv")):
            series = checks.read_clean_series(path)
            clean[series["meta"]["id"]] = series
        with open(self.truth.truth_path, encoding="utf-8") as fh:
            truth = json.load(fh)["series"]
        problems = checks.check_ingest(raw, clean, truth, preprocess.TRIM_HEAD,
                                       preprocess.minmax_denormalize)
        replay = self.work / "replay"
        if cli.replay_run(out / "run.json", replay) != 0:
            problems.append("replay_run exited non-zero")
        return problems + checks.compare_trees(out, replay)

    def extras(self, m):
        return {"ingest_samples_per_s": (m.items_per_s, "samples/s")}


class Train(Workload):
    """``fit`` of the paper's model for a fixed number of epochs, then
    ``save_checkpoint``."""

    name = "train"
    PER_CLASS = 5
    EPOCHS = 2

    def setup(self):
        _cleaned_corpus(self.work, self.seed, self.PER_CLASS)
        self.series = preprocess.load_clean_dir(self.work / "clean" / "train")
        self.spec = nn.ModelSpec(**SPEC)
        self.cfg = train.TrainConfig(epochs=self.EPOCHS, seed=self.seed, **TRAINING)
        self.ckpt = self.work / "model.ckpt"

    def measure(self, set_phase):
        set_phase("train")
        m = Measured(rounds=1, phase_rounds={"train": 1}, attempted=1)
        split = preprocess.SplitDataset(train=self.series, test=[], seed=self.seed)
        t0 = perf_counter()
        try:
            model, state, history = train.fit(split, self.spec, self.cfg)
            train.save_checkpoint(model, self.ckpt, optimizer=state)
        except Exception:
            _report_failure("fit")
            m.failed = 1
            return m
        dt = perf_counter() - t0
        self.model, self.history = model, history
        m.round_items.append(history.n_windows * self.EPOCHS)
        m.round_s.append(dt)
        return m

    def check(self):
        model = self.model
        rng = np.random.default_rng(self.seed)
        ws = train.build_window_set(self.series, self.cfg)
        # one window of each class plus two at random
        picks = [int(rng.choice(np.flatnonzero(ws.labels == c))) for c in (0, 1)]
        picks += [int(i) for i in rng.choice(len(ws), size=2, replace=False)]
        windows, targets = ws.inputs[picks], ws.labels[picks]
        _, cache = nn.forward_batch(model, windows)
        analytic = nn.backward_batch(model, cache, targets)

        def loss():
            probs, _ = nn.forward_batch(model, windows, need_cache=False)
            return float(-np.log(np.maximum(
                probs[np.arange(len(targets)), targets], 1e-12)).mean())

        step = 1e-5
        numeric = {}
        for name, p in model.parameters():
            flat = p.reshape(-1)
            entries = {int(np.argmax(np.abs(analytic[name]).reshape(-1)))}
            entries.update(int(i) for i in rng.choice(flat.size, size=2))
            numeric[name] = {}
            for i in sorted(entries):
                orig = flat[i]
                flat[i] = orig + step
                up = loss()
                flat[i] = orig - step
                down = loss()
                flat[i] = orig
                numeric[name][np.unravel_index(i, p.shape)] = (up - down) / (2 * step)
        problems = checks.check_train(self.history.epoch_losses, analytic, numeric)
        saved = train.load_checkpoint(self.ckpt)
        for (name, a), (_, b) in zip(model.parameters(), saved.parameters()):
            if not np.array_equal(a, b):
                problems.append(f"checkpoint does not round-trip {name}")
        return problems

    def extras(self, m):
        return {"train_windows_per_s": (m.items_per_s, "windows/s")}


class Detect(Workload):
    """The ``sentinel sweep`` path and a batch-1 monitor replay, taking turns.

    A round is one sweep, then the next 250 windows of a series streamed
    sample by sample; the turns spread both over the whole run, so that
    both meet the same spells of machine speed. A run does at least four
    rounds, so the monitor scores at least 1,000 windows. The work rate is
    the sweep's; monitor latency is reported apart (see the README for why
    it is not gated).
    """

    name = "detect"
    PER_CLASS = 5
    MONITOR_CHUNK = 250
    MIN_ROUNDS = 4

    def setup(self):
        _cleaned_corpus(self.work, self.seed, self.PER_CLASS)
        train_series = preprocess.load_clean_dir(self.work / "clean" / "train")
        cfg = train.TrainConfig(epochs=1, seed=self.seed, **TRAINING)
        model, _, _ = train.fit(
            preprocess.SplitDataset(train=train_series, test=[], seed=self.seed),
            nn.ModelSpec(**SPEC), cfg)
        self.ckpt = self.work / "model.ckpt"
        train.save_checkpoint(model, self.ckpt)
        self.test_dir = self.work / "clean" / "test"
        self.buffer = np.empty((1, SPEC["window_size"], 2))
        self.next_sample = 0
        self.monitored: list[tuple[int, float]] = []  # (end index, P(syncope))
        self.latency_s: list[float] = []  # per monitored window

    def measure(self, set_phase):
        set_phase("sweep")
        m = Measured(rounds=1, phase_rounds={"sweep": 1, "monitor": 1})
        t0 = perf_counter()
        try:
            model = train.load_checkpoint(self.ckpt)
            series = preprocess.load_clean_dir(self.test_dir)
            reports = evaluate.threshold_sweep(
                model, series, evaluate.default_threshold_grid())
            evaluate.write_sweep_csv(reports, self.work / "sweep.csv")
        except Exception:
            _report_failure("sweep")
            m.failed = m.attempted = 1
            return m
        dt = perf_counter() - t0
        window = model.spec.window_size
        m.attempted = len(series)
        m.round_items.append(sum(len(s) - window + 1 for s in series))
        m.round_s.append(dt)
        self.model, self.series, self.reports = model, series, reports
        set_phase("monitor")
        self._monitor(model, series, m)
        return m

    def _monitor(self, model, series, m: Measured) -> None:
        """Stream the next windows of the syncope test series; after its
        last sample the stream starts again from its first."""
        streamed = next(s for s in series if s.label is data.Label.SYNCOPE)
        self.monitor_id = streamed.id
        samples = streamed.window_input()
        window = model.spec.window_size
        buffer = self.buffer
        scored = 0
        while scored < self.MONITOR_CHUNK:
            if self.next_sample == len(samples):
                self.next_sample = 0
            t = self.next_sample
            self.next_sample += 1
            t0 = perf_counter()
            buffer[0, :-1] = buffer[0, 1:]
            buffer[0, -1] = samples[t]
            if t >= window - 1:
                p, _ = nn.forward_batch(model, buffer, need_cache=False)
                self.latency_s.append(perf_counter() - t0)
                self.monitored.append((t, float(p[0, 1])))
                scored += 1
        m.attempted += scored

    def check(self):
        traces = {s.id: evaluate.series_probabilities(self.model, s)
                  for s in self.series}
        info = {s.id: (s.label is data.Label.SYNCOPE, s.marker_index, s.rate_hz)
                for s in self.series}
        return checks.check_detect(self.reports, info, traces,
                                   self.model.spec.window_size,
                                   self.monitor_id, self.monitored)

    def extras(self, m):
        ms = [1e3 * s for s in self.latency_s]
        return {
            "trace_windows_per_s": (m.items_per_s, "windows/s"),
            "monitor_ms_p50": (statistics.median(ms), "ms"),
            "monitor_ms_p99": (float(np.percentile(ms, 99)), "ms"),
            "monitor_samples": (len(ms), "count"),
        }


class Hpo(Workload):
    """``sentinel hpo --phase both`` in-process over a narrowed space."""

    name = "hpo"
    PER_CLASS = 6
    BUDGET1, BUDGET2, N_INIT, EPOCHS = 8, 6, 4, 2

    def setup(self):
        _cleaned_corpus(self.work, self.seed, self.PER_CLASS)
        self.train_dir = self.work / "clean" / "train"
        self.runs = 0

    def measure(self, set_phase):
        set_phase("hpo")
        budget = self.BUDGET1 + self.BUDGET2
        m = Measured(rounds=1, phase_rounds={"hpo": 1}, attempted=budget)
        out = self._next_out()
        argv = ["hpo", "--train-dir", str(self.train_dir), "--out", str(out),
                "--seed", str(self.seed), "--phase", "both",
                "--budget", str(self.BUDGET1), "--budget2", str(self.BUDGET2),
                "--n-init", str(self.N_INIT), "--epochs", str(self.EPOCHS),
                "--stride", str(TRAINING["stride"]),
                "--space", str(SPACE_FILE), "--log-level", "warning"]
        t0 = perf_counter()
        code = cli.main(argv)
        dt = perf_counter() - t0
        if code != 0:
            m.failed = budget
            return m
        trials = (checks.read_trials(out / "trials_phase1.csv")
                  + checks.read_trials(out / "trials_phase2.csv"))
        m.failed = sum(t["status"] != "done" for t in trials)
        m.round_items.append(len(trials))
        m.round_s.append(dt)
        return m

    def check(self):
        out = self._out(self.runs - 1)
        return checks.check_hpo(
            checks.read_space(SPACE_FILE), PHASE2_DIMS,
            checks.read_trials(out / "trials_phase1.csv"),
            checks.read_trials(out / "trials_phase2.csv"),
            json.loads((out / "best.json").read_text(encoding="utf-8")),
            (self.BUDGET1, self.BUDGET2), self.N_INIT, self.seed)

    def extras(self, m):
        return {"hpo_trials_per_min": (60.0 * m.items_per_s, "trials/min")}


WORKLOADS = {w.name: w for w in (Ingest, Train, Detect, Hpo)}
