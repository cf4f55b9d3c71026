"""Benchmark of the syncope-sentinel pipeline, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload {ingest,train,detect,hpo} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced rounds plus the tracing overhead.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 9  # set-ups per untraced run, spread over its rounds; setup_s is their median


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _timed_setup(wl) -> float:
    t0 = perf_counter()
    wl.setup()
    return perf_counter() - t0


def run_untraced(workload, seconds: float):
    """Whole rounds until ``seconds`` of round time have passed.

    The measured instance is set up first; the other SETUPS - 1 set-ups,
    each of a fresh instance that is then thrown away, fall due one every
    ``seconds / SETUPS`` of round time, so that set-ups and rounds meet the
    same spells of a shared machine's speed.
    """
    from workloads import Measured

    def extra_setup() -> None:
        spare = workload(len(setup_s))
        setup_s.append(_timed_setup(spare))
        shutil.rmtree(spare.work, ignore_errors=True)

    wl = workload(0)
    setup_s = [_timed_setup(wl)]
    m, busy = Measured(), 0.0
    while m.rounds < wl.MIN_ROUNDS or busy < seconds:
        t0 = perf_counter()
        m.add(wl.measure(lambda phase: None))
        busy += perf_counter() - t0
        while len(setup_s) < SETUPS and busy >= len(setup_s) * seconds / SETUPS:
            extra_setup()
    while len(setup_s) < SETUPS:
        extra_setup()
    # read before the checks run, so that their memory is not counted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = _checked(wl, m)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_per_s": (m.items_per_s, "items/s"),
    }
    return metrics, wl, m, problems


class PhaseClock:
    """``set_phase`` callback that adds up wall and CPU time per phase."""

    def __init__(self, on_switch=lambda phase: None):
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.on_switch = on_switch
        self.phase = None

    def __call__(self, phase: str | None) -> None:
        now, cpu = perf_counter(), _cpu_s()
        if self.phase is not None:
            self.wall[self.phase] = self.wall.get(self.phase, 0.0) + now - self.t0
            self.cpu[self.phase] = self.cpu.get(self.phase, 0.0) + cpu - self.c0
        self.phase, self.t0, self.c0 = phase, now, cpu
        if phase is not None:
            self.on_switch(phase)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(d["name"], d["unit"]) for d in json.load(fh)["per_layer"]]


def run_traced(workload, seconds: float, spans_path: Path):
    from layers import instrument, layer_values
    from spans import Tracer
    from workloads import Measured

    tracer = Tracer()
    wl = workload(0)
    instrument(tracer)
    try:
        wl.setup()
    finally:
        tracer.restore()
    # Untraced and traced rounds alternate, each going first in every other
    # pair, so that both see the same spells of a shared machine's speed.
    plain = PhaseClock()
    traced = PhaseClock(lambda phase: setattr(tracer, "phase", phase))
    ref, again = Measured(), Measured()
    start, pairs = perf_counter(), 0
    while pairs == 0 or perf_counter() - start < seconds:
        for with_spans in (False, True) if pairs % 2 == 0 else (True, False):
            if not with_spans:
                ref.add(wl.measure(plain))
                plain(None)
                continue
            instrument(tracer)
            try:
                again.add(wl.measure(traced))
                traced(None)
            finally:
                tracer.restore()
        pairs += 1
    tracer.phase = "check"
    problems = _checked(wl, ref)
    rounds = ref.phase_rounds
    values = layer_values(tracer, rounds)
    wall0, wall1 = sum(plain.wall.values()), sum(traced.wall.values())
    values.update({
        "process.cpu_s": sum(plain.cpu[p] / n for p, n in rounds.items()),
        "process.cpu_per_wall": sum(plain.cpu.values()) / wall0,
        "trace.overhead_s": sum((traced.wall[p] - plain.wall[p]) / n
                                for p, n in rounds.items()),
        "trace.overhead_share": (wall1 - wall0) / wall0,
    })
    tracer.write(spans_path)
    for phase, n in rounds.items():
        top = sorted(tracer.totals(phase).items(), key=lambda kv: -kv[1]["self_s"])
        for name, e in top[:8]:
            print(f"  [{phase}, per round] {name:30s} calls {e['calls'] / n:9.1f} "
                  f"busy {e['busy_s'] / n:8.3f} s  self {e['self_s'] / n:8.3f} s")
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
    ref.attempted += again.attempted
    ref.failed += again.failed
    return metrics, wl, ref, problems


def _checked(wl, m) -> list[str]:
    if not m.round_s:
        return ["no round of the workload succeeded"]
    try:
        return wl.check()
    except Exception:
        return [f"check raised:\n{traceback.format_exc()}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "train", "detect", "hpo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sentinel" / "__init__.py").is_file():
        print(f"perfbench: no sentinel package under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work = HERE / "work" / tag
    results = HERE / "work" / "results"
    results.mkdir(parents=True, exist_ok=True)

    def workload(k):
        return WORKLOADS[args.workload](args.seed, work / f"setup{k}")

    try:
        if args.trace:
            metrics, wl, m, problems = run_traced(
                workload, args.seconds, results / f"{tag}.spans.npz")
        else:
            metrics, wl, m, problems = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": m.rounds,
        "openblas_threads": openblas_threads(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    shown = dict(metrics)
    if not args.trace:
        shown.update(wl.extras(m))
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**info, **result,
                   "extras": {k: v for k, (v, _) in shown.items()},
                   "round_items": m.round_items, "round_s": m.round_s}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
