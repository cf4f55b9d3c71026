"""The names the benchmark's traced run wraps and the space files its `hpo`
workload and self-tests load still exist, so that moving code cannot break
the benchmark without a test failing here."""

import importlib
import sys
from pathlib import Path

import pytest

from sentinel import cli, hpo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_resolves(layers):
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in layers.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []
    # patched on its own, so that a trial's time is a span of its own
    assert cli.make_pipeline_objective is hpo.make_pipeline_objective


def test_benchmark_space_loads():
    space = cli.load_space_file(PERFBENCH / "hpo_space.ini")
    assert set(space.names) <= set(hpo.HYPERPARAMETERS)
    assert set(space.names) & set(hpo.PHASE2_DIMS)
