"""The benchmark reaches into cedr by attribute name. Check that every name it
traces still exists and that its training config still validates, so that a
renamed or deleted function fails here and not only in a traced benchmark run.
"""

import importlib
from pathlib import Path

import pytest

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARK_DIR))
        yield importlib.import_module("workloads")


def test_trace_targets_exist_and_are_callable(workloads):
    for target in workloads.trace_targets():
        assert callable(getattr(target.owner, target.attr, None)), target.name


def test_train_configs_validate(workloads):
    for wl in workloads.WORKLOADS.values():
        for arm in wl.arms:
            workloads.train_config(wl, arm, seed=0, epochs=wl.epochs).validate()
