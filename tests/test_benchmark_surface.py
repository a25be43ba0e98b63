"""The benchmark reaches into cedr by attribute name. Check that every name it
traces still exists, that its training config still validates, and that a
traced training run and a traced `cedr eval` fire every span and counter it
reports, so that a renamed, deleted or bypassed function fails here and not
only in a traced benchmark run. The benchmark's files are only imported,
never changed.
"""

import importlib
from pathlib import Path

import pytest

from cedr import cli, data
from cedr.checkpoint import save_checkpoint
from cedr.config import ExperimentConfig
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.train import train

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


def test_traced_training_fires_every_train_span(workloads):
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(workloads.trace_targets())
    with tracer:
        dataset = data.build_dataset(data.default_shape_specs(), 4, 2, seed=0,
                                     n_points=32)
        train(ExperimentConfig(arm="full", epochs=1, batch_size=16,
                               hidden_dims=[4, 8], n_points=32), dataset)
    fired = {span.name for span in tracer.spans}
    assert workloads.TRAIN_SPANS <= fired, sorted(workloads.TRAIN_SPANS - fired)
    for count in ("tape_nodes", "anchors", "tagged"):
        assert tracer.counts[count] > 0, count


def test_traced_eval_fires_every_eval_span(workloads, tmp_path):
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(workloads.trace_targets())
    with tracer:
        dataset = data.build_dataset(data.default_shape_specs()[:3], 2, 2, seed=0,
                                     n_points=32)
        data.write_dataset(dataset, tmp_path / "toy")
        model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
        save_checkpoint(tmp_path / "m.ckpt", model.params)
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"),
                         "--data", str(tmp_path / "toy")])
    assert code == cli.EXIT_OK
    fired = {span.name for span in tracer.spans}
    assert workloads.EVAL_SPANS <= fired, sorted(workloads.EVAL_SPANS - fired)
