import csv
import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cedr.autodiff import CHUNK_ROWS, Parameter
from cedr.checkpoint import load_checkpoint, save_checkpoint
from cedr.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    MAX_SEEDS,
    _parse_seeds,
    main,
    model_from_checkpoint,
)
from cedr.config import ARMS, ExperimentConfig, dump_config
from cedr.data import (
    PerturbationConfig,
    build_dataset,
    default_shape_specs,
    read_dataset,
    write_dataset,
)
from cedr.encoder import EncoderConfig, PointEncoder
from cedr.train import ARM_GRID, LAMBDA_GRID, ablation_variants, run_variants, train

from conftest import cedr_process, run_python, strict_json


@pytest.fixture(scope="module")
def data_base(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli") / "toy"
    code = main(["gen-data", "--classes", "8", "--train", "6", "--test", "4",
                 "--seed", "5", "--points", "64", "--out", str(base)])
    assert code == EXIT_OK
    return base


@pytest.fixture(scope="module")
def trained(data_base, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs")
    code = main(["train", "--arm", "scc", "--seed", "1",
                 "--set", f"data={data_base}",
                 "--set", f"out_dir={out_dir}",
                 "--set", "epochs=2", "--set", "batch_size=16",
                 "--set", "hidden_dims=8 16"])
    assert code == EXIT_OK
    return out_dir


class TestGenData:
    def test_writes_both_splits(self, data_base, tmp_path):
        nested = tmp_path / "absent" / "dir" / "toy"
        assert main(["gen-data", "--train", "2", "--test", "2", "--points", "32",
                     "--out", str(nested)]) == EXIT_OK
        for base in (data_base, nested):
            assert base.with_suffix(".train.cpcd").exists()
            assert base.with_suffix(".test.cpcd").exists()

    def test_deterministic_bytes(self, data_base, tmp_path):
        other = tmp_path / "again"
        main(["gen-data", "--classes", "8", "--train", "6", "--test", "4",
              "--seed", "5", "--points", "64", "--out", str(other)])
        assert (other.with_suffix(".train.cpcd").read_bytes()
                == data_base.with_suffix(".train.cpcd").read_bytes())
        presets = {
            "moderate": PerturbationConfig(translate_frac=0.3, clutter_fraction=0.05,
                                           occlusion_radius_frac=0.1),
            "none": PerturbationConfig.none(),
        }
        for name, perturb in presets.items():
            out, ref = tmp_path / name, tmp_path / f"{name}_ref"
            assert main(["gen-data", "--classes", "8", "--train", "6", "--test", "4",
                         "--seed", "5", "--points", "64", "--perturb", name,
                         "--out", str(out)]) == EXIT_OK
            write_dataset(build_dataset(default_shape_specs(), 6, 4, 5, perturb,
                                        n_points=64), ref)
            for suffix in (".train.cpcd", ".test.cpcd"):
                assert (out.with_suffix(suffix).read_bytes()
                        == ref.with_suffix(suffix).read_bytes())

    def test_too_many_classes_is_config_error(self, tmp_path, capsys):
        code = main(["gen-data", "--classes", "99", "--out",
                     str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("classes", [-1, 0, 1, 9])
    def test_class_count_outside_range_is_config_error(self, tmp_path, capsys,
                                                        classes):
        code = main(["gen-data", "--classes", str(classes), "--out",
                     str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert f"--classes must be in 2..8, got {classes}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # every cloud draws from its own stream and a split is one array, so
        # processes with other string-hash salts write the same files
        for salt in ("1", "2"):
            done = run_python(["-m", "cedr.cli", "gen-data", "--perturb", "moderate",
                               "--train", "80", "--test", "16", "--points", "128",
                               "--out", str(tmp_path / salt / "data")],
                              env={**os.environ, "PYTHONHASHSEED": salt})
            assert (done.returncode, done.stderr) == (EXIT_OK, "")
        for suffix in (".train.cpcd", ".test.cpcd"):
            assert ((tmp_path / "1" / "data").with_suffix(suffix).read_bytes()
                    == (tmp_path / "2" / "data").with_suffix(suffix).read_bytes())

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        code = main(["gen-data", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert (capsys.readouterr().err
                == "error: --seed must be nonnegative, got -1\n")
        assert not list(tmp_path.iterdir())


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "scc_seed1.ckpt").exists()
        payload = json.loads((trained / "scc_seed1.json").read_text())
        assert payload["config"]["arm"] == "scc"
        assert len(payload["epochs"]) == 3

    def test_checkpoint_written_and_loadable(self, data_base, trained):
        # the same run in-process: the .ckpt holds its params bit for bit
        _, model = train(ExperimentConfig(arm="scc", seed=1, epochs=2,
                                          batch_size=16, hidden_dims=[8, 16]),
                         read_dataset(data_base))
        tensors = load_checkpoint(trained / "scc_seed1.ckpt")
        assert list(tensors) == [p.name for p in model.params]
        for p in model.params:
            assert tensors[p.name].tobytes() == p.values.tobytes(), p.name

    def test_run_json_is_standard(self, trained):
        payload = strict_json((trained / "scc_seed1.json").read_text())
        # epoch -1 evaluates before the first step, so it has no losses
        first = payload["epochs"][0]
        assert (first["ce"], first["nce"], first["total"]) == (None, None, None)
        assert all(v is not None for v in payload["epochs"][1].values())

    def test_config_file_not_utf8_names_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)    # where the default out_dir would go
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"epochs = 1\narm = sc\xffc\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"error: {cfg}: not utf-8 text" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_override_key(self, data_base, capsys):
        code = main(["train", "--set", "optimizer=adam",
                     "--set", f"data={data_base}"])
        assert code == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path):
        code = main(["train", "--set", f"data={tmp_path / 'absent'}",
                     "--set", "epochs=1"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["center_scope = running",
                                      "fuse_renormalize = false"])
    def test_removed_key_in_config_file(self, data_base, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"data = {data_base}\nepochs = 1\n{line}\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_invalid_arm(self, data_base):
        code = main(["train", "--arm", "all", "--set", f"data={data_base}"])
        assert code == EXIT_CONFIG

    def test_config_file_with_overrides(self, data_base, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {data_base}\nepochs = 1\nbatch_size = 16\n"
                       "hidden_dims = 8 16\narm = ce_only\n"
                       f"out_dir = {tmp_path / 'runs'}\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "runs" / "ce_only_seed0.json").exists()

    def test_set_overrides_config_file(self, data_base, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {data_base}\nepochs = 3\nbatch_size = 16\n"
                       "hidden_dims = 8 16\narm = ce_only\n"
                       f"out_dir = {tmp_path / 'runs'}\n")
        assert main(["train", "--config", str(cfg), "--set", "epochs=1"]) == EXIT_OK
        payload = json.loads((tmp_path / "runs" / "ce_only_seed0.json").read_text())
        assert payload["config"]["epochs"] == 1 and len(payload["epochs"]) == 2

    @pytest.mark.parametrize("sets, key", [
        (["epochs=1", "epochs=2"], "epochs"),
        (["lambda=0.3", "lam=0.1"], "lam"),
        (["eaa_mode=fixed", "eaa-mode=varying"], "eaa-mode"),
    ], ids=["same", "lambda", "hyphen"])
    def test_key_set_twice_is_config_error(self, data_base, tmp_path, capsys,
                                           sets, key):
        args = [arg for kv in sets for arg in ("--set", kv)]
        code = main(["train", "--set", f"data={data_base}",
                     "--set", f"out_dir={tmp_path / 'runs'}", *args])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (f"error: config key '{key}' is set "
                                           "twice by --set\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, line", [
        (["train", "--arm", "full", "--set", "arm=scc"],
         "config key 'arm' is set by both --set and --arm"),
        (["train", "--seed", "2", "--set", "seed=5"],
         "config key 'seed' is set by both --set and --seed"),
        # every ablation run sets its own seed
        (["ablate", "--set", "seed=1", "--out", "ablation.csv"],
         "config key 'seed' cannot be set for ablate; pick the seeds with --seeds"),
    ], ids=["arm", "seed", "ablate"])
    def test_key_given_by_option_and_set_is_config_error(
            self, data_base, tmp_path, monkeypatch, run_cedr, argv, line):
        monkeypatch.chdir(tmp_path)    # where runs/ and ablation.csv would go
        code, out, err = run_cedr(*argv, "--set", f"data={data_base}",
                                  "--set", "out_dir=runs")
        assert code == EXIT_CONFIG
        assert (out, err) == ("", f"error: {line}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spelling", [
        ["--arm", "scc", "--seed", "3"],
        ["--set", "arm=scc", "--set", "seed=3"],
    ], ids=["options", "set"])
    def test_arm_and_seed_by_either_spelling_alone_train(self, data_base,
                                                         tmp_path, spelling):
        runs = tmp_path / "runs"
        assert main(["train", *spelling, "--set", f"data={data_base}",
                     "--set", f"out_dir={runs}", "--set", "epochs=1",
                     "--set", "batch_size=16", "--set", "hidden_dims=8 16"]) == EXIT_OK
        payload = json.loads((runs / "scc_seed3.json").read_text())
        assert (payload["config"]["arm"], payload["config"]["seed"]) == ("scc", 3)

    def test_config_file_key_set_twice_names_both_lines(self, data_base,
                                                        tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"data = {data_base}\nepochs = 3\n"
                       f"out_dir = {tmp_path / 'runs'}\nepochs = 5\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"error: {cfg}:4: config key "
                                           "'epochs' is already set on line 2\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_class_count_comes_from_dataset(self, tmp_path):
        base, runs = tmp_path / "three", tmp_path / "runs"
        assert main(["gen-data", "--classes", "3", "--train", "4", "--test", "2",
                     "--points", "32", "--out", str(base)]) == EXIT_OK
        assert main(["train", "--arm", "full", "--set", f"data={base}",
                     "--set", f"out_dir={runs}", "--set", "epochs=2",
                     "--set", "batch_size=6", "--set", "hidden_dims=8 16"]) == EXIT_OK
        ckpt = str(runs / "full_seed0.ckpt")
        assert load_checkpoint(ckpt)["cls.w"].shape[1] == 3
        assert main(["eval", "--checkpoint", ckpt, "--data", str(base)]) == EXIT_OK
        assert main(["analyze", "--checkpoint", ckpt, "--data", str(base),
                     "--out", str(tmp_path / "analysis")]) == EXIT_OK

    @pytest.mark.parametrize("settings, key", [
        ("temperature=nan", "temperature"),
        ("lam=nan", "lambda"),
        ("lambda=inf", "lambda"),
        ("lr_max=nan", "lr_max"),
        ("lr_max=-0.1", "lr_max"),
        ("lr_min=-1", "lr_min"),
        ("momentum=1.5", "momentum"),
        ("weight_decay=-1", "weight_decay"),
        ("lambda_schedule=linear lambda_end=-1", "lambda_end"),
        ("seed=-1", "seed"),
    ])
    def test_invalid_value_is_config_error(self, data_base, tmp_path, capsys,
                                           settings, key):
        sets = [arg for kv in settings.split() for arg in ("--set", kv)]
        code = main(["train", "--set", f"data={data_base}",
                     "--set", f"out_dir={tmp_path / 'runs'}",
                     "--set", "epochs=1", "--set", "batch_size=16",
                     "--set", "hidden_dims=8 16", *sets])
        assert code == EXIT_CONFIG
        assert f"config key '{key}' must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("arm, match", [
        # the diverged weights overflow the embeddings' squared norms
        ("scc", "epoch 1, batch 1: the forward overflows on train sample"),
        # a wrong prediction turns exactly one-hot before that
        ("full", "wrong prediction with zero entropy"),
    ], ids=["scc", "full"])
    def test_diverging_forward_is_numeric_failure(self, data_base, tmp_path,
                                                  capsys, arm, match):
        code = main(["train", "--arm", arm, "--set", f"data={data_base}",
                     "--set", f"out_dir={tmp_path}",
                     "--set", "epochs=4", "--set", "batch_size=16",
                     "--set", "hidden_dims=8 16",
                     "--set", "lr_max=1e18", "--set", "lr_min=1e18"])
        assert code == EXIT_NUMERIC
        assert match in capsys.readouterr().err
        assert not list(tmp_path.glob("*.ckpt"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergent_run_is_numeric_failure(self, data_base, tmp_path,
                                              capsys):
        # the overflow is reported once, by the error line, not by numpy
        code = main(["train", "--arm", "scc",
                     "--set", f"data={data_base}",
                     "--set", f"out_dir={tmp_path}",
                     "--set", "epochs=4", "--set", "batch_size=16",
                     "--set", "hidden_dims=8 16",
                     "--set", "lr_max=1e18", "--set", "lr_min=1e18"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert err.startswith("numeric failure: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("arm", ["scc", "scc_cpcm", "scc_eaa", "full"])
    def test_small_temperature_trains(self, tmp_path, run_cedr, arm):
        # e^{s/tau} overflows a float here; the log-domain loss does not
        base = tmp_path / "toy"
        assert main(["gen-data", "--classes", "3", "--train", "20", "--test", "6",
                     "--points", "64", "--seed", "0", "--out", str(base)]) == EXIT_OK
        code, _, err = run_cedr("train", "--arm", arm, "--set", f"data={base}",
                                "--set", f"out_dir={tmp_path}", "--set", "epochs=5",
                                "--set", "hidden_dims=8 16",
                                "--set", "temperature=0.0005")
        assert code == EXIT_OK
        assert err == ""


class TestEvalAnalyze:
    def test_eval_prints_summary(self, trained, data_base, capsys):
        code = main(["eval", "--checkpoint", str(trained / "scc_seed1.ckpt"),
                     "--data", str(data_base)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "overall_acc" in out and "macro_f1" in out

    def test_analyze_writes_artifacts(self, trained, data_base, tmp_path):
        out = tmp_path / "analysis"
        code = main(["analyze", "--checkpoint", str(trained / "scc_seed1.ckpt"),
                     "--data", str(data_base), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("confusion.csv", "center_distance.csv", "entropy.csv",
                     "embeddings.csv", "summary.json"):
            assert (out / name).exists()
        rows = list(csv.reader((out / "confusion.csv").open()))
        counts = np.array([[int(x) for x in r[1:]] for r in rows[1:]])
        assert counts.sum() == 8 * 4

    def test_eval_matches_train_final_metrics(self, trained, data_base, capsys):
        payload = json.loads((trained / "scc_seed1.json").read_text())
        main(["eval", "--checkpoint", str(trained / "scc_seed1.ckpt"),
              "--data", str(data_base)])
        out = capsys.readouterr().out
        reported = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(reported["overall_acc"]) == pytest.approx(
            payload["final"]["overall_acc"], abs=1e-6)

    def test_bad_checkpoint_path(self, data_base, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--data", str(data_base)])
        assert code == EXIT_CONFIG


@pytest.fixture(scope="module")
def small_eval_files(tmp_path_factory):
    """Bytes of a 3-class dataset pair and a matching untrained checkpoint."""
    d = tmp_path_factory.mktemp("fuzz")
    write_dataset(build_dataset(default_shape_specs()[:3], 2, 2, seed=0,
                                n_points=32), d / "toy")
    model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
    save_checkpoint(d / "m.ckpt", model.params)
    (d / "work").mkdir()
    names = ("m.ckpt", "toy.train.cpcd", "toy.test.cpcd")
    return d, {name: (d / name).read_bytes() for name in names}


# offset of the sample and point counts in small_eval_files' .cpcd files:
# magic, version and class count, then the 3 class names
COUNTS_AT = 8 + sum(2 + len(spec.name.encode())
                    for spec in default_shape_specs()[:3])


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(["m.ckpt", "toy.train.cpcd", "toy.test.cpcd"]),
       cut=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True),
       mask=st.integers(1, 255))
# this flip leaves a float32 signalling NaN in a coordinate
@example(target="toy.test.cpcd", cut=False, where=0.125, mask=64)
def test_eval_survives_corrupt_files(small_eval_files, target, cut, where, mask):
    """Truncating a file at any offset or flipping any byte of it gives a
    documented exit code, never an escaping exception."""
    d, files = small_eval_files
    for name, data in files.items():
        if name == target:
            at = int(where * len(data))
            data = data[:at] if cut else (
                data[:at] + bytes([data[at] ^ mask]) + data[at + 1:])
        (d / "work" / name).write_bytes(data)
    code = main(["eval", "--checkpoint", str(d / "work" / "m.ckpt"),
                 "--data", str(d / "work" / "toy")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)


def test_eval_rejects_a_signalling_nan_coordinate(small_eval_files, run_cedr):
    """A float32 signalling NaN, as a flipped byte can leave one, is a
    non-finite coordinate: exit 2 naming it, and no warning from its cast."""
    d, files = small_eval_files
    data = files["toy.test.cpcd"]
    # the sample and point counts, the 6 labels, then sample 0's 32 points
    at = COUNTS_AT + 8 + 6 * 2 + 32 * 12
    snan = np.array([0x7FA00000], dtype="<u4").tobytes()
    assert np.isnan(np.frombuffer(snan, dtype="<f4")[0])
    for name, raw in files.items():
        if name == "toy.test.cpcd":
            raw = data[:at] + snan + data[at + 4:]
        (d / "work" / name).write_bytes(raw)
    code, out, err = run_cedr("eval", "--checkpoint", str(d / "work" / "m.ckpt"),
                              "--data", str(d / "work" / "toy"))
    assert code == EXIT_CONFIG
    assert (out, err) == ("", f"error: {d / 'work' / 'toy'}.test.cpcd: sample 1 "
                          f"has a non-finite coordinate in its points at offset "
                          f"{at}\n")


@pytest.mark.parametrize("count, n_points", [(0, 32), (6, 0)])
def test_eval_rejects_an_empty_split_naming_its_file(small_eval_files, capsys,
                                                      count, n_points):
    """A test file of no clouds, or of clouds of no points, is refused at its
    counts field: exit 2 naming the file and the offset."""
    d, files = small_eval_files
    data = files["toy.test.cpcd"]
    for name, raw in files.items():
        if name == "toy.test.cpcd":
            # the counts and the labels; the points take no bytes
            raw = (data[:COUNTS_AT] + np.array([count, n_points], "<u4").tobytes()
                   + data[COUNTS_AT + 8:COUNTS_AT + 8 + 2 * count])
        (d / "work" / name).write_bytes(raw)
    assert main(["eval", "--checkpoint", str(d / "work" / "m.ckpt"),
                 "--data", str(d / "work" / "toy")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"{d / 'work' / 'toy.test.cpcd'}: sample and point counts {count} "
            f"and {n_points} at offset {COUNTS_AT}") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("num_classes, replace, code, match", [
    (3, {"point0.w": np.zeros(3)}, EXIT_CONFIG, r"'point0.w' has shape \(3,\)"),
    (2, {}, EXIT_CONFIG, "has 2 classes, dataset"),
    (3, {"prj.w": np.zeros((6, 6))}, EXIT_NUMERIC, "all-zero row 0"),
])
def test_eval_rejects_checkpoint_unfit_for_dataset(small_eval_files, tmp_path, capsys,
                                                   num_classes, replace, code, match):
    model = PointEncoder(EncoderConfig(num_classes=num_classes, hidden_dims=[4, 6]))
    save_checkpoint(tmp_path / "m.ckpt",
                    [Parameter(replace.get(p.name, p.values), p.name)
                     for p in model.params])
    d, _ = small_eval_files
    assert main(["eval", "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--data", str(d / "toy")]) == code
    assert re.search(match, capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_checkpoint_tensor_that_names_no_parameter(small_eval_files, tmp_path,
                                                   capsys, command):
    """A fourth point layer after a gap at the third, and a stray name, are
    refused, not ignored."""
    model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
    save_checkpoint(tmp_path / "m.ckpt", model.params + [
        Parameter(np.ones((6, 6)), "point3.w"), Parameter(np.ones(2), "bogus")])
    d, _ = small_eval_files
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "analyze" else []
    assert main([command, "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--data", str(d / "toy"), *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"error: checkpoint {tmp_path / 'm.ckpt'}: tensor 'bogus' names "
                   "no parameter of the model\n")
    assert not out.exists()


@pytest.mark.parametrize("drop, replace, line", [
    ("point0.w", {}, " does not describe an encoder"),
    ("cls.w", {}, " does not describe an encoder"),
    (None, {"point0.w": np.zeros((3, 0))}, ": 'point0.w' has shape (3, 0), "
     "expected a matrix with at least one column"),
    ("prj.w", {}, ": missing parameter 'prj.w'"),
    (None, {"cls.b": np.zeros(2)}, ": parameter 'cls.b' has shape (2,), "
     "expected (3,)"),
    (None, {"cls.b": np.full(3, np.inf)}, ": parameter 'cls.b' has non-finite "
     "values"),
], ids=["no-point0.w", "no-cls.w", "zero-width-point0.w", "no-prj.w",
        "cls.b-shape", "cls.b-non-finite"])
def test_checkpoint_refusal_starts_with_its_path(small_eval_files, tmp_path,
                                                 run_cedr, drop, replace, line):
    """A checkpoint with no first point layer or no class head, a matrix of no
    columns, or arrays the encoder refuses: exit 2 and one error line that
    starts with the checkpoint's path, not a traceback."""
    model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, [Parameter(replace.get(p.name, p.values), p.name)
                           for p in model.params if p.name != drop])
    d, _ = small_eval_files
    code, out, err = run_cedr("eval", "--checkpoint", str(ckpt),
                              "--data", str(d / "toy"))
    assert code == EXIT_CONFIG
    assert (out, err) == ("", f"error: checkpoint {ckpt}{line}\n")


def test_checkpoint_model_makes_no_draw(small_eval_files, monkeypatch):
    """The model of a checkpoint is built from its tensors alone: no random
    generator, and the bytes that were saved."""
    d, _ = small_eval_files
    saved = load_checkpoint(d / "m.ckpt")

    def no_generator(*args, **kwargs):
        raise AssertionError("loading a checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    model = model_from_checkpoint(d / "m.ckpt")
    for p in model.params:
        assert p.values.tobytes() == saved[p.name].tobytes(), p.name


@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_non_finite_coordinate_is_config_error(small_eval_files, tmp_path, capsys,
                                               command):
    d, _ = small_eval_files
    split = build_dataset(default_shape_specs()[:3], 2, 2, seed=0, n_points=32)
    split.test.points[4, 0, 2] = np.inf
    write_dataset(split, tmp_path / "toy")
    data, out = tmp_path / "toy", tmp_path / "out"
    args = {"train": ["--set", f"data={data}", "--set", f"out_dir={out}"],
            "eval": ["--checkpoint", str(d / "m.ckpt"), "--data", str(data)],
            "analyze": ["--checkpoint", str(d / "m.ckpt"), "--data", str(data),
                        "--out", str(out)]}[command]
    assert main([command, *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sample 4 has a non-finite coordinate" in err and "offset" in err
    # the bad sample is in the test split, and the message names that file
    assert f"{data}.test.cpcd: " in err and "train.cpcd" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "analyze", "train"])
def test_directory_in_place_of_a_file_is_config_error(
        small_eval_files, tmp_path, monkeypatch, run_cedr, command):
    """eval's --checkpoint, the test file of analyze's --data and train's
    --config are each a directory."""
    d, files = small_eval_files
    monkeypatch.chdir(tmp_path)    # where train's default out_dir would go
    ckpt, cfg = tmp_path / "m.ckpt", tmp_path / "exp.cfg"
    (tmp_path / "toy.train.cpcd").write_bytes(files["toy.train.cpcd"])
    args, bad = {
        "eval": (["--checkpoint", str(ckpt), "--data", str(d / "toy")], ckpt),
        "analyze": (["--checkpoint", str(d / "m.ckpt"), "--data",
                     str(tmp_path / "toy"), "--out", str(tmp_path / "out")],
                    tmp_path / "toy.test.cpcd"),
        "train": (["--config", str(cfg)], cfg),
    }[command]
    bad.mkdir()
    before = sorted(tmp_path.iterdir())
    code, _, err = run_cedr(command, *args)
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_one_class_dataset_is_config_error(tmp_path, capsys, command):
    write_dataset(build_dataset(default_shape_specs()[:1], 2, 2, seed=0,
                                n_points=32), tmp_path / "one")
    model = PointEncoder(EncoderConfig(num_classes=1, hidden_dims=[4, 6]))
    save_checkpoint(tmp_path / "m.ckpt", model.params)
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "analyze" else []
    assert main([command, "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--data", str(tmp_path / "one"), *extra]) == EXIT_CONFIG
    assert (f"{command} needs at least 2 classes, dataset {tmp_path / 'one'} "
            "has 1") in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_a_version_1_dataset(small_eval_files, run_cedr):
    """A file of the format before the fixed-shape layout is refused, not
    misread: exit 2 naming the version field."""
    d, files = small_eval_files
    for name, raw in files.items():
        if name.endswith(".cpcd"):
            raw = raw[:4] + b"\x01\x00" + raw[6:]
        (d / "work" / name).write_bytes(raw)
    code, out, err = run_cedr("eval", "--checkpoint", str(d / "work" / "m.ckpt"),
                              "--data", str(d / "work" / "toy"))
    assert code == EXIT_CONFIG
    assert (out, err) == ("", f"error: {d / 'work' / 'toy'}.train.cpcd: "
                          "unsupported version 1 at offset 4\n")


def test_truncated_checkpoint_names_it(small_eval_files, tmp_path, capsys):
    d, files = small_eval_files
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(files["m.ckpt"][:40])
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(d / "toy")]) == EXIT_CONFIG
    assert f"{ckpt}: truncated values of 'point0.w'" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "analyze"])
@pytest.mark.parametrize("name, value, scale", [
    # the scaled sample's squared projection norm overflows, so it normalises
    # to a zero row
    ("point0.w", 1e120, 1e36),
    # its logits overflow to inf, and the softmax turns them into nan
    ("cls.w", 1e300, 1e10),
])
def test_overflowing_forward_is_numeric_failure(small_eval_files, tmp_path, capsys,
                                                chunk_rows, command, name,
                                                value, scale):
    d, _ = small_eval_files
    split = read_dataset(d / "toy")
    split.test.points[4] *= scale
    write_dataset(split, tmp_path / "toy")
    model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
    next(p for p in model.params if p.name == name).values[...] = value
    save_checkpoint(tmp_path / "m.ckpt", model.params)
    extra = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    # the 6 clouds of 32 points in one chunk, then 2 clouds a chunk, which
    # puts sample 4 in the third chunk
    for rows in (CHUNK_ROWS, 64):
        chunk_rows(rows)
        assert main([command, "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--data", str(tmp_path / "toy"), *extra]) == EXIT_NUMERIC
        assert "overflows on test sample 4:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestAblateCommand:
    def test_small_ablation_csv(self, data_base, tmp_path):
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--seeds", "0,1",
                     "--set", f"data={data_base}",
                     "--set", "epochs=1", "--set", "batch_size=16",
                     "--set", "hidden_dims=8 16",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        rows = list(csv.reader(out.open()))
        variants = [r[0] for r in rows[1:]]
        assert variants == ["ce_only", "scc", "scc_cpcm", "scc_eaa", "full"]
        assert rows[0][1] == "overall_acc_seed0"

    def test_seed_range_syntax(self, data_base, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["ablate", "--seeds", "0..1", "--lambda-grid",
                     "--set", f"data={data_base}",
                     "--set", "arm=scc", "--set", "epochs=1",
                     "--set", "batch_size=16", "--set", "hidden_dims=8 16",
                     "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        rows = list(csv.reader(out.open()))
        assert [r[0] for r in rows[1:]] == [
            "constant_0.05", "constant_0.1", "constant_0.2", "constant_0.3",
            "linear_0.1_0.2"]

    @pytest.mark.parametrize("args, message", [
        (["--seeds", "3..1"], "selects no seed"),
        (["--seeds", "0..x"], "selects no seed"),
        (["--set", "epochs"], "'epochs'"),
        (["--set", "epochs=abc"], "'epochs'"),
        (["--set", "hidden_dims="], "hidden_dims"),
        (["--set", "hidden_dims=0"], "hidden_dims"),
        (["--seeds", "0,1 1"], "repeats seed 1"),
        # ablate sets these per run, so a --set of them would be overridden
        (["--set", "seed=7"], "config key 'seed' cannot be set"),
        (["--lambda-grid", "--set", "seed=7"], "config key 'seed' cannot be set"),
        (["--set", "arm=scc"], "config key 'arm' cannot be set"),
        (["--seeds", "0..10000"], "'0..10000' selects 10001 seeds; at most "
                                  "10000 are allowed"),
        (["--seeds", " ".join(map(str, range(10001)))], "selects 10001 seeds"),
    ])
    def test_bad_inputs_are_config_errors(self, data_base, tmp_path, capsys,
                                          args, message):
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--set", f"data={data_base}", "--out", str(out),
                     "--quiet", *args])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_seed_rejected_before_any_run_trains(self, data_base, tmp_path,
                                                     run_cedr):
        # the nested --out: a refused run leaves no parent directory behind
        for out in (tmp_path / "ablation.csv",
                    tmp_path / "abl" / "new" / "ablation.csv"):
            code, stdout, err = run_cedr(
                "ablate", "--seeds", "5,-1", "--set", f"data={data_base}",
                "--set", "epochs=1", "--set", "batch_size=16",
                "--set", "hidden_dims=8 16", "--out", str(out))
            assert code == EXIT_CONFIG
            assert stdout == ""
            assert err == "error: config key 'seed' must be nonnegative, got -1\n"
            assert not out.exists()
        assert not (tmp_path / "abl").exists()

    def test_huge_seed_range_refused_before_it_is_built(self, data_base,
                                                        tmp_path, run_cedr):
        # a range is counted, not listed: a trillion seeds would not fit
        out = tmp_path / "ablation.csv"
        code, stdout, err = run_cedr(
            "ablate", "--seeds", "0..1000000000000", "--set", f"data={data_base}",
            "--out", str(out))
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == ("error: --seeds '0..1000000000000' selects 1000000000001 "
                       "seeds; at most 10000 are allowed\n")
        assert not out.exists()

    def test_seed_limit_is_inclusive(self):
        assert _parse_seeds(f"5..{MAX_SEEDS + 4}") == list(range(5, MAX_SEEDS + 5))

    @pytest.mark.parametrize("grid, options", [
        (ARM_GRID, []), (LAMBDA_GRID, ["--lambda-grid", "--set", "arm=scc"])])
    def test_same_bytes_as_the_library(self, tmp_path, grid, options):
        base = tmp_path / "toy2"
        assert main(["gen-data", "--classes", "2", "--train", "6", "--test", "4",
                     "--points", "32", "--out", str(base)]) == EXIT_OK
        out = tmp_path / "cli.csv"
        assert main(["ablate", "--seeds", "0..1", "--set", f"data={base}",
                     "--set", "epochs=1", "--set", "hidden_dims=8 16",
                     *options, "--out", str(out), "--quiet"]) == EXIT_OK
        config = ExperimentConfig(data=str(base), epochs=1, hidden_dims=[8, 16],
                                  arm="scc" if options else "full")
        run_variants(ablation_variants(config, (0, 1), grid),
                     read_dataset(base)).write_csv(tmp_path / "library.csv")
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_directory_out_refused_before_any_run_trains(self, data_base,
                                                         tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        out.mkdir()
        code = main(["ablate", "--seeds", "0", "--set", f"data={data_base}",
                     "--set", "epochs=1", "--set", "batch_size=16",
                     "--set", "hidden_dims=8 16", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == (f"error: --out {out} is a directory, not a "
                                "CSV file\n")
        assert list(out.iterdir()) == []

    def test_config_file_may_list_arm_and_seed(self, data_base, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(dump_config(ExperimentConfig(
            arm="scc", seed=7, data=str(data_base), epochs=1, batch_size=16,
            hidden_dims=[8, 16])))
        out = tmp_path / "ablation.csv"
        assert main(["ablate", "--config", str(cfg), "--seeds", "0",
                     "--out", str(out), "--quiet"]) == EXIT_OK
        rows = list(csv.reader(out.open()))
        assert [r[0] for r in rows[1:]] == list(ARMS)
        assert rows[0][1] == "overall_acc_seed0"

    @pytest.mark.parametrize("option", [["--arm", "scc"], ["--seed", "0"]])
    def test_train_only_options_rejected(self, data_base, tmp_path, capsys,
                                         option):
        # ablate sets arm and seed per run; --seed must not abbreviate --seeds
        out = tmp_path / "ablation.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--set", f"data={data_base}", "--out", str(out),
                  "--quiet", *option])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
        assert not out.exists()


class TestAsAProcess:
    """The exit-code contracts of the `cedr` console script, each run as a
    `python -m cedr.cli` process: the same test bodies as above, whose
    run_cedr starts a process in place of calling main in this one, so an
    exit code that main returns but the process does not exit with fails."""

    @pytest.fixture
    def run_cedr(self):
        return cedr_process

    test_checkpoint_refusal_starts_with_its_path = staticmethod(
        test_checkpoint_refusal_starts_with_its_path)
    test_directory_in_place_of_a_file_is_config_error = staticmethod(
        test_directory_in_place_of_a_file_is_config_error)
    test_eval_rejects_a_signalling_nan_coordinate = staticmethod(
        test_eval_rejects_a_signalling_nan_coordinate)
    test_eval_rejects_a_version_1_dataset = staticmethod(
        test_eval_rejects_a_version_1_dataset)
    test_key_given_by_option_and_set_is_config_error = (
        TestTrain.test_key_given_by_option_and_set_is_config_error)
    test_small_temperature_trains = TestTrain.test_small_temperature_trains
    test_bad_seed_rejected_before_any_run_trains = (
        TestAblateCommand.test_bad_seed_rejected_before_any_run_trains)
    test_huge_seed_range_refused_before_it_is_built = (
        TestAblateCommand.test_huge_seed_range_refused_before_it_is_built)
