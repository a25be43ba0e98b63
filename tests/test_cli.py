import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedr.autodiff import Parameter
from cedr.checkpoint import load_checkpoint, save_checkpoint
from cedr.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from cedr.config import ARMS, ExperimentConfig, dump_config
from cedr.data import (
    PerturbationConfig,
    build_dataset,
    default_shape_specs,
    read_dataset,
    write_dataset,
)
from cedr.encoder import EncoderConfig, PointEncoder

from conftest import strict_json


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


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "scc_seed1.ckpt").exists()
        payload = json.loads((trained / "scc_seed1.json").read_text())
        assert payload["config"]["arm"] == "scc"
        assert len(payload["epochs"]) == 3

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
    def test_small_temperature_trains(self, tmp_path, capsys, arm):
        # e^{s/tau} overflows a float here; the log-domain loss does not
        base = tmp_path / "toy"
        assert main(["gen-data", "--classes", "3", "--train", "20", "--test", "6",
                     "--points", "64", "--seed", "0", "--out", str(base)]) == EXIT_OK
        code = main(["train", "--arm", arm, "--set", f"data={base}",
                     "--set", f"out_dir={tmp_path}", "--set", "epochs=5",
                     "--set", "hidden_dims=8 16", "--set", "temperature=0.0005"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""


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


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(["m.ckpt", "toy.train.cpcd", "toy.test.cpcd"]),
       cut=st.booleans(), where=st.floats(0.0, 1.0, exclude_max=True),
       mask=st.integers(1, 255))
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


@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_non_finite_coordinate_is_config_error(small_eval_files, tmp_path, capsys,
                                               command):
    d, _ = small_eval_files
    split = build_dataset(default_shape_specs()[:3], 2, 2, seed=0, n_points=32)
    split.test[4].points[0, 2] = np.inf
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
        small_eval_files, tmp_path, monkeypatch, capsys, command):
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
    assert main([command, *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
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


def test_invalid_perturbation_record_is_config_error(tmp_path, capsys):
    split = build_dataset(default_shape_specs()[:3], 2, 2, seed=0, n_points=32)
    meta = split.train[1].meta
    meta.shift, meta.scale, meta.clutter_fraction = np.nan, -5.0, 7.0
    write_dataset(split, tmp_path / "toy")
    out = tmp_path / "out"
    assert main(["train", "--set", f"data={tmp_path / 'toy'}",
                 "--set", f"out_dir={out}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{tmp_path / 'toy'}.train.cpcd: sample 1 has an invalid " \
           "perturbation record at offset" in err
    assert not out.exists()


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
                                                command, name, value, scale):
    d, _ = small_eval_files
    split = read_dataset(d / "toy")
    split.test[4].points *= scale
    write_dataset(split, tmp_path / "toy")
    model = PointEncoder(EncoderConfig(num_classes=3, hidden_dims=[4, 6]))
    next(p for p in model.params if p.name == name).values[...] = value
    save_checkpoint(tmp_path / "m.ckpt", model.params)
    extra = ["--out", str(tmp_path / "out")] if command == "analyze" else []
    assert main([command, "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--data", str(tmp_path / "toy"), *extra]) == EXIT_NUMERIC
    assert "overflows on test sample 4" in capsys.readouterr().err
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
    ])
    def test_bad_inputs_are_config_errors(self, data_base, tmp_path, capsys,
                                          args, message):
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--set", f"data={data_base}", "--out", str(out),
                     "--quiet", *args])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

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
