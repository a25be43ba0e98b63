import csv
import json

import numpy as np
import pytest

from cedr.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from cedr.data import (
    PerturbationConfig,
    build_dataset,
    default_shape_specs,
    write_dataset,
)


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


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "scc_seed1.ckpt").exists()
        payload = json.loads((trained / "scc_seed1.json").read_text())
        assert payload["config"]["arm"] == "scc"
        assert len(payload["epochs"]) == 3

    def test_unknown_override_key(self, data_base, capsys):
        code = main(["train", "--set", "optimizer=adam",
                     "--set", f"data={data_base}"])
        assert code == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path):
        code = main(["train", "--set", f"data={tmp_path / 'absent'}",
                     "--set", "epochs=1"])
        assert code == EXIT_CONFIG

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

    def test_divergent_run_is_numeric_failure(self, data_base, tmp_path,
                                              capsys):
        code = main(["train", "--arm", "scc",
                     "--set", f"data={data_base}",
                     "--set", f"out_dir={tmp_path}",
                     "--set", "epochs=4", "--set", "batch_size=16",
                     "--set", "hidden_dims=8 16",
                     "--set", "lr_max=1e18", "--set", "lr_min=1e18"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "numeric failure" in captured.err


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
    ])
    def test_bad_inputs_are_config_errors(self, data_base, tmp_path, capsys,
                                          args, message):
        out = tmp_path / "ablation.csv"
        code = main(["ablate", "--set", f"data={data_base}", "--out", str(out),
                     "--quiet", *args])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

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
