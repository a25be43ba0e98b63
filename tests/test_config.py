import pytest

from cedr.config import (
    ARMS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    dump_config,
    load_config,
)


class TestValidate:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("arm", ARMS)
    def test_all_arms_accepted(self, arm):
        ExperimentConfig(arm=arm).validate()

    def test_unknown_arm(self):
        with pytest.raises(ConfigError, match="config key 'arm' must be one of"):
            ExperimentConfig(arm="scc_both").validate()

    def test_negative_lambda(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            ExperimentConfig(lam=-0.5).validate()

    def test_zero_temperature(self):
        with pytest.raises(ConfigError, match="temperature"):
            ExperimentConfig(temperature=0.0).validate()

    def test_batch_of_one(self):
        with pytest.raises(ConfigError, match="'batch_size' must be at least 2"):
            ExperimentConfig(batch_size=1).validate()

    def test_bad_enum_values(self):
        for key, value in [("eaa_mode", "random"), ("cpcm_method", "method3"),
                           ("lambda_schedule", "cosine")]:
            with pytest.raises(ConfigError):
                ExperimentConfig(**{key: value}).validate()

    @pytest.mark.parametrize("raw", ["", "0", "16 -4"])
    def test_bad_hidden_dims(self, raw):
        config = apply_overrides(ExperimentConfig(), {"hidden_dims": raw})
        with pytest.raises(ConfigError, match="hidden_dims"):
            config.validate()


class TestLambdaSchedule:
    def test_constant(self):
        config = ExperimentConfig(lam=0.1, epochs=10)
        assert config.lam_at(0) == 0.1
        assert config.lam_at(9) == 0.1

    def test_linear_endpoints(self):
        config = ExperimentConfig(lam=0.1, lambda_end=0.2,
                                  lambda_schedule="linear", epochs=11)
        assert config.lam_at(0) == pytest.approx(0.1)
        assert config.lam_at(10) == pytest.approx(0.2)
        assert config.lam_at(5) == pytest.approx(0.15)

    def test_linear_is_monotone(self):
        config = ExperimentConfig(lam=0.1, lambda_end=0.2,
                                  lambda_schedule="linear", epochs=60)
        values = [config.lam_at(e) for e in range(60)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_single_epoch_uses_start(self):
        config = ExperimentConfig(lam=0.1, lambda_end=0.2,
                                  lambda_schedule="linear", epochs=1)
        assert config.lam_at(0) == 0.1


class TestOverrides:
    def test_basic_types(self):
        config = apply_overrides(ExperimentConfig(), {
            "arm": "scc", "lambda": "0.25", "epochs": "5",
            "hidden_dims": "16 32",
        })
        assert config.arm == "scc"
        assert config.lam == 0.25
        assert config.epochs == 5
        assert config.hidden_dims == [16, 32]

    def test_hyphenated_keys(self):
        config = apply_overrides(ExperimentConfig(), {"eaa-mode": "fixed"})
        assert config.eaa_mode == "fixed"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_overrides(ExperimentConfig(), {"learning_rate": "0.1"})

    @pytest.mark.parametrize("key, raw", [("epochs", "abc"), ("lambda", "x"),
                                          ("hidden_dims", "8 y")])
    def test_bad_number_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            apply_overrides(ExperimentConfig(), {key: raw})


class TestFiles:
    def test_round_trip(self, tmp_path):
        config = ExperimentConfig(arm="scc_cpcm", lam=0.3, epochs=7,
                                  hidden_dims=[8, 16], seed=3)
        path = tmp_path / "exp.cfg"
        path.write_text(dump_config(config))
        assert load_config(path) == config

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# experiment\n\narm = scc   # contrastive only\n"
                        "lambda = 0.2\n")
        config = load_config(path)
        assert config.arm == "scc"
        assert config.lam == 0.2

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("arm = scc\nepochs 5\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config(path)

    @pytest.mark.parametrize("lines, message", [
        ("epochs = 3\nepochs = 5\n", ":2: config key 'epochs' is already set "
                                      "on line 1"),
        # keys compare after '-' -> '_' and 'lambda' -> 'lam'
        ("lambda = 0.3\n# again\nlam = 0.1\n", ":3: config key 'lam' is already "
                                                "set on line 1"),
        ("arm = scc\neaa_mode = fixed\neaa-mode = varying\n",
         ":3: config key 'eaa-mode' is already set on line 2"),
    ], ids=["same", "lambda", "hyphen"])
    def test_repeated_key_names_both_lines(self, tmp_path, lines, message):
        path = tmp_path / "exp.cfg"
        path.write_text(lines)
        with pytest.raises(ConfigError, match=f"^{path}{message}$"):
            load_config(path)

    def test_dump_uses_lambda_alias(self):
        text = dump_config(ExperimentConfig())
        assert "lambda = 0.1" in text
        assert "lam =" not in text
        # the whole schema and its defaults, which README points to
        assert text == """\
arm = full
lambda = 0.1
lambda_schedule = constant
lambda_end = 0.2
temperature = 1.0
eaa_mode = varying
cpcm_method = all_pairs
batch_size = 32
epochs = 60
seed = 0
lr_max = 0.1
lr_min = 0.001
momentum = 0.9
weight_decay = 0.0001
hidden_dims = 64 128
data = dataset
n_points = 256
out_dir = runs
"""
