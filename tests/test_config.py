import json

import pytest

from modalflow.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    build_config,
    config_to_dict,
    load_config,
    write_config_echo,
)


def write(tmp_path, text):
    p = tmp_path / "config.json"
    p.write_text(text)
    return p


def test_empty_file_yields_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    default = RunConfig()
    assert cfg.synth == default.synth
    assert cfg.model == default.model
    assert cfg.loss == default.loss
    assert cfg.train.epochs == default.train.epochs


def test_no_file_reads_as_an_empty_file(tmp_path):
    assert load_config() == load_config(write(tmp_path, ""))
    overrides = ["train.epochs=9"]
    assert load_config(None, overrides) == load_config(write(tmp_path, ""), overrides)


def test_empty_object_yields_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "{}"))
    assert cfg.synth == RunConfig().synth


def test_partial_section_merges_defaults(tmp_path):
    cfg = load_config(write(tmp_path, '{"train": {"epochs": 20}}'))
    assert cfg.train.epochs == 20
    assert cfg.train.batch_size == RunConfig().train.batch_size


def test_loss_section_feeds_train_weights(tmp_path):
    cfg = load_config(write(tmp_path, '{"loss": {"alpha": 0.9}}'))
    assert cfg.train.weights.alpha == 0.9
    assert cfg.train.weights is cfg.loss


def test_eval_rule_feeds_train(tmp_path):
    cfg = load_config(write(tmp_path, '{"eval": {"acc_rule": "sign_nonzero"}}'))
    assert cfg.train.eval_acc_rule == "sign_nonzero"


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="'optimizer'"):
        load_config(write(tmp_path, '{"optimizer": {}}'))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="'train.momentum'"):
        load_config(write(tmp_path, '{"train": {"momentum": 0.9}}'))


def test_weights_not_settable_through_train(tmp_path):
    with pytest.raises(ConfigError, match="train.weights"):
        load_config(write(tmp_path, '{"train": {"weights": {}}}'))


def test_acc_rule_not_settable_through_train(tmp_path):
    with pytest.raises(ConfigError, match="train.eval_acc_rule"):
        load_config(write(tmp_path, "{}"), overrides=["train.eval_acc_rule=sign_nonzero"])


def test_invalid_value_rejected_with_section(tmp_path):
    with pytest.raises(ConfigError, match="'loss'"):
        load_config(write(tmp_path, '{"loss": {"delta": -1.0}}'))


def test_parse_error_reports_position(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        load_config(write(tmp_path, '{"train": }'))


def test_non_object_top_level_rejected(tmp_path):
    with pytest.raises(ConfigError, match="top level"):
        load_config(write(tmp_path, "[1, 2]"))


def test_overrides_applied_and_json_parsed(tmp_path):
    cfg = load_config(
        write(tmp_path, '{"train": {"epochs": 5, "patience": 2}}'),
        overrides=["train.lr=0.01", "synth.n_train=64", "eval.acc_rule=sign_nonzero"],
    )
    assert cfg.train.lr == 0.01
    assert cfg.synth.n_train == 64
    assert cfg.eval.acc_rule == "sign_nonzero"  # bare string value
    assert cfg.train.epochs == 5


def test_override_beats_file_value(tmp_path):
    cfg = load_config(write(tmp_path, '{"train": {"epochs": 30}}'), overrides=["train.epochs=9"])
    assert cfg.train.epochs == 9


@pytest.mark.parametrize("item", ["train.lr", "lr=0.1", "a.b.c=1"])
def test_malformed_overrides(item):
    with pytest.raises(ConfigError):
        apply_overrides({}, [item])


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "lr", float("nan")),
        ("train", "lr", float("inf")),
        ("train", "lr", "nan"),
        ("model", "tau_attn", float("inf")),
        ("model", "tau_attn", float("nan")),
        ("model", "tau_attn", "2"),
        ("loss", "tau_rnc", float("inf")),
        ("loss", "tau_rnc", float("nan")),
        ("loss", "tau_rnc", [2.0]),
    ],
    ids=["lr_nan", "lr_inf", "lr_str", "tau_attn_inf", "tau_attn_nan", "tau_attn_str",
         "tau_rnc_inf", "tau_rnc_nan", "tau_rnc_list"],
)
def test_non_finite_or_non_numeric_value_rejected_naming_the_field(section, key, value):
    with pytest.raises(ConfigError, match=rf"'{section}'.* {key} must be a finite positive number"):
        build_config({section: {key: value}})


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_json_non_finite_learning_rate_rejected(tmp_path, text):
    """json.loads reads NaN and Infinity, so a config file can carry them."""
    with pytest.raises(ConfigError, match="lr must be a finite positive number"):
        load_config(write(tmp_path, '{"train": {"lr": %s}}' % text))


def test_override_that_is_not_a_number_rejected_naming_the_field(tmp_path):
    """`nan` is not JSON, so the override reaches the config as a string."""
    with pytest.raises(ConfigError, match="lr must be a finite positive number, got 'nan'"):
        load_config(write(tmp_path, "{}"), overrides=["train.lr=nan"])


def test_an_int_is_a_number_and_tau_attn_may_be_null():
    cfg = build_config({"train": {"lr": 1}, "loss": {"gamma": 1}, "model": {"tau_attn": None, "dim": 4, "mia_hidden": 2}})
    assert (cfg.train.lr, cfg.loss.gamma, cfg.model.tau_attn) == (1, 1, 2.0)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("synth", "seed", 1.0, "synth config: seed must be an int, got 1.0"),
        ("model", "mia_hidden", True, "model config: mia_hidden must be an int, got True"),
        ("loss", "gamma", "1", "loss config: gamma must be a number, got '1'"),
        ("train", "patience", None, "train config: patience must be an int, got None"),
    ],
    ids=["synth_seed_float", "model_hidden_bool", "loss_gamma_str", "train_patience_null"],
)
def test_ill_typed_value_rejected_naming_section_and_field(section, key, value, message):
    with pytest.raises(ConfigError, match=rf"'{section}': {message}"):
        build_config({section: {key: value}})


@pytest.mark.parametrize(
    "text, section",
    [
        ('{"train": 5}', "train"),
        ('{"train": null}', "train"),
        ('{"train": [["lr", 0.1]]}', "train"),
        ('{"loss": [["alpha", 0.5]]}', "loss"),
        ('{"train": "ab"}', "train"),
    ],
    ids=["train_int", "train_null", "train_pairs", "loss_pairs", "train_str"],
)
def test_section_that_is_not_an_object_rejected(tmp_path, text, section):
    """Each once died with a TypeError, ran as if the pairs were an object,
    or failed with dict()'s message, which names no section."""
    with pytest.raises(ConfigError, match=f"section '{section}' is not an object"):
        load_config(write(tmp_path, text))


def test_config_echo_roundtrip(tmp_path):
    cfg = build_config({"train": {"epochs": 4, "patience": 1}, "loss": {"delta": 0.0}})
    write_config_echo(cfg, tmp_path)
    echoed = json.loads((tmp_path / "config.json").read_text())
    rebuilt = build_config(echoed)
    assert config_to_dict(rebuilt) == config_to_dict(cfg)
    assert rebuilt.train.epochs == 4
    assert rebuilt.loss.delta == 0.0


def test_config_to_dict_has_all_sections():
    out = config_to_dict(RunConfig())
    assert set(out) == {"synth", "model", "loss", "train", "eval"}
    assert "weights" not in out["train"]
    assert "eval_acc_rule" not in out["train"]
    assert set(out["model"]) == {"dim", "mia_hidden", "tau_attn"}
