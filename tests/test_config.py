import json

import pytest

from qscsim.collapse import CollapseModel
from qscsim.config import (
    SWEEPABLE_FIELDS,
    config_to_json_dict,
    expand_sweep,
    load_config,
    parse_config,
)
from qscsim.errors import ConfigFileError, ConfigParseError, ConfigValidationError
from qscsim.observer import ScenarioTag
from qscsim.protocol import RuleKind
from qscsim.states import InputKind

MINIMAL = {"master_seed": 42, "n_trials": 1000}


def test_minimal_config_gets_documented_defaults():
    config = parse_config(MINIMAL)
    assert config.master_seed == 42
    assert config.n_trials == 1000
    assert config.priors == 0.5
    assert config.input_p1 == 0.5
    assert config.collapse.model is CollapseModel.JUMP_EXPONENTIAL
    assert config.collapse.t_c_mean == 180.0
    assert config.observer.t_p == 0.001
    assert config.observer.jitter_sigma == 0.0002
    assert config.observer.resolution == 0.01
    assert config.scenario.tag is ScenarioTag.POST_COLLAPSE_ONLY
    assert config.rule.kind is RuleKind.TIMING_THRESHOLD
    # resolved threshold: t_p + 5 * max(jitter, resolution)
    assert config.rule.threshold_time == pytest.approx(0.051)
    assert config.rule.batch_n == 5
    assert config.rule.no_change_guess is InputKind.DEFINITE
    assert config.device_baseline is False
    assert config.sweep is None


def test_required_fields():
    with pytest.raises(ConfigValidationError) as err:
        parse_config({"n_trials": 10})
    assert err.value.field_path == "master_seed"
    with pytest.raises(ConfigValidationError) as err:
        parse_config({"master_seed": 1})
    assert err.value.field_path == "n_trials"


def test_negative_collapse_time_names_field_path():
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "collapse": {"t_c_mean": -1}})
    assert err.value.field_path == "collapse.t_c_mean"


def test_unknown_keys_are_errors():
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "surprise": 1})
    assert err.value.field_path == "surprise"
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "observer": {"t_p": 0.001, "latency": 2}})
    assert err.value.field_path == "observer.latency"


def test_master_seed_range_and_types():
    with pytest.raises(ConfigValidationError):
        parse_config({"master_seed": -1, "n_trials": 10})
    with pytest.raises(ConfigValidationError):
        parse_config({"master_seed": 2**64, "n_trials": 10})
    with pytest.raises(ConfigValidationError):
        parse_config({"master_seed": 1.5, "n_trials": 10})
    with pytest.raises(ConfigValidationError):
        parse_config({"master_seed": 1, "n_trials": 0})


def test_schema_version_checked():
    assert parse_config({**MINIMAL, "schema_version": 1}).schema_version == 1
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "schema_version": 2})
    assert err.value.field_path == "schema_version"


def test_enum_fields_report_options():
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "collapse": {"model": "psychic"}})
    assert err.value.field_path == "collapse.model"
    assert "jump_exponential" in str(err.value)


def test_scenario_r_rules():
    config = parse_config({**MINIMAL, "scenario": {"tag": "random_percept", "r": 0.25}})
    assert config.scenario.r == 0.25
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "scenario": {"tag": "random_percept"}})
    assert err.value.field_path == "scenario.r"
    with pytest.raises(ConfigValidationError):
        parse_config({**MINIMAL, "scenario": {"tag": "fixed_c1", "r": 0.25}})


def test_diffusion_requires_gamma():
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "collapse": {"model": "diffusion", "t_c_mean": 1.0}})
    assert err.value.field_path == "collapse.gamma"
    config = parse_config(
        {**MINIMAL, "collapse": {"model": "diffusion", "t_c_mean": 1.0, "gamma": 3.7}}
    )
    assert config.collapse.gamma == 3.7


def test_energy_resolves_or_checks_t_c():
    config = parse_config({**MINIMAL, "collapse": {"energy": 2.0}})
    assert config.collapse.t_c_mean == 0.5
    ok = parse_config({**MINIMAL, "collapse": {"t_c_mean": 0.5, "energy": 2.0}})
    assert ok.collapse.energy == 2.0
    with pytest.raises(ConfigValidationError):
        parse_config({**MINIMAL, "collapse": {"t_c_mean": 1.0, "energy": 2.0}})


def test_dt_cross_check_named():
    # Diffusion is sampled exactly, with no time step: a config that still
    # sets one is rejected at that field, whatever its value.
    for dt in (0.5, 1e-4):
        with pytest.raises(ConfigValidationError) as err:
            parse_config({**MINIMAL, "collapse": {"model": "diffusion", "t_c_mean": 1.0, "gamma": 3.7, "dt": dt}})
        assert err.value.field_path == "collapse.dt"
    assert "collapse.dt" not in SWEEPABLE_FIELDS


def test_sweep_expansion_ordered_by_value():
    raw = {
        **MINIMAL,
        "sweep": {"param": "collapse.t_c_mean", "values": [10, 0.01, 180, 0.001, 1, 0.1]},
    }
    points = expand_sweep(raw)
    assert [value for value, _ in points] == [0.001, 0.01, 0.1, 1, 10, 180]
    assert [cfg.collapse.t_c_mean for _, cfg in points] == [0.001, 0.01, 0.1, 1, 10, 180]
    assert all(cfg.sweep is None for _, cfg in points)


def test_sweep_validation():
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "sweep": {"param": "collapse.t_c_mean", "values": []}})
    assert err.value.field_path == "sweep.values"
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "sweep": {"param": "master_seed", "values": [1]}})
    assert err.value.field_path == "sweep.param"
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "sweep": {"param": "rule.batch_n", "values": [1, 2.5]}})
    assert "sweep.values[1]" == err.value.field_path
    assert SWEEPABLE_FIELDS["rule.batch_n"] is int


def test_sweep_point_revalidates():
    raw = {**MINIMAL, "sweep": {"param": "observer.t_p", "values": [0.001, -0.5]}}
    with pytest.raises(ConfigValidationError) as err:
        expand_sweep(raw)
    assert err.value.field_path == "observer.t_p"


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL, "collapse": {"t_c_mean": 2.5}}))
    config = load_config(path)
    assert config.collapse.t_c_mean == 2.5


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigFileError):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigParseError):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigParseError):
        load_config(array)


def test_config_echo_contains_resolved_values():
    config = parse_config(MINIMAL)
    echoed = config_to_json_dict(config)
    assert echoed["rule"]["threshold_time"] == pytest.approx(0.051)
    assert "dt" not in echoed["collapse"]
    assert echoed["master_seed"] == 42
    json.dumps(echoed)  # must be serializable as-is


def test_device_baseline_type_checked():
    with pytest.raises(ConfigValidationError):
        parse_config({**MINIMAL, "device_baseline": "yes"})
    assert parse_config({**MINIMAL, "device_baseline": True}).device_baseline
