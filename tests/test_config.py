import copy
import dataclasses
import json
import math

import pytest

from qscsim.collapse import CollapseModel, diffusion_gamma
from qscsim.config import (
    SWEEPABLE_FIELDS,
    config_to_json_dict,
    expand_sweep,
    load_config,
    parse_config,
    set_config_field,
)
from qscsim.errors import ConfigFileError, ConfigParseError, ConfigValidationError, FieldError
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


DIFFUSION = {"model": "diffusion", "t_c_mean": 1.0}


def test_diffusion_gamma_omitted_resolves_from_t_c_mean():
    config = parse_config({**MINIMAL, "input_p1": 0.3, "collapse": {**DIFFUSION, "epsilon": 1e-4}})
    assert config.collapse.gamma == diffusion_gamma(1.0, 0.3, 1e-4)
    defaults = parse_config({**MINIMAL, "collapse": {"model": "diffusion"}})
    assert defaults.collapse.gamma == diffusion_gamma(180.0, 0.5, 1e-3)


def test_diffusion_gamma_consistent_is_kept_as_given():
    closed = diffusion_gamma(1.0, 0.5, 1e-3)
    for given in (closed, closed * (1.0 + 5e-10), closed * (1.0 - 5e-10)):
        config = parse_config({**MINIMAL, "collapse": {**DIFFUSION, "gamma": given}})
        assert config.collapse.gamma == given
        assert config_to_json_dict(config)["collapse"]["gamma"] == given


@pytest.mark.parametrize("gamma", [2.0, diffusion_gamma(1.0, 0.5, 1e-3) * (1.0 + 2e-9), -1.0, 0.0])
def test_diffusion_gamma_inconsistent_with_t_c_mean_is_an_error(gamma):
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "collapse": {**DIFFUSION, "gamma": gamma}})
    assert err.value.field_path == "collapse.gamma"
    if gamma > 0.0:
        assert "t_c_mean 1.0" in str(err.value)


@pytest.mark.parametrize("p1", [0.0, 1e-4, 1e-3, 1.0 - 1e-3, 1.0])
def test_diffusion_gamma_with_input_p1_in_a_band(p1):
    # The closed form needs epsilon < input_p1 < 1 - epsilon; outside it an
    # explicit gamma is taken as given and an omitted one is an error.
    config = parse_config({**MINIMAL, "input_p1": p1, "collapse": {**DIFFUSION, "gamma": 2.0}})
    assert config.collapse.gamma == 2.0
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "input_p1": p1, "collapse": DIFFUSION})
    assert err.value.field_path == "collapse.gamma"


@pytest.mark.parametrize("p1", [1.5, -0.5])
def test_input_p1_out_of_range_is_named_before_an_omitted_diffusion_gamma(p1):
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, "input_p1": p1, "collapse": DIFFUSION})
    assert err.value.field_path == "input_p1"
    assert "in [0.0, 1.0]" in err.value.message


def test_sweep_over_t_c_mean_re_resolves_diffusion_gamma():
    raw = {
        **MINIMAL,
        "input_p1": 0.3,
        "collapse": DIFFUSION,
        "sweep": {"param": "collapse.t_c_mean", "values": [4.0, 0.5, 1.0]},
    }
    points = expand_sweep(raw)
    assert [value for value, _ in points] == [0.5, 1.0, 4.0]
    for value, config in points:
        assert config.collapse.gamma == diffusion_gamma(value, 0.3, 1e-3)


def test_collapse_gamma_is_not_a_sweep_target():
    # An in-band diffusion sweep over gamma would fail at its first point,
    # and the other collapse models never read gamma.
    assert "collapse.gamma" not in SWEEPABLE_FIELDS
    raw = {**MINIMAL, "input_p1": 0.3, "collapse": DIFFUSION, "sweep": {"param": "collapse.gamma", "values": [1.0, 2.0]}}
    for call in (parse_config, expand_sweep):
        with pytest.raises(ConfigValidationError) as err:
            call(raw)
        assert err.value.field_path == "sweep.param"


def _replace_collapse(config, **fields):
    return dataclasses.replace(config, collapse=dataclasses.replace(config.collapse, **fields))


@pytest.mark.parametrize(
    "field, edit",
    [
        ("priors", lambda c: dataclasses.replace(c, priors=1.7)),
        ("priors", lambda c: dataclasses.replace(c, priors=math.nan)),
        ("n_trials", lambda c: dataclasses.replace(c, n_trials=0)),
        ("input_p1", lambda c: dataclasses.replace(c, input_p1=-0.1)),
        ("master_seed", lambda c: dataclasses.replace(c, master_seed=2**64)),
        ("master_seed", lambda c: dataclasses.replace(c, master_seed=42.0)),
        ("master_seed", lambda c: dataclasses.replace(c, master_seed=True)),
        ("n_trials", lambda c: dataclasses.replace(c, n_trials=10.5)),
        ("n_trials", lambda c: dataclasses.replace(c, n_trials=True)),
        ("n_trials", lambda c: dataclasses.replace(c, n_trials="10")),
        ("batch_n", lambda c: dataclasses.replace(c.rule, batch_n=2.5)),
        ("batch_n", lambda c: dataclasses.replace(c.rule, batch_n=True)),
        ("schema_version", lambda c: dataclasses.replace(c, schema_version=2)),
        ("collapse.gamma", lambda c: _replace_collapse(c, gamma=2.0)),
        ("collapse.gamma", lambda c: _replace_collapse(c, t_c_mean=2.0)),
    ],
)
def test_replace_on_a_loaded_config_is_validated(tmp_path, field, edit):
    # A config built in code gets the same checks as a config file.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL, "input_p1": 0.3, "collapse": DIFFUSION}))
    with pytest.raises(FieldError) as err:
        edit(load_config(path))
    assert err.value.field == field


def test_gamma_check_leaves_band_and_other_models_alone():
    # Outside (epsilon, 1 - epsilon) any diffusion gamma is taken as given,
    # and the other models never read gamma.
    config = parse_config({**MINIMAL, "input_p1": 0.3, "collapse": DIFFUSION})
    assert dataclasses.replace(config, input_p1=1.0).collapse.gamma == config.collapse.gamma
    jump = parse_config({**MINIMAL, "input_p1": 0.3, "collapse": {"model": "jump_exponential", "t_c_mean": 1.0}})
    assert _replace_collapse(jump, gamma=2.0).collapse.gamma == 2.0


@pytest.mark.parametrize(
    "section, field, value, other",
    [
        ("collapse", "t_c_mean", 0.0, {}),
        ("collapse", "epsilon", 0.5, {}),
        ("collapse", "kappa", -1.0, {}),
        ("collapse", "energy", -2.0, {"t_c_mean": 1.0}),
        ("collapse", "energy", 3.0, {"t_c_mean": 1.0}),
        # a t_c_mean derived from a bad energy or kappa is not blamed for it
        ("collapse", "energy", -2.0, {}),
        ("collapse", "kappa", -1.0, {"energy": 2.0}),
        ("observer", "t_p", 0.0, {}),
        ("observer", "jitter_sigma", -1.0, {}),
        ("observer", "resolution", 0.0, {}),
        ("scenario", "r", 0.3, {}),
        ("scenario", "r", 1.5, {"tag": "random_percept"}),
        ("rule", "threshold_time", 0.0, {}),
        ("rule", "batch_n", 0, {}),
    ],
)
def test_dataclass_range_error_keeps_its_field_path(section, field, value, other):
    with pytest.raises(ConfigValidationError) as err:
        parse_config({**MINIMAL, section: {field: value, **other}})
    assert err.value.field_path == f"{section}.{field}"


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
    assert "observer.t_p = -0.5" in str(err.value)


NESTED = {
    **MINIMAL,
    "collapse": {"model": "deterministic_time", "t_c_mean": 1.0},
    "observer": {"t_p": 0.001, "jitter_sigma": 0.0002},
    "rule": {"kind": "timing_threshold", "batch_n": 1},
}


def test_set_config_field_copies_only_the_path():
    raw = copy.deepcopy(NESTED)
    snapshot = copy.deepcopy(raw)
    updated = set_config_field(raw, "collapse.t_c_mean", 5.0)
    assert raw == snapshot
    assert updated["collapse"] == {**snapshot["collapse"], "t_c_mean": 5.0}
    assert updated["collapse"] is not raw["collapse"]
    assert updated["observer"] is raw["observer"]
    assert set_config_field(raw, "n_trials", 7) == {**snapshot, "n_trials": 7}
    assert raw == snapshot


def test_expand_sweep_leaves_raw_unmutated():
    raw = {**copy.deepcopy(NESTED), "sweep": {"param": "observer.t_p", "values": [0.003, 0.002]}}
    snapshot = copy.deepcopy(raw)
    sections = {key: raw[key] for key in ("collapse", "observer", "rule", "sweep")}
    points = expand_sweep(raw)
    assert [cfg.observer.t_p for _, cfg in points] == [0.002, 0.003]
    assert raw == snapshot
    assert all(raw[key] is section for key, section in sections.items())


@pytest.mark.parametrize("section", ["absent", "null"])
def test_sweep_creates_missing_section(section):
    raw = {**MINIMAL, "sweep": {"param": "observer.t_p", "values": [0.002, 0.004]}}
    if section == "null":
        raw["observer"] = None
    assert set_config_field(raw, "observer.t_p", 0.002)["observer"] == {"t_p": 0.002}
    points = expand_sweep(raw)
    assert [cfg.observer.t_p for _, cfg in points] == [0.002, 0.004]
    assert all(cfg.observer.jitter_sigma == 0.0002 for _, cfg in points)
    assert raw.get("observer") is None


@pytest.mark.parametrize(
    "param, values, read",
    [
        ("priors", [0.9, 0.1, 0.5], lambda cfg: cfg.priors),
        ("n_trials", [300, 100, 200], lambda cfg: cfg.n_trials),
    ],
)
def test_sweep_top_level_param(param, values, read):
    raw = {**NESTED, "sweep": {"param": param, "values": values}}
    points = expand_sweep(raw)
    assert [value for value, _ in points] == sorted(values)
    assert [read(cfg) for _, cfg in points] == sorted(values)
    assert all(cfg.collapse.t_c_mean == 1.0 and cfg.sweep is None for _, cfg in points)


def test_sweep_re_resolves_default_threshold_per_point():
    raw = {**MINIMAL, "sweep": {"param": "observer.t_p", "values": [0.001, 0.02, 0.3]}}
    points = expand_sweep(raw)
    for value, cfg in points:
        # default threshold: t_p + 5 * max(jitter_sigma 0.0002, resolution 0.01)
        assert cfg.rule.threshold_time == pytest.approx(value + 0.05)


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
