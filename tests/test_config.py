import copy
import dataclasses
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from qscsim.cli import _dumps
from qscsim.collapse import CollapseModel, CollapseParams, between_bands, diffusion_gamma, sample_collapses
from qscsim.config import (
    SWEEPABLE_FIELDS,
    expand_sweep,
    load_config,
    parse_config,
    set_config_field,
)
from qscsim.errors import ConfigError, FieldError
from qscsim.observer import ScenarioTag
from qscsim.protocol import MAX_BATCH_N, ExperimentSummary, RuleKind, _draw_paths, run_experiment
from qscsim.report import to_json_dict

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
    assert config.scenario.tag is ScenarioTag.POST_COLLAPSE_ONLY
    assert config.rule.kind is RuleKind.TIMING_THRESHOLD
    # resolved threshold: t_p + 5 * max(jitter, 0.01)
    assert config.rule.threshold_time == pytest.approx(0.051)
    assert config.rule.batch_n == 5
    assert config.device_baseline is False
    assert config.sweep is None


def test_required_fields():
    with pytest.raises(FieldError) as err:
        parse_config({"n_trials": 10})
    assert err.value.field == "master_seed"
    assert isinstance(err.value, ConfigError) and isinstance(err.value, ValueError)
    with pytest.raises(FieldError) as err:
        parse_config({"master_seed": 1})
    assert err.value.field == "n_trials"


def test_negative_collapse_time_names_its_dotted_path():
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "collapse": {"t_c_mean": -1}})
    assert err.value.field == "collapse.t_c_mean"


def test_unknown_keys_are_errors():
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "surprise": 1})
    assert err.value.field == "surprise"
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "observer": {"t_p": 0.001, "latency": 2}})
    assert err.value.field == "observer.latency"


def test_master_seed_range_and_types():
    with pytest.raises(FieldError):
        parse_config({"master_seed": -1, "n_trials": 10})
    with pytest.raises(FieldError):
        parse_config({"master_seed": 2**64, "n_trials": 10})
    with pytest.raises(FieldError):
        parse_config({"master_seed": 1.5, "n_trials": 10})
    with pytest.raises(FieldError):
        parse_config({"master_seed": 1, "n_trials": 0})


def test_n_trials_is_bounded_by_exact_float_counts():
    # Every count up to 2**53 is exact in a float64; a larger n_trials is
    # refused at parse time, before a block runs.  No test runs these sizes.
    assert parse_config({**MINIMAL, "n_trials": 2**53}).n_trials == 2**53
    for n_trials in (2**53 + 1, 2**64, 10**30):
        with pytest.raises(FieldError) as err:
            parse_config({**MINIMAL, "n_trials": n_trials})
        assert err.value.field == "n_trials"
        assert err.value.message == f"must be in [1, 2**53], got {n_trials}"
    with pytest.raises(FieldError) as err:
        expand_sweep({**MINIMAL, "sweep": {"param": "n_trials", "values": [10, 2**53 + 1]}})
    assert err.value.field == "n_trials"
    assert err.value.message.endswith(f"(sweep point n_trials = {2**53 + 1})")


def test_batch_n_is_bounded_by_one_block_of_copies():
    # One block's array of copies holds at most 2**22 floats.  The cap runs
    # on one decision; a larger batch_n is refused before a block runs, from
    # a config, a sweep point or dataclasses.replace.
    assert MAX_BATCH_N == 1024
    config = parse_config({**MINIMAL, "n_trials": 1, "rule": {"kind": "change_detection", "batch_n": MAX_BATCH_N}})
    assert run_experiment(config).n_trials == 1
    for batch_n in (MAX_BATCH_N + 1, 10**15):
        with pytest.raises(FieldError) as err:
            parse_config({**MINIMAL, "rule": {"batch_n": batch_n}})
        assert err.value.field == "rule.batch_n"
        assert err.value.message == f"must be in [1, 1024], got {batch_n}"
    with pytest.raises(FieldError) as err:
        expand_sweep({**MINIMAL, "sweep": {"param": "rule.batch_n", "values": [1, MAX_BATCH_N + 1]}})
    assert err.value.field == "rule.batch_n"
    assert err.value.message.endswith(f"(sweep point rule.batch_n = {MAX_BATCH_N + 1})")
    with pytest.raises(FieldError) as err:
        dataclasses.replace(config.rule, batch_n=MAX_BATCH_N + 1)
    assert err.value.field == "batch_n"


def test_schema_version_checked():
    assert parse_config({**MINIMAL, "schema_version": 1}).schema_version == 1
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "schema_version": 2})
    assert err.value.field == "schema_version"


def test_enum_fields_report_options():
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "collapse": {"model": "psychic"}})
    assert err.value.field == "collapse.model"
    assert "jump_exponential" in str(err.value)


def test_scenario_r_rules():
    config = parse_config({**MINIMAL, "scenario": {"tag": "random_percept", "r": 0.25}})
    assert config.scenario.r == 0.25
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "scenario": {"tag": "random_percept"}})
    assert err.value.field == "scenario.r"
    with pytest.raises(FieldError):
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
        assert to_json_dict(config)["collapse"]["gamma"] == given


@pytest.mark.parametrize("gamma", [2.0, diffusion_gamma(1.0, 0.5, 1e-3) * (1.0 + 2e-9), -1.0, 0.0])
def test_diffusion_gamma_inconsistent_with_t_c_mean_is_an_error(gamma):
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "collapse": {**DIFFUSION, "gamma": gamma}})
    assert err.value.field == "collapse.gamma"
    if gamma > 0.0:
        assert "t_c_mean 1.0" in str(err.value)


def _run_outcome(config):
    try:
        return run_experiment(config)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p1", [0.0, 1e-4, 1e-3, 1.0 - 1e-3, 1.0])
def test_diffusion_gamma_with_input_p1_in_a_band(p1):
    # The closed form needs epsilon < input_p1 < 1 - epsilon; outside it an
    # explicit gamma is taken as given and an omitted one stays None.
    given = parse_config({**MINIMAL, "n_trials": 200, "input_p1": p1, "collapse": {**DIFFUSION, "gamma": 2.0}})
    assert given.collapse.gamma == 2.0
    omitted = parse_config({**MINIMAL, "n_trials": 200, "input_p1": p1, "collapse": DIFFUSION})
    assert omitted.collapse.gamma is None
    assert to_json_dict(omitted)["collapse"]["gamma"] is None
    # Outside the band neither run reads gamma: every superposition has
    # collapsed at time 0, so both give the same summary.
    assert _run_outcome(omitted) == _run_outcome(given)


def test_diffusion_run_from_p1_zero_equals_a_start_inside_the_lower_band():
    # input_p1 0 and 5e-4 both start in the lower band, so every superposed
    # copy has collapsed onto B2 at time 0; under fixed_c1 that reads as a
    # change, so the outcome, not just the time, is compared.
    raw = {**MINIMAL, "n_trials": 5000, "collapse": DIFFUSION, "scenario": {"tag": "fixed_c1"}, "rule": {"kind": "combined"}}
    zero, inside = (run_experiment(parse_config({**raw, "input_p1": p1})) for p1 in (0.0, 5e-4))
    assert zero == inside
    assert zero.accuracy_superposition.successes == zero.accuracy_superposition.trials > 0


@pytest.mark.parametrize(
    "p1", [edge for band in (1e-3, 1.0 - 1e-3) for edge in (math.nextafter(band, 0.0), band, math.nextafter(band, 1.0))]
)
def test_band_edge_start_needs_gamma_exactly_when_it_walks(p1):
    # The config asks for gamma, and the sampler walks, from the same starts;
    # a run without gamma runs or names collapse.gamma.
    raw = {**MINIMAL, "n_trials": 200, "input_p1": p1, "collapse": DIFFUSION}
    try:
        config = parse_config(raw)
    except FieldError as exc:
        assert exc.field == "collapse.gamma"
        return
    assert isinstance(run_experiment(config), ExperimentSummary)
    law = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=2.0, epsilon=1e-3)
    times, _ = sample_collapses(p1, law, np.random.default_rng(5), 8)
    walks = bool(np.all(times > 0.0))
    assert walks == bool(np.any(times > 0.0))
    assert (config.collapse.gamma is not None) == walks == between_bands(p1, 1e-3)


@pytest.mark.parametrize("p1", [1.5, -0.5])
def test_input_p1_out_of_range_is_named_before_an_omitted_diffusion_gamma(p1):
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "input_p1": p1, "collapse": DIFFUSION})
    assert err.value.field == "input_p1"
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
        with pytest.raises(FieldError) as err:
            call(raw)
        assert err.value.field == "sweep.param"


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
        ("n_trials", lambda c: dataclasses.replace(c, n_trials=2**53 + 1)),
        ("batch_n", lambda c: dataclasses.replace(c.rule, batch_n=2.5)),
        ("batch_n", lambda c: dataclasses.replace(c.rule, batch_n=True)),
        ("schema_version", lambda c: dataclasses.replace(c, schema_version=2)),
        ("collapse.gamma", lambda c: _replace_collapse(c, gamma=2.0)),
        ("collapse.gamma", lambda c: _replace_collapse(c, t_c_mean=2.0)),
        ("collapse.gamma", lambda c: _replace_collapse(c, gamma=None)),
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
        # an integer beyond the float range is not finite
        ("collapse", "t_c_mean", 10**401, {}),
        ("collapse", "epsilon", 0.5, {}),
        ("collapse", "t_c_mean", -1.0, {}),
        ("collapse", "epsilon", 0.0, {"model": "diffusion"}),
        ("collapse", "gamma", 0.0, {}),
        ("collapse", "gamma", -2.0, {"model": "diffusion", "t_c_mean": 1.0}),
        ("collapse", "gamma", math.nan, {"model": "diffusion"}),
        ("observer", "t_p", 0.0, {}),
        ("observer", "jitter_sigma", -1.0, {}),
        ("observer", "t_p", -1.0, {}),
        ("scenario", "r", 0.3, {}),
        ("scenario", "r", 1.5, {"tag": "random_percept"}),
        ("rule", "threshold_time", 0.0, {}),
        ("rule", "batch_n", 0, {}),
        # a diffusion t_c_mean so small that the closed-form gamma overflows,
        # whether gamma is omitted or given
        ("collapse", "t_c_mean", 1e-320, {"model": "diffusion"}),
        ("collapse", "t_c_mean", 1e-320, {"model": "diffusion", "gamma": 1.0}),
    ],
)
def test_dataclass_range_error_keeps_its_dotted_path(section, field, value, other):
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, section: {field: value, **other}})
    assert err.value.field == f"{section}.{field}"


TIME_FIELDS = ["collapse.t_c_mean", "observer.t_p", "observer.jitter_sigma"]


@pytest.mark.parametrize("path", TIME_FIELDS)
@pytest.mark.parametrize("value", [1.0000000000000002e100, 1e306, sys.float_info.max])
def test_time_above_the_bound_is_refused_at_its_own_path(path, value):
    # Not at a default threshold or a report-time sum that the value would overflow.
    with pytest.raises(FieldError, match=re.escape(f"must be <= 1e+100 s, got {value!r}")) as err:
        parse_config(set_config_field(MINIMAL, path, value))
    assert err.value.field == path


def test_times_at_the_bound_run_to_finite_output():
    raw = MINIMAL | {"n_trials": 5000, "collapse": {"t_c_mean": 1e100}}
    for path in TIME_FIELDS[1:]:
        raw = set_config_field(raw, path, 1e100)
    config = parse_config(raw)
    assert config.rule.threshold_time == 6e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_experiment(config)
    assert math.isfinite(summary.mean_report_time_definite)
    assert math.isfinite(summary.mean_report_time_superposition)


def test_dt_cross_check_named():
    # Diffusion is sampled exactly, with no time step: a config that still
    # sets one is rejected at that field, whatever its value.
    for dt in (0.5, 1e-4):
        with pytest.raises(FieldError) as err:
            parse_config({**MINIMAL, "collapse": {"model": "diffusion", "t_c_mean": 1.0, "gamma": 3.7, "dt": dt}})
        assert err.value.field == "collapse.dt"
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
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "sweep": {"param": "collapse.t_c_mean", "values": []}})
    assert err.value.field == "sweep.values"
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "sweep": {"param": "master_seed", "values": [1]}})
    assert err.value.field == "sweep.param"
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "sweep": {"param": "rule.batch_n", "values": [1, 2.5]}})
    assert "sweep.values[1]" == err.value.field
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, "sweep": {"param": "observer.resolution", "values": [0.01]}})
    assert err.value.field == "sweep.param"
    assert list(SWEEPABLE_FIELDS.items()) == [
        ("n_trials", int), ("priors", float), ("input_p1", float),
        ("collapse.t_c_mean", float), ("collapse.epsilon", float),
        ("observer.t_p", float), ("observer.jitter_sigma", float),
        ("scenario.r", float), ("rule.threshold_time", float), ("rule.batch_n", int),
    ]


def test_stream_layout_paths():
    assert _draw_paths(type(parse_config(MINIMAL))) == (
        "master_seed", "n_trials", "priors", "input_p1", "collapse.model", "collapse.epsilon",
        "observer.jitter_sigma", "scenario.tag", "scenario.r", "rule.kind", "rule.batch_n", "device_baseline",
    )


def test_sweep_point_revalidates():
    raw = {**MINIMAL, "sweep": {"param": "observer.t_p", "values": [0.001, -0.5]}}
    with pytest.raises(FieldError) as err:
        expand_sweep(raw)
    assert err.value.field == "observer.t_p"
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
    # default threshold: t_p + 5 * max(jitter_sigma, 0.01)
    for jitter_sigma, margin in ((0.0002, 0.05), (0.02, 0.1)):
        sweep = {"param": "observer.t_p", "values": [0.001, 0.02, 0.3]}
        for value, cfg in expand_sweep({**MINIMAL, "observer": {"jitter_sigma": jitter_sigma}, "sweep": sweep}):
            assert cfg.rule.threshold_time == pytest.approx(value + margin)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MINIMAL, "collapse": {"t_c_mean": 2.5}}))
    config = load_config(path)
    assert config.collapse.t_c_mean == 2.5


def test_missing_file_and_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    digits = tmp_path / "digits.json"
    digits.write_text(json.dumps(MINIMAL)[:-1] + ', "priors": ' + "1" * 5000 + "}")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"master_seed": 1, "n_trials": 1}\xff')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)  # nested beyond the recursion limit
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"master_seed": 1, "n_trials": 10, "n_trials": 1000}')
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps(MINIMAL)[:-1] + ', "collapse": {"model": "jump_exponential", "model": "diffusion"}}')
    for path, problem in (
        (tmp_path / "nope.json", "cannot read config file"),
        (bad, "is not valid JSON"),
        (array, "must contain a JSON object"),
        (digits, "is not valid JSON"),
        (binary, "is not valid UTF-8"),
        (deep, "is not valid JSON"),
        (repeated, "repeats the key 'n_trials'"),
        (nested, "repeats the key 'model'"),
    ):
        with pytest.raises(ConfigError, match=re.escape(str(path))) as err:
            load_config(path)
        assert type(err.value) is ConfigError and problem in str(err.value)


def test_config_echo_contains_resolved_values():
    config = parse_config(MINIMAL)
    echoed = to_json_dict(config)
    assert echoed["rule"]["threshold_time"] == pytest.approx(0.051)
    assert "dt" not in echoed["collapse"]
    assert echoed["master_seed"] == 42
    assert json.dumps(echoed) == (
        '{"schema_version": 1, "master_seed": 42, "n_trials": 1000, "priors": 0.5, "input_p1": 0.5, '
        '"collapse": {"model": "jump_exponential", "t_c_mean": 180.0, "gamma": null, "epsilon": 0.001}, '
        '"observer": {"t_p": 0.001, "jitter_sigma": 0.0002}, '
        '"scenario": {"tag": "post_collapse_only", "r": null}, "rule": {"kind": "timing_threshold", '
        '"threshold_time": 0.051000000000000004, "batch_n": 5}, '
        '"device_baseline": false, "sweep": null}'
    )
    sweep = {"param": "priors", "values": [0.25, 0.75]}
    assert to_json_dict(parse_config({**MINIMAL, "sweep": sweep}))["sweep"] == sweep


@pytest.mark.parametrize(
    "raw",
    [
        {**MINIMAL, "collapse": {"model": "jump_exponential", "t_c_mean": 2.0}},
        {**MINIMAL, "collapse": {"model": "deterministic_time", "t_c_mean": 2.0},
         "rule": {"kind": "combined", "threshold_time": 0.5}},
        {**MINIMAL, "input_p1": 0.3, "collapse": {**DIFFUSION, "gamma": diffusion_gamma(1.0, 0.3, 1e-3)}},
        {**MINIMAL, "input_p1": 0.3, "collapse": DIFFUSION, "scenario": {"tag": "random_percept", "r": 0.4}},
        {**MINIMAL, "rule": {"kind": "change_detection", "batch_n": 3},
         "sweep": {"param": "collapse.t_c_mean", "values": [1.0, 2.0]}},
    ],
    ids=["jump", "deterministic", "diffusion", "diffusion_gamma_omitted", "sweep"],
)
def test_config_echo_reads_back_as_the_same_config(raw):
    # The echo that run and sweep write is itself a config that parses to the one echoed.
    config = parse_config(raw)
    assert parse_config(json.loads(_dumps(to_json_dict(config)))) == config


@pytest.mark.parametrize(
    "extra, field",
    [
        # Two type faults in collapse are named in declaration order.
        ({"collapse": {"epsilon": "x", "t_c_mean": "y"}}, "collapse.t_c_mean"),
        # A type fault is named before a range fault earlier in the section.
        ({"collapse": {"t_c_mean": -1.0, "epsilon": "x"}}, "collapse.epsilon"),
        # Top-level values are named before any section fault.
        ({"device_baseline": "yes", "observer": {"t_p": "x"}}, "device_baseline"),
        ({"device_baseline": "yes", "sweep": 3}, "device_baseline"),
        # Orders that stay: an unknown key first, a section that is not an
        # object before faults inside sections, then sections in order.
        ({"priors": "x", "surprise": 1}, "surprise"),
        ({"rule": 3, "collapse": {"model": "psychic"}}, "rule"),
        ({"observer": {"t_p": "x"}, "collapse": {"epsilon": "y"}}, "collapse.epsilon"),
        ({"rule": {"batch_n": 0}, "sweep": {"param": "nope", "values": [1]}}, "rule.batch_n"),
        # Declaration order again: gamma is read before epsilon.
        ({"collapse": {"epsilon": "x", "gamma": "y"}}, "collapse.gamma"),
    ],
)
def test_multi_fault_order(extra, field):
    with pytest.raises(FieldError) as err:
        parse_config({**MINIMAL, **extra})
    assert err.value.field == field


def test_device_baseline_type_checked():
    with pytest.raises(FieldError):
        parse_config({**MINIMAL, "device_baseline": "yes"})
    assert parse_config({**MINIMAL, "device_baseline": True}).device_baseline
