"""Pinned outputs of the random stream.

Each case runs small configs and compares every integer count and the exact
``float.hex`` of each mean report time against values recorded under
:data:`PINNED_STREAM` with numpy :data:`PINNED_NUMPY`.  Between them the
cases cover the three collapse laws, the five scenarios, the three rules,
jitter on and off, the device baseline, ``batch_n`` > 1, a run of two
blocks, a group of sweep points that share draws, and a group run in
slices.

A change that moves a pin changes the outputs for a given seed.  If it also
changes the draw layout, it bumps ``RNG_STREAM`` and re-pins.  numpy does not
promise Generator streams across versions (NEP 19), so on another numpy
version a mismatch is a failure to look into, not proof of a layout change.
"""

import numpy as np
import pytest

from qscsim import protocol
from qscsim.config import expand_sweep, parse_config
from qscsim.protocol import BLOCK_SIZE, RNG_STREAM, run_experiments

PINNED_STREAM = "block-v1"
PINNED_NUMPY = "2.4.6"


def raw(model="jump_exponential", tag="post_collapse_only", kind="timing_threshold", **overrides):
    """A small config: jump times straddle the threshold, and ``input_p1`` 0.3
    makes the two fixed scenarios differ.  A dict override updates its section."""
    config = {
        "master_seed": 2024,
        "n_trials": 600,
        "input_p1": 0.3,
        "collapse": {"model": model, "t_c_mean": 0.02},
        "observer": {"t_p": 0.01, "jitter_sigma": 0.0, "resolution": 0.01},
        "scenario": {"tag": tag, **({"r": 0.4} if tag == "random_percept" else {})},
        "rule": {"kind": kind, "batch_n": 1, **({} if kind == "change_detection" else {"threshold_time": 0.03})},
    }
    for key, value in overrides.items():
        config[key] = {**config.get(key, {}), **value} if key != "sweep" and isinstance(value, dict) else value
    return config


JITTER = {"jitter_sigma": 0.015}

#: Each case is a list of raw configs, run together by ``run_experiments``;
#: a config with a sweep stands for its points.
CASES = {
    "jump_post_collapse_timing": [raw(observer=JITTER)],
    "jump_distinct_combined": [raw(tag="distinct_percept", kind="combined", observer=JITTER)],
    "deterministic_fixed_c1_change_batch": [raw("deterministic_time", "fixed_c1", "change_detection", rule={"batch_n": 2})],
    "deterministic_fixed_c2_combined_device": [
        raw("deterministic_time", "fixed_c2", "combined", device_baseline=True, observer=JITTER)
    ],
    "jump_random_percept_combined_batch_device": [
        raw(tag="random_percept", kind="combined", rule={"batch_n": 3}, device_baseline=True, observer=JITTER)
    ],
    "jump_no_change_guess_superposition": [
        raw(tag="fixed_c1", kind="combined", rule={"no_change_guess": "superposition"}, device_baseline=True)
    ],
    "diffusion_post_collapse_timing": [raw("diffusion", observer=JITTER)],
    "diffusion_fixed_c2_combined_batch_device": [
        raw("diffusion", "fixed_c2", "combined", rule={"batch_n": 2}, device_baseline=True, input_p1=0.8)
    ],
    "diffusion_random_percept_change": [raw("diffusion", "random_percept", "change_detection", observer=JITTER)],
    "two_blocks": [
        raw(tag="distinct_percept", kind="combined", n_trials=BLOCK_SIZE + 300, device_baseline=True, observer=JITTER)
    ],
    "shared_draws": [
        raw(observer=JITTER),
        raw(collapse={"t_c_mean": 0.03}, observer=JITTER),
        raw(observer={"t_p": 0.02, **JITTER}),
        raw(rule={"threshold_time": 0.04}, observer=JITTER),
    ],
    "diffusion_sweep": [
        raw("diffusion", observer=JITTER,
            sweep={"param": "collapse.t_c_mean", "values": [0.01, 0.02, 0.05]}),
    ],
}
#: Run with two blocks' worth per slice: three points of two blocks each
#: run as slices of two points and one.
SLICED = [raw(n_trials=BLOCK_SIZE + 10, collapse={"t_c_mean": 0.01 * k}, observer=JITTER) for k in (1, 2, 3)]


def configs(raws):
    out = []
    for raw_config in raws:
        if "sweep" in raw_config:
            out += [point for _, point in expand_sweep(raw_config)]
        else:
            out.append(parse_config(raw_config))
    return out


def pin(summary):
    device = summary.device_success
    return (
        summary.definite.successes, summary.definite.trials,
        summary.superposition.successes, summary.superposition.trials,
        None if device is None else device.successes,
        summary.mean_report_time_definite.hex(), summary.mean_report_time_superposition.hex(),
    )


def pins(raws):
    return [pin(summary) for summary in run_experiments(configs(raws))]


#: Per case, one pin per config: (definite correct, definite trials,
#: superposition correct, superposition trials, device correct or None,
#: mean report time definite, mean report time superposition).
PINS = {
    "jump_post_collapse_timing": [
        (272, 301, 134, 299, None, "0x1.8a51d89225f6ep-7", "0x1.0300a782b3928p-5"),
    ],
    "jump_distinct_combined": [
        (272, 301, 299, 299, None, "0x1.8a51d89225f6ep-7", "0x1.a448c0eb94508p-7"),
    ],
    "deterministic_fixed_c1_change_batch": [
        (301, 301, 276, 299, None, "0x1.47ae147ae147ap-7", "0x1.47ae147ae147bp-7"),
    ],
    "deterministic_fixed_c2_combined_device": [
        (265, 301, 115, 299, 505, "0x1.ac3efad5daeacp-7", "0x1.79e45fa4d6e00p-7"),
    ],
    "jump_random_percept_combined_batch_device": [
        (233, 301, 267, 299, 505, "0x1.90eb71ee98565p-7", "0x1.9eab7daa32c76p-7"),
    ],
    "jump_no_change_guess_superposition": [
        (0, 301, 299, 299, 299, "0x1.47ae147ae147ap-7", "0x1.47ae147ae147ap-7"),
    ],
    "diffusion_post_collapse_timing": [
        (283, 301, 142, 299, None, "0x1.67d6a49b401a2p-7", "0x1.ec9758f5acdfdp-6"),
    ],
    "diffusion_fixed_c2_combined_batch_device": [
        (301, 301, 291, 299, 370, "0x1.47ae147ae147ap-7", "0x1.47ae147ae147bp-7"),
    ],
    "diffusion_random_percept_change": [
        (301, 301, 139, 299, None, "0x1.b7505c8205312p-7", "0x1.6d90200fc74fep-7"),
    ],
    "two_blocks": [
        (2025, 2239, 2157, 2157, 3709, "0x1.94aa11bc36ae3p-7", "0x1.8e2fc7535e827p-7"),
    ],
    "shared_draws": [
        (272, 301, 134, 299, None, "0x1.8a51d89225f6ep-7", "0x1.0300a782b3928p-5"),
        (272, 301, 166, 299, None, "0x1.8a51d89225f6ep-7", "0x1.5531485d980c9p-5"),
        (222, 301, 190, 299, None, "0x1.4c0321a3840ddp-6", "0x1.50a0b817111a4p-5"),
        (293, 301, 83, 299, None, "0x1.8a51d89225f6ep-7", "0x1.0300a782b3928p-5"),
    ],
    "diffusion_sweep": [
        (283, 301, 72, 299, None, "0x1.67d6a49b401a2p-7", "0x1.50d68a1374c98p-6"),
        (283, 301, 142, 299, None, "0x1.67d6a49b401a2p-7", "0x1.ec9758f5acdfdp-6"),
        (283, 301, 253, 299, None, "0x1.67d6a49b401a2p-7", "0x1.e8a93ed381bf9p-5"),
    ],
}
SLICED_PINS = [
    (1883, 2082, 557, 2024, None, "0x1.925552de2464dp-7", "0x1.550ef44a90cbbp-6"),
    (1883, 2082, 877, 2024, None, "0x1.925552de2464dp-7", "0x1.f013e0529b1cbp-6"),
    (1883, 2082, 1109, 2024, None, "0x1.925552de2464dp-7", "0x1.4734ffae9a736p-5"),
]
WHERE = f"pinned under {PINNED_STREAM} with numpy {PINNED_NUMPY}; numpy here is {np.__version__}"


def test_pins_are_for_this_stream():
    assert RNG_STREAM == PINNED_STREAM, "a new stream layout needs new pins"
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_stream_pin(name):
    assert pins(CASES[name]) == PINS[name], WHERE


def test_sliced_group_pin(monkeypatch):
    monkeypatch.setattr(protocol, "_SLICE_BLOCKS", 2)
    assert pins(SLICED) == SLICED_PINS, WHERE
