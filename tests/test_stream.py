"""Pinned outputs of the random stream.

Each case runs small configs and compares every integer count and the exact
``float.hex`` of each mean report time against values recorded under
:data:`PINNED_STREAM` with numpy :data:`PINNED_NUMPY`.  Between them the
cases cover the three collapse laws, the five scenarios, the three rules,
jitter on and off, the device baseline, ``batch_n`` > 1, a run of two
blocks, a group of sweep points that share draws, and a group evaluated
in chunks.

A change that moves a pin changes the outputs for a given seed.  If it also
changes the draw layout, it bumps ``RNG_STREAM`` and re-pins:
``PYTHONPATH=src python tests/test_stream.py`` prints the ``PINS`` and
``SLICED_PINS`` literals of the current code, to paste over the old ones.
numpy does not promise Generator streams across versions (NEP 19), so on
another numpy version a mismatch is a failure to look into, not proof of a
layout change.
"""

from unittest import mock

import numpy as np
import pytest

from qscsim import protocol
from qscsim.config import expand_sweep, parse_config
from qscsim.protocol import BLOCK_SIZE, RNG_STREAM, run_experiments

PINNED_STREAM = "block-v2"
PINNED_NUMPY = "2.4.6"


def raw(model="jump_exponential", tag="post_collapse_only", kind="timing_threshold", **overrides):
    """A small config: jump times straddle the threshold, and ``input_p1`` 0.3
    makes the two fixed scenarios differ.  A dict override updates its section."""
    config = {
        "master_seed": 2024,
        "n_trials": 600,
        "input_p1": 0.3,
        "collapse": {"model": model, "t_c_mean": 0.02},
        "observer": {"t_p": 0.01, "jitter_sigma": 0.0},
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
    "jump_fixed_c1_combined_device": [raw(tag="fixed_c1", kind="combined", device_baseline=True)],
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
#: Run with a chunk budget of two blocks' worth of copies: the first block
#: of these three points is evaluated in chunks of two points and one.
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
        summary.accuracy_definite.successes, summary.accuracy_definite.trials,
        summary.accuracy_superposition.successes, summary.accuracy_superposition.trials,
        None if device is None else device.successes,
        summary.mean_report_time_definite.hex(), summary.mean_report_time_superposition.hex(),
    )


def pins(raws):
    return [pin(summary) for summary in run_experiments(configs(raws))]


def sliced_pins():
    """The pins of ``SLICED``, evaluated in chunks of two blocks' worth of copies."""
    with mock.patch.object(protocol, "_CHUNK_COPIES", 2 * BLOCK_SIZE):
        return pins(SLICED)


#: Per case, one pin per config: (definite correct, definite trials,
#: superposition correct, superposition trials, device correct or None,
#: mean report time definite, mean report time superposition).
PINS = {
    "jump_post_collapse_timing": [
        (276, 301, 135, 299, None, "0x1.89aed292ebeb5p-7", "0x1.03001f4e43c2cp-5"),
    ],
    "jump_distinct_combined": [
        (276, 301, 299, 299, None, "0x1.89aed292ebeb5p-7", "0x1.a4ecde130aae4p-7"),
    ],
    "deterministic_fixed_c1_change_batch": [
        (301, 301, 276, 299, None, "0x1.47ae147ae147ap-7", "0x1.47ae147ae147bp-7"),
    ],
    "deterministic_fixed_c2_combined_device": [
        (264, 301, 108, 299, 509, "0x1.9e3472e8a8d7dp-7", "0x1.8806f2c0ffdd9p-7"),
    ],
    "jump_random_percept_combined_batch_device": [
        (231, 301, 267, 299, 511, "0x1.927f3f34f40efp-7", "0x1.9d14fcee12609p-7"),
    ],
    "jump_fixed_c1_combined_device": [
        (301, 301, 219, 299, 513, "0x1.47ae147ae147ap-7", "0x1.47ae147ae147ap-7"),
    ],
    "diffusion_post_collapse_timing": [
        (274, 301, 132, 299, None, "0x1.77dd2ed6bbab4p-7", "0x1.e08e7b80b8327p-6"),
    ],
    "diffusion_fixed_c2_combined_batch_device": [
        (301, 301, 291, 299, 350, "0x1.47ae147ae147ap-7", "0x1.47ae147ae147bp-7"),
    ],
    "diffusion_random_percept_change": [
        (301, 301, 139, 299, None, "0x1.7dd18b98daa9ep-7", "0x1.a771651953bb0p-7"),
    ],
    "two_blocks": [
        (2047, 2239, 2157, 2157, 3730, "0x1.93eee6c9e490bp-7", "0x1.8ef20fcba35e4p-7"),
    ],
    "shared_draws": [
        (276, 301, 135, 299, None, "0x1.89aed292ebeb5p-7", "0x1.03001f4e43c2cp-5"),
        (276, 301, 170, 299, None, "0x1.89aed292ebeb5p-7", "0x1.54c14b1908c9ep-5"),
        (224, 301, 188, 299, None, "0x1.4cbf2be97fb84p-6", "0x1.50395507b2781p-5"),
        (293, 301, 94, 299, None, "0x1.89aed292ebeb5p-7", "0x1.03001f4e43c2cp-5"),
    ],
    "diffusion_sweep": [
        (274, 301, 69, 299, None, "0x1.77dd2ed6bbab4p-7", "0x1.45884b02a7333p-6"),
        (274, 301, 132, 299, None, "0x1.77dd2ed6bbab4p-7", "0x1.e08e7b80b8327p-6"),
        (274, 301, 256, 299, None, "0x1.77dd2ed6bbab4p-7", "0x1.e20891dfeae24p-5"),
    ],
}
SLICED_PINS = [
    (1901, 2082, 551, 2024, None, "0x1.926e651810dc5p-7", "0x1.557c8e460a398p-6"),
    (1901, 2082, 874, 2024, None, "0x1.926e651810dc5p-7", "0x1.f127eb134591dp-6"),
    (1901, 2082, 1112, 2024, None, "0x1.926e651810dc5p-7", "0x1.47f1a30d6b0f0p-5"),
]
WHERE = f"pinned under {PINNED_STREAM} with numpy {PINNED_NUMPY}; numpy here is {np.__version__}"


def test_pins_are_for_this_stream():
    assert RNG_STREAM == PINNED_STREAM, "a new stream layout needs new pins"
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_stream_pin(name):
    assert pins(CASES[name]) == PINS[name], WHERE


def test_sliced_group_pin():
    assert sliced_pins() == SLICED_PINS, WHERE


def literal(values):
    """A pin as the source text of its tuple, strings in double quotes."""
    return "(" + ", ".join(f'"{value}"' if isinstance(value, str) else repr(value) for value in values) + ")"


def main():
    """Print the pin literals of the current code."""
    print("PINS = {")
    for name, raws in CASES.items():
        print(f'    "{name}": [')
        for values in pins(raws):
            print(f"        {literal(values)},")
        print("    ],")
    print("}")
    print("SLICED_PINS = [")
    for values in sliced_pins():
        print(f"    {literal(values)},")
    print("]")


if __name__ == "__main__":
    main()
