"""Monte Carlo study of collapse-timing discrimination of nonorthogonal states.

The package simulates a measurement chain in which wave-function collapse is
a real dynamical process with a finite, stochastic duration.  An observer
with perception latency ``t_p`` facing a superposed input cannot report a
definite percept until collapse completes (mean time ``t_c``); when the gap
``t_c - t_p`` is identifiable, that timing side channel (or awareness of a
percept change) lets the observer distinguish input states no projective
device can separate reliably in a single shot.
"""

from .collapse import (
    Calibration,
    CollapseModel,
    CollapseParams,
    calibrate_gamma,
    diffusion_gamma,
    sample_collapses,
    t_c_from_energy,
)
from .config import ExperimentConfig, SweepSpec, expand_sweep, load_config, parse_config
from .errors import (
    CalibrationError,
    ConfigError,
    ConfigFileError,
    ConfigParseError,
    ConfigValidationError,
    FieldError,
    ModelMisuseError,
    QscError,
)
from .observer import (
    ObserverParams,
    PerceptionScenario,
    ScenarioTag,
    awareness_probability,
    qsc_condition_satisfied,
)
from .protocol import (
    DecisionRule,
    ExperimentSummary,
    RuleKind,
    optimal_device_bound,
    run_experiment,
    run_experiments,
)
from .states import (
    Branch,
    InputKind,
    InputState,
    born_probability,
    make_input_state,
    state_fidelity,
)
from .stats import RateEstimate, wilson_interval

__all__ = [
    "Branch",
    "Calibration",
    "CalibrationError",
    "CollapseModel",
    "CollapseParams",
    "ConfigError",
    "ConfigFileError",
    "ConfigParseError",
    "ConfigValidationError",
    "DecisionRule",
    "ExperimentConfig",
    "ExperimentSummary",
    "FieldError",
    "InputKind",
    "InputState",
    "ModelMisuseError",
    "ObserverParams",
    "PerceptionScenario",
    "QscError",
    "RateEstimate",
    "RuleKind",
    "ScenarioTag",
    "SweepSpec",
    "awareness_probability",
    "born_probability",
    "calibrate_gamma",
    "diffusion_gamma",
    "expand_sweep",
    "load_config",
    "make_input_state",
    "optimal_device_bound",
    "parse_config",
    "qsc_condition_satisfied",
    "run_experiment",
    "run_experiments",
    "sample_collapses",
    "state_fidelity",
    "t_c_from_energy",
    "wilson_interval",
]

__version__ = "0.1.0"
