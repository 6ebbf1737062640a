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
    CollapseEvent,
    CollapseModel,
    CollapseParams,
    calibrate_gamma,
    collapse_for_input,
    diffusion_gamma,
    sample_collapse_time,
    sample_collapse_times,
    sample_outcome,
    simulate_diffusion_collapse,
    simulate_diffusion_ensemble,
    t_c_from_energy,
)
from .config import ExperimentConfig, SweepSpec, expand_sweep, load_config, parse_config
from .errors import (
    CalibrationError,
    CollapseTimeoutError,
    ConfigError,
    ConfigFileError,
    ConfigParseError,
    ConfigValidationError,
    ModelMisuseError,
    QscError,
)
from .observer import (
    ObserverParams,
    Percept,
    PerceptionReport,
    PerceptionScenario,
    ScenarioTag,
    awareness_probability,
    perceive_definite,
    perceive_superposition,
    qsc_condition_satisfied,
)
from .protocol import (
    DecisionRule,
    ExperimentSummary,
    RuleKind,
    TrialRecord,
    classify_batch,
    classify_single,
    device_trial,
    optimal_device_bound,
    run_experiment,
    run_trial,
    trial_rng,
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
    "CollapseEvent",
    "CollapseModel",
    "CollapseParams",
    "CollapseTimeoutError",
    "ConfigError",
    "ConfigFileError",
    "ConfigParseError",
    "ConfigValidationError",
    "DecisionRule",
    "ExperimentConfig",
    "ExperimentSummary",
    "InputKind",
    "InputState",
    "ModelMisuseError",
    "ObserverParams",
    "Percept",
    "PerceptionReport",
    "PerceptionScenario",
    "QscError",
    "RateEstimate",
    "RuleKind",
    "ScenarioTag",
    "SweepSpec",
    "TrialRecord",
    "awareness_probability",
    "born_probability",
    "calibrate_gamma",
    "classify_batch",
    "classify_single",
    "collapse_for_input",
    "device_trial",
    "diffusion_gamma",
    "expand_sweep",
    "load_config",
    "make_input_state",
    "optimal_device_bound",
    "parse_config",
    "perceive_definite",
    "perceive_superposition",
    "qsc_condition_satisfied",
    "run_experiment",
    "run_trial",
    "sample_collapse_time",
    "sample_collapse_times",
    "sample_outcome",
    "simulate_diffusion_collapse",
    "simulate_diffusion_ensemble",
    "state_fidelity",
    "t_c_from_energy",
    "trial_rng",
    "wilson_interval",
]

__version__ = "0.1.0"
