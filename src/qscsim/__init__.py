"""Monte Carlo study of collapse-timing discrimination of nonorthogonal states.

The package simulates a measurement chain in which wave-function collapse is
a real dynamical process with a finite, stochastic duration.  An observer
with perception latency ``t_p`` facing a superposed input cannot report a
definite percept until collapse completes (mean time ``t_c``); when the gap
``t_c - t_p`` is identifiable, that timing side channel (or awareness of a
percept change) lets the observer distinguish input states no projective
device can separate reliably in a single shot.
"""

from .collapse import CollapseModel, CollapseParams, diffusion_gamma, sample_collapses
from .config import ExperimentConfig, SweepSpec, expand_sweep, load_config, parse_config
from .errors import ConfigError, FieldError, QscError
from .observer import ObserverParams, PerceptionScenario, ScenarioTag, awareness_probability
from .protocol import (
    DecisionRule,
    ExperimentSummary,
    RuleKind,
    optimal_device_bound,
    run_experiment,
    run_experiments,
)
from .stats import RateEstimate

__all__ = [
    "CollapseModel",
    "CollapseParams",
    "ConfigError",
    "DecisionRule",
    "ExperimentConfig",
    "ExperimentSummary",
    "FieldError",
    "ObserverParams",
    "PerceptionScenario",
    "QscError",
    "RateEstimate",
    "RuleKind",
    "ScenarioTag",
    "SweepSpec",
    "awareness_probability",
    "diffusion_gamma",
    "expand_sweep",
    "load_config",
    "optimal_device_bound",
    "parse_config",
    "run_experiment",
    "run_experiments",
    "sample_collapses",
]

__version__ = "0.1.0"
