"""Named agent configurations exposed by the benchmark CLI.

The catalog is one table.  A preset is a name, a one-line summary, a builder
and ``defaults``: every key the preset accepts, with its default value.  A
key's type is the type of its default, which is what config validation checks
(``Preset.params``).  ``Preset.make`` lays a block's overrides over the
defaults and hands the builder all of them as keywords, so every declared key
reaches the agent.  A handful of builders serve the whole catalog.  One of
them, ``_net``, builds every trained preset: the preset's keys that are
``TrainingSchedule`` fields make its schedule, and the agent gets the rest.
The paper's RMS1-RMS3 training schedules are data: a reset policy and the
defaults of ``lr_init`` and ``lr_decay``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping

from .core import Agent, UniformAgent
from .linear import LinearGreedyAgent, LinearThompsonAgent
from .mlp import TrainingSchedule
from .neural import (
    BootstrapAgent,
    NeuralGreedyAgent,
    NeuralLinearAgent,
    ParameterNoiseAgent,
)
from .samplers import BayesByBackpropAgent, ConstSGDAgent, SGFSAgent


@dataclass(frozen=True)
class Preset:
    """A named agent configuration: every key it accepts, with its default."""

    name: str
    summary: str
    build: Callable[..., Agent]
    defaults: Mapping[str, Any]

    @property
    def params(self) -> dict[str, type]:
        """Each accepted key with its type, the type of its default.  Config
        files may spell the ridge prior ``lambda``."""
        params = {key: type(value) for key, value in self.defaults.items()}
        if "ridge" in params:
            params["lambda"] = params["ridge"]
        return params

    def make(self, dim: int, num_actions: int, horizon: int, seed: int,
             overrides: dict | None = None) -> Agent:
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ValueError(
                f"preset {self.name!r} does not accept {sorted(unknown)}"
            )
        for key, value in overrides.items():
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if "lambda" in overrides:
            if "ridge" in overrides:
                raise ValueError("give either 'lambda' or 'ridge', not both")
            overrides["ridge"] = overrides.pop("lambda")
        return self.build(dim, num_actions, horizon, seed, name=self.name,
                          **{**self.defaults, **overrides})


def _uniform(dim, num_actions, horizon, seed, *, name):
    return UniformAgent(num_actions, name=name)


def _linear(name: str, summary: str, agent, approximation: str | None = None,
            **defaults) -> Preset:
    """A linear agent: it needs only the environment's shape."""
    fixed = {} if approximation is None else {"approximation": approximation}

    def build(dim, num_actions, horizon, seed, **kw):
        return agent(dim, num_actions, **fixed, **kw)
    return Preset(name, summary, build, {**_RIDGE, **defaults})


_CADENCE = {"train_every": 20, "batches_per_period": 20, "batch_size": 512}
_SCHEDULE_KEYS = frozenset(f.name for f in fields(TrainingSchedule))

# The paper's RMS schedules: the reset policy of the learning-rate law
# lr_init / (1 + lr_decay * i) and that law's defaults.
_RMS = {
    "rms1": ("decay-across-periods", {"lr_init": 0.01, "lr_decay": 0.0}),
    "rms2": ("reset-each-period", {"lr_init": 0.01, "lr_decay": 0.55}),
    "rms3": ("decay-across-periods", {"lr_init": 1.0, "lr_decay": 0.55}),
}


def _net(name: str, summary: str, agent, rms: str | None = None, *,
         takes_horizon: bool = False, **defaults) -> Preset:
    """A trained agent: the builder makes its schedule from the preset's keys
    that are ``TrainingSchedule`` fields, under the RMS law when the preset
    names one, and hands the agent the rest."""
    reset_policy, law = _RMS[rms] if rms else (TrainingSchedule.reset_policy, {})

    def build(dim, num_actions, horizon, seed, **kw):
        plan = {key: kw.pop(key) for key in _SCHEDULE_KEYS & kw.keys()}
        schedule = TrainingSchedule(**plan, reset_policy=reset_policy)
        if takes_horizon:
            kw["horizon"] = horizon
        return agent(dim, num_actions, schedule, seed, **kw)
    return Preset(name, summary, build, {**_CADENCE, **law, **defaults})


_RIDGE = {"ridge": 0.25}
_GREEDY = {"epsilon": 0.0, "epsilon_decay": 1.0}
_SG_CHAIN = {"ema_decay": 0.9, "burn_in": 500}
_KNOWN_NOISE = {"sigma_sq": 0.25}
_LEARNED_NOISE = {"a0": 6.0, "b0": 6.0}

_ALL = [
    Preset("Uniform", "equal-probability random actions (normalization baseline)",
           _uniform, {}),
    _linear("LinGreedy", "greedy ridge regression, lambda=0.25", LinearGreedyAgent,
            epsilon=0.0),
    _linear("LinGreedy(eps=0.01)", "LinGreedy exploring uniformly 1% of steps",
            LinearGreedyAgent, epsilon=0.01),
    _linear("LinGreedy(eps=0.05)", "LinGreedy exploring uniformly 5% of steps",
            LinearGreedyAgent, epsilon=0.05),
    _linear("LinPost", "linear Thompson, known noise, full covariance",
            LinearThompsonAgent, "exact", **_KNOWN_NOISE),
    _linear("LinDiagPost", "linear Thompson, known noise, covariance diagonal",
            LinearThompsonAgent, "diag", **_KNOWN_NOISE),
    _linear("LinDiagPrecPost", "linear Thompson, known noise, inverse precision diagonal",
            LinearThompsonAgent, "precision_diag", **_KNOWN_NOISE),
    _linear("LinFullPost", "linear Thompson with learned noise (a0=b0=6)",
            LinearThompsonAgent, "exact", **_LEARNED_NOISE),
    _linear("LinFullDiagPost", "LinFullPost with covariance diagonal",
            LinearThompsonAgent, "diag", **_LEARNED_NOISE),
    _linear("LinFullDiagPrecPost", "LinFullPost with inverse precision diagonal",
            LinearThompsonAgent, "precision_diag", **_LEARNED_NOISE),
    _net("RMS1", "greedy net, fixed learning rate 0.01", NeuralGreedyAgent, "rms1",
         **_GREEDY),
    _net("RMS2", "greedy net, learning rate decays and resets each period",
         NeuralGreedyAgent, "rms2", **_GREEDY),
    _net("RMS3", "greedy net, learning rate decays across periods from 1.0",
         NeuralGreedyAgent, "rms3", **_GREEDY),
    _net("RMS", "greedy net, decay 0.55 from 1.0, 100 batches per period",
         NeuralGreedyAgent, "rms3", **_GREEDY, batches_per_period=100),
    _net("EpsGreedyRMS", "greedy net with epsilon=0.01 decaying 0.999 per decision",
         NeuralGreedyAgent, "rms3", epsilon=0.01, epsilon_decay=0.999),
    _net("Dropout", "dropout exploration, keep probability 0.8", NeuralGreedyAgent,
         "rms2", p_keep=0.8),
    _net("BootstrappedNN", "bootstrapped ensemble of q=10 nets, inclusion p=1.0",
         BootstrapAgent, "rms3", q=10, p=1.0),
    _net("ParamNoise", "parameter-noise exploration with layer norm, sigma=0.01",
         ParameterNoiseAgent, "rms2", takes_horizon=True, sigma_init=0.01,
         target_eps=0.01),
    _net("NeuralLinear", "Bayesian linear head on learned features (a0=b0=3)",
         NeuralLinearAgent, "rms2", **_RIDGE, a0=3.0, b0=3.0),
    _net("SGFS", "Fisher-scored SGD chain, step 0.014, noise 0.75, burn-in 500",
         SGFSAgent, step_size=0.014, noise_scale=0.75, **_SG_CHAIN),
    _net("ConstSGD", "constant-step SGD chain, burn-in 500", ConstSGDAgent,
         noise_scale=0.5, **_SG_CHAIN),
    _net("BBB", "variational weight posterior, likelihood noise 0.1",
         BayesByBackpropAgent, batches_per_period=100, prior_sigma=1.0,
         noise_sigma=0.1, lr_init=0.01, ramp_initial=10000, ramp_periods=100),
]

PRESETS: dict[str, Preset] = {p.name: p for p in _ALL}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown agent preset {name!r}") from None


def list_presets() -> list[tuple[str, str]]:
    return [(p.name, p.summary) for p in _ALL]
