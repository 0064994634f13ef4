"""Named agent configurations exposed by the benchmark CLI.

Every preset is a factory taking the environment shape (dim, num_actions,
horizon) and a seed, plus typed overrides.  The registry also declares which
override keys each preset accepts so config validation can reject unknown or
ill-typed keys with a line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .core import Agent, UniformAgent
from .linear import LinearGreedyAgent, LinearThompsonAgent
from .mlp import TrainingSchedule
from .neural import (
    BootstrapAgent,
    DropoutAgent,
    NeuralGreedyAgent,
    NeuralLinearAgent,
    ParameterNoiseAgent,
)
from .samplers import BayesByBackpropAgent, ConstSGDAgent, SGFSAgent


def rms1_schedule(**kw) -> TrainingSchedule:
    return TrainingSchedule(lr_init=0.01, reset_policy="fixed", **kw)


def rms2_schedule(**kw) -> TrainingSchedule:
    return TrainingSchedule(lr_init=0.01, lr_decay=0.55, reset_policy="reset-each-period", **kw)


def rms3_schedule(**kw) -> TrainingSchedule:
    return TrainingSchedule(lr_init=1.0, lr_decay=0.55, reset_policy="decay-across-periods", **kw)


_SCHEDULES = {"rms1": rms1_schedule, "rms2": rms2_schedule, "rms3": rms3_schedule}

_CADENCE_KEYS: Mapping[str, type] = {
    "train_every": int,
    "batches_per_period": int,
    "batch_size": int,
}

_SCHED_KEYS: Mapping[str, type] = {**_CADENCE_KEYS, "lr_init": float, "lr_decay": float}


@dataclass(frozen=True)
class Preset:
    """A named agent configuration with its override schema."""

    name: str
    summary: str
    params: Mapping[str, type]
    build: Callable[[int, int, int, int, dict], Agent]

    def make(self, dim: int, num_actions: int, horizon: int, seed: int,
             overrides: dict | None = None) -> Agent:
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ValueError(
                f"preset {self.name!r} does not accept {sorted(unknown)}"
            )
        return self.build(dim, num_actions, horizon, seed, overrides)


def _ridge(ov: dict, default: float = 0.25) -> float:
    # Config files may spell the ridge prior either way.
    if "lambda" in ov and "ridge" in ov:
        raise ValueError("give either 'lambda' or 'ridge', not both")
    return ov.pop("lambda", ov.pop("ridge", default))


def _cadence(ov: dict, keys: Mapping[str, type] = _CADENCE_KEYS, **defaults) -> dict:
    """``defaults`` updated with the given ``keys`` popped from the overrides."""
    kw = dict(defaults)
    for key in keys:
        if key in ov:
            kw[key] = ov.pop(key)
    return kw


def _schedule(kind: str, ov: dict, **defaults) -> TrainingSchedule:
    return _SCHEDULES[kind](**_cadence(ov, _SCHED_KEYS, **defaults))


_LINEAR_FIXED_KEYS = {"lambda": float, "ridge": float, "sigma_sq": float}
_LINEAR_NIG_KEYS = {"lambda": float, "ridge": float, "a0": float, "b0": float}
_LINEAR_GREEDY_KEYS = {"lambda": float, "ridge": float, "sigma_sq": float, "epsilon": float}


def _fixed_noise_ts(name: str, approximation: str, summary: str) -> Preset:
    def build(dim, k, horizon, seed, ov):
        return LinearThompsonAgent(
            dim, k, ridge=_ridge(ov), sigma_sq=ov.pop("sigma_sq", 0.25),
            approximation=approximation, name=name,
        )
    return Preset(name, summary, _LINEAR_FIXED_KEYS, build)


def _nig_ts(name: str, approximation: str, summary: str) -> Preset:
    def build(dim, k, horizon, seed, ov):
        return LinearThompsonAgent(
            dim, k, ridge=_ridge(ov), a0=ov.pop("a0", 6.0), b0=ov.pop("b0", 6.0),
            sigma_sq=None, approximation=approximation, name=name,
        )
    return Preset(name, summary, _LINEAR_NIG_KEYS, build)


def _lin_greedy(name: str, epsilon: float, summary: str) -> Preset:
    def build(dim, k, horizon, seed, ov):
        return LinearGreedyAgent(
            dim, k, ridge=_ridge(ov), sigma_sq=ov.pop("sigma_sq", 0.25),
            epsilon=ov.pop("epsilon", epsilon), name=name,
        )
    return Preset(name, summary, _LINEAR_GREEDY_KEYS, build)


def _neural_greedy(name: str, kind: str, summary: str, *, epsilon=0.0,
                   epsilon_decay=1.0, batches=20) -> Preset:
    params = dict(_SCHED_KEYS)
    params.update({"epsilon": float, "epsilon_decay": float})

    def build(dim, k, horizon, seed, ov):
        eps = ov.pop("epsilon", epsilon)
        dec = ov.pop("epsilon_decay", epsilon_decay)
        sched = _schedule(kind, ov, batches_per_period=batches)
        return NeuralGreedyAgent(
            dim, k, sched, seed, epsilon=eps, epsilon_decay=dec, name=name
        )
    return Preset(name, summary, params, build)


def _build_dropout(dim, k, horizon, seed, ov):
    p_keep = ov.pop("p_keep", 0.8)
    sched = _schedule("rms2", ov)
    return DropoutAgent(dim, k, sched, seed, p_keep=p_keep, name="Dropout")


def _build_bootstrap(dim, k, horizon, seed, ov):
    q = ov.pop("q", 10)
    p = ov.pop("p", 1.0)
    sched = _schedule("rms3", ov)
    return BootstrapAgent(dim, k, sched, seed, q=q, p=p, name="BootstrappedNN")


def _build_param_noise(dim, k, horizon, seed, ov):
    sigma = ov.pop("sigma_init", 0.01)
    eps = ov.pop("target_eps", 0.01)
    sched = _schedule("rms2", ov)
    return ParameterNoiseAgent(
        dim, k, sched, seed, horizon, sigma_init=sigma, target_eps=eps,
        name="ParamNoise",
    )


def _build_neural_linear(dim, k, horizon, seed, ov):
    ridge = _ridge(ov)
    a0 = ov.pop("a0", 3.0)
    b0 = ov.pop("b0", 3.0)
    bias = ov.pop("bias_feature", True)
    sched = _schedule("rms2", ov)
    return NeuralLinearAgent(
        dim, k, sched, seed, ridge=ridge, a0=a0, b0=b0, bias_feature=bias,
        name="NeuralLinear",
    )


def _build_sgfs(dim, k, horizon, seed, ov):
    kw = _cadence(ov)
    return SGFSAgent(
        dim, k, seed,
        step_size=ov.pop("step_size", 0.014),
        noise_scale=ov.pop("noise_scale", 0.75),
        ema_decay=ov.pop("ema_decay", 0.9),
        burn_in=ov.pop("burn_in", 500),
        name="SGFS", **kw,
    )


def _build_const_sgd(dim, k, horizon, seed, ov):
    kw = _cadence(ov)
    return ConstSGDAgent(
        dim, k, seed,
        noise_scale=ov.pop("noise_scale", 0.5),
        ema_decay=ov.pop("ema_decay", 0.9),
        burn_in=ov.pop("burn_in", 500),
        name="ConstSGD", **kw,
    )


def _build_bbb(dim, k, horizon, seed, ov):
    kw = _cadence(ov, batches_per_period=100)
    return BayesByBackpropAgent(
        dim, k, seed,
        prior_sigma=ov.pop("prior_sigma", 1.0),
        noise_sigma=ov.pop("noise_sigma", 0.1),
        lr=ov.pop("lr", 0.01),
        ramp_initial=ov.pop("ramp_initial", 10000),
        ramp_periods=ov.pop("ramp_periods", 100),
        name="BBB", **kw,
    )


_ALL = [
    Preset(
        "Uniform", "equal-probability random actions (normalization baseline)",
        {}, lambda dim, k, horizon, seed, ov: UniformAgent(k),
    ),
    _lin_greedy("LinGreedy", 0.0, "greedy ridge regression, lambda=0.25, sigma^2=0.25"),
    _lin_greedy("LinGreedy(eps=0.01)", 0.01, "LinGreedy exploring uniformly 1% of steps"),
    _lin_greedy("LinGreedy(eps=0.05)", 0.05, "LinGreedy exploring uniformly 5% of steps"),
    _fixed_noise_ts("LinPost", "exact", "linear Thompson, known noise, full covariance"),
    _fixed_noise_ts("LinDiagPost", "diag", "linear Thompson, known noise, covariance diagonal"),
    _fixed_noise_ts("LinDiagPrecPost", "precision_diag",
                    "linear Thompson, known noise, inverse precision diagonal"),
    _nig_ts("LinFullPost", "exact", "linear Thompson with learned noise (a0=b0=6)"),
    _nig_ts("LinFullDiagPost", "diag", "LinFullPost with covariance diagonal"),
    _nig_ts("LinFullDiagPrecPost", "precision_diag",
            "LinFullPost with inverse precision diagonal"),
    _neural_greedy("RMS1", "rms1", "greedy net, fixed learning rate 0.01"),
    _neural_greedy("RMS2", "rms2", "greedy net, learning rate decays and resets each period"),
    _neural_greedy("RMS3", "rms3", "greedy net, learning rate decays across periods from 1.0"),
    _neural_greedy("RMS", "rms3", "greedy net, decay 0.55 from 1.0, 100 batches per period",
                   batches=100),
    _neural_greedy("EpsGreedyRMS", "rms3",
                   "greedy net with epsilon=0.01 decaying 0.999 per context",
                   epsilon=0.01, epsilon_decay=0.999),
    Preset("Dropout", "dropout exploration, keep probability 0.8",
           {**_SCHED_KEYS, "p_keep": float}, _build_dropout),
    Preset("BootstrappedNN", "bootstrapped ensemble of q=10 nets, inclusion p=1.0",
           {**_SCHED_KEYS, "q": int, "p": float}, _build_bootstrap),
    Preset("ParamNoise", "parameter-noise exploration with layer norm, sigma=0.01",
           {**_SCHED_KEYS, "sigma_init": float, "target_eps": float}, _build_param_noise),
    Preset("NeuralLinear", "Bayesian linear head on learned features (a0=b0=3)",
           {**_SCHED_KEYS, "lambda": float, "ridge": float, "a0": float,
            "b0": float, "bias_feature": bool}, _build_neural_linear),
    Preset("SGFS", "Fisher-scored SGD chain, step 0.014, noise 0.75, burn-in 500",
           {**_CADENCE_KEYS, "step_size": float, "noise_scale": float,
            "ema_decay": float, "burn_in": int}, _build_sgfs),
    Preset("ConstSGD", "constant-step SGD chain, burn-in 500",
           {**_CADENCE_KEYS, "noise_scale": float, "ema_decay": float,
            "burn_in": int}, _build_const_sgd),
    Preset("BBB", "variational weight posterior, likelihood noise 0.1",
           {**_CADENCE_KEYS, "prior_sigma": float, "noise_sigma": float,
            "lr": float, "ramp_initial": int, "ramp_periods": int}, _build_bbb),
]

PRESETS: dict[str, Preset] = {p.name: p for p in _ALL}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown agent preset {name!r}") from None


def list_presets() -> list[tuple[str, str]]:
    return [(p.name, p.summary) for p in _ALL]
