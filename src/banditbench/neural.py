"""Neural bandit agents built on the shared MLP machinery.

All of these agents fit one reward head per action with a masked MSE loss on
mini-batches drawn uniformly with replacement from the full history, firing a
training period of ``batches_per_period`` batches every ``train_every``
decision steps.  They differ in where decision-time randomness comes from:

* ``NeuralGreedyAgent``: none (or epsilon-greedy, or dropout masks).
* ``BootstrapAgent``: which ensemble member answers.
* ``ParameterNoiseAgent``: Gaussian noise added to every parameter.
* ``NeuralLinearAgent``: a Bayesian linear head over the last hidden layer.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from .core import Agent, HistoryBuffer, Observation
from .linear import NIGLinearPosterior
from .mlp import (
    RMSProp,
    SeedLike,
    TrainingSchedule,
    _seed_sequence,
    hidden_features,
    make_dropout_masks,
    masked_mse,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_predict,
    perturb,
)

DEFAULT_HIDDEN = (100, 100)


class TrainableNet:
    """An MLP, its RMSProp state, and a training schedule with its own RNG.

    The constructor derives separate initialization and mini-batch streams
    from the seed, so two nets built from the same seed material are
    bit-identical and train identically on identical data.
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        layer_norm: bool = False,
        dropout_keep: Optional[float] = None,
    ):
        init_ss, train_ss = _seed_sequence(seed).spawn(2)
        self.net = mlp_init([dim, *hidden, num_actions], np.random.default_rng(init_ss), layer_norm)
        self.opt = RMSProp(self.net.parameters())
        self.schedule = schedule
        self.train_rng = np.random.default_rng(train_ss)
        self.period = 0
        # p_keep = 1 short-circuits to the plain forward pass so the agent is
        # draw-for-draw identical to one with dropout disabled.
        self.dropout_keep = (
            None if dropout_keep is None or dropout_keep >= 1.0 else dropout_keep
        )

    def train_period(
        self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> float:
        """Run one period of mini-batches; returns the last batch loss."""
        n = len(rewards)
        if n == 0:
            raise ValueError("cannot train on an empty history")
        params = self.net.parameters()
        loss = 0.0
        for j in range(self.schedule.batches_per_period):
            idx = self.train_rng.integers(0, n, size=self.schedule.batch_size)
            masks = None
            if self.dropout_keep is not None:
                masks = make_dropout_masks(
                    self.net, self.schedule.batch_size, self.dropout_keep, self.train_rng
                )
            out, cache = mlp_forward(
                self.net, contexts[idx], masks, self.dropout_keep or 1.0
            )
            loss, dout = masked_mse(out, actions[idx], rewards[idx])
            grads = mlp_backward(self.net, cache, dout)
            self.opt.step(params, grads, self.schedule.learning_rate(self.period, j))
        self.period += 1
        return loss

    def predict(self, x: np.ndarray) -> np.ndarray:
        return mlp_predict(self.net, x)[0]


class NeuralGreedyAgent(Agent):
    """Greedy reward-net agent; the RMS training-policy presets live here.

    ``epsilon``/``epsilon_decay`` give the epsilon-greedy variant (decay is
    applied once per choose call); ``dropout_keep`` < 1 gives the dropout
    variant, with fresh masks at both train and decision time.
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        *,
        epsilon: float = 0.0,
        epsilon_decay: float = 1.0,
        dropout_keep: Optional[float] = None,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "RMS",
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 < epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        self.num_actions = num_actions
        (net_seed,) = _seed_sequence(seed).spawn(1)
        self.core = TrainableNet(
            dim, num_actions, schedule, net_seed, hidden, dropout_keep=dropout_keep
        )
        self.buffer = HistoryBuffer(dim, num_actions)
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.name = name

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        eps = self.epsilon
        self.epsilon *= self.epsilon_decay
        if eps > 0.0 and rng.random() < eps:
            return int(rng.integers(self.num_actions))
        net = self.core.net
        if self.core.dropout_keep is not None:
            masks = make_dropout_masks(net, 1, self.core.dropout_keep, rng)
            out, _ = mlp_forward(net, context, masks, self.core.dropout_keep)
            return int(np.argmax(out[0]))
        return int(np.argmax(self.core.predict(context)))

    def observe(self, obs: Observation) -> None:
        self.buffer.append(obs)

    def maybe_train(self, step: int) -> None:
        if self.core.schedule.due(step, len(self.buffer)):
            self.core.train_period(
                self.buffer.contexts, self.buffer.actions, self.buffer.rewards
            )


class DropoutAgent(NeuralGreedyAgent):
    """Thompson-style exploration via dropout masks at decision time."""

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        *,
        p_keep: float = 0.8,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "Dropout",
    ):
        super().__init__(
            dim, num_actions, schedule, seed,
            dropout_keep=p_keep, hidden=hidden, name=name,
        )


class BootstrapAgent(Agent):
    """Ensemble of q reward nets over bootstrapped histories.

    Each observation enters each member's training set independently with
    probability p; at decision time one member is drawn uniformly and answers
    greedily.  With q = 1 and p = 1 the construction (seeding included) is
    identical to the greedy agent's single net.
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        *,
        q: int = 10,
        p: float = 1.0,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "BootstrappedNN",
    ):
        if q < 1:
            raise ValueError("q must be positive")
        if not 0.0 < p <= 1.0:
            raise ValueError("p must lie in (0, 1]")
        children = _seed_sequence(seed).spawn(q + 1)
        self.nets = [
            TrainableNet(dim, num_actions, schedule, child, hidden)
            for child in children[:q]
        ]
        self._include_rng = np.random.default_rng(children[q])
        self.buffer = HistoryBuffer(dim, num_actions)
        self.members: list[list[int]] = [[] for _ in range(q)]
        self.q = q
        self.p = p
        self.name = name

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        j = int(rng.integers(self.q)) if self.q > 1 else 0
        return int(np.argmax(self.nets[j].predict(context)))

    def observe(self, obs: Observation) -> None:
        i = self.buffer.append(obs)
        for member in self.members:
            if self.p >= 1.0 or self._include_rng.random() < self.p:
                member.append(i)

    def maybe_train(self, step: int) -> None:
        if not self.nets[0].schedule.due(step, len(self.buffer)):
            return
        for net, member in zip(self.nets, self.members):
            if not member:
                continue
            idx = np.asarray(member, dtype=np.int64)
            net.train_period(
                self.buffer.contexts[idx],
                self.buffer.actions[idx],
                self.buffer.rewards[idx],
            )


class ParameterNoiseAgent(Agent):
    """Exploration through Gaussian parameter perturbations at decision time.

    The net uses layer normalization so a single noise scale is meaningful
    across layers.  After each training period the scale adapts: actions are
    recomputed on the most recent probe contexts under one fresh perturbation,
    and sigma grows by 1.01 when the action mismatch rate falls below a target
    that decays linearly from ``target_eps`` to zero over the horizon, and
    shrinks by 1.01 otherwise.
    """

    PROBE_WINDOW = 32

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        horizon: int,
        *,
        sigma_init: float = 0.01,
        target_eps: float = 0.01,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "ParamNoise",
    ):
        if sigma_init <= 0 or target_eps < 0:
            raise ValueError("sigma_init must be positive and target_eps >= 0")
        if horizon < 1:
            raise ValueError("horizon must be positive")
        net_ss, adapt_ss = _seed_sequence(seed).spawn(2)
        self.core = TrainableNet(
            dim, num_actions, schedule, net_ss, hidden, layer_norm=True
        )
        self._adapt_rng = np.random.default_rng(adapt_ss)
        self.buffer = HistoryBuffer(dim, num_actions)
        self.sigma = sigma_init
        self.target_eps = target_eps
        self.horizon = horizon
        self.steps_seen = 0
        self.recent: deque[np.ndarray] = deque(maxlen=self.PROBE_WINDOW)
        self.name = name

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        noisy = perturb(self.core.net, self.sigma, rng)
        return int(np.argmax(mlp_predict(noisy, context)[0]))

    def observe(self, obs: Observation) -> None:
        self.buffer.append(obs)
        self.recent.append(obs.context)
        self.steps_seen += 1

    def _target(self) -> float:
        return self.target_eps * max(0.0, 1.0 - self.steps_seen / self.horizon)

    def _adapt(self) -> None:
        if not self.recent:
            return
        probe = np.stack(self.recent)
        base = np.argmax(mlp_predict(self.core.net, probe), axis=1)
        noisy = perturb(self.core.net, self.sigma, self._adapt_rng)
        shifted = np.argmax(mlp_predict(noisy, probe), axis=1)
        mismatch = float(np.mean(base != shifted))
        if mismatch < self._target():
            self.sigma *= 1.01
        else:
            self.sigma /= 1.01

    def maybe_train(self, step: int) -> None:
        if self.core.schedule.due(step, len(self.buffer)):
            self.core.train_period(
                self.buffer.contexts, self.buffer.actions, self.buffer.rewards
            )
            self._adapt()


class NeuralLinearAgent(Agent):
    """Exact Bayesian linear regression on learned last-layer features.

    Between training periods the per-action Normal-Inverse-Gamma heads (one
    posterior with an arm per action) update online with the current
    features.  After the net trains, the heads are rebuilt from their prior on
    freshly recomputed features for the whole history, so they never mix
    features from different network epochs.
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        *,
        ridge: float = 0.25,
        a0: float = 3.0,
        b0: float = 3.0,
        bias_feature: bool = True,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "NeuralLinear",
    ):
        (net_seed,) = _seed_sequence(seed).spawn(1)
        self.core = TrainableNet(dim, num_actions, schedule, net_seed, hidden)
        self.buffer = HistoryBuffer(dim, num_actions)
        self.num_actions = num_actions
        self.bias_feature = bias_feature
        self.feature_dim = hidden[-1] + (1 if bias_feature else 0)
        self._prior = (ridge, a0, b0)
        self.heads = self._prior_heads()
        self.name = name

    def _prior_heads(self) -> NIGLinearPosterior:
        return NIGLinearPosterior(self.feature_dim, *self._prior, arms=(self.num_actions,))

    def _featurize(self, X: np.ndarray) -> np.ndarray:
        Z = hidden_features(self.core.net, X)
        if self.bias_feature:
            Z = np.concatenate([Z, np.ones((Z.shape[0], 1))], axis=1)
        return Z

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        return int(np.argmax(self.heads.sample(rng)[0] @ self._featurize(context)[0]))

    def observe(self, obs: Observation) -> None:
        self.buffer.append(obs)
        self.heads.update(self._featurize(obs.context)[0], obs.reward, obs.action)

    def _refresh_heads(self) -> None:
        Z = self._featurize(self.buffer.contexts)
        rewards = self.buffer.rewards
        heads = self._prior_heads()
        for a in range(self.num_actions):
            idx = self.buffer.action_indices(a)
            heads.batch_update(Z[idx], rewards[idx], a)
        self.heads = heads

    def maybe_train(self, step: int) -> None:
        if self.core.schedule.due(step, len(self.buffer)):
            self.core.train_period(
                self.buffer.contexts, self.buffer.actions, self.buffer.rewards
            )
            self._refresh_heads()
