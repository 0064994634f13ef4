"""Neural bandit agents built on the shared MLP machinery.

``TrainableNet`` is the one owner of a net: an agent with its net, its
history buffer and its training schedule, which fits one reward head per
action with a masked MSE loss on mini-batches drawn uniformly with
replacement from its whole history, firing a training period every
``train_every`` decision steps; the schedule alone says how many batches each
period runs.  Every trained agent subclasses it (the ``samplers`` agents too)
and takes a ``TrainingSchedule``, and they differ in where the randomness of
their ``sample_scores`` comes from:

* ``NeuralGreedyAgent``: none (or epsilon-greedy, or dropout masks, the
  Dropout preset).
* ``ParameterNoiseAgent``: Gaussian noise added to every parameter.
* ``NeuralLinearAgent``: a Bayesian linear head over the last hidden layer.

``BootstrapAgent`` is q ``TrainableNet`` members, each trained on its own
resample of the history; which member answers is its randomness.

Each agent hangs its streams on the agent seed's tree (``core``): the net is
rooted at ``(0,)``, so it initializes from ``(0, 0)`` and draws mini-batches
from ``(0, 1)``; ParamNoise adapts from ``(0, 2)``; bootstrap member i is
rooted at ``(i,)`` and the inclusion draws come from ``(q, 0)``.

Every net computes in ``TRAIN_DTYPE`` (float32): ``TrainableNet`` casts the
float64 net it initializes, and the ``mlp`` and ``samplers`` functions follow
the parameters' dtype from there.  The linear heads stay float64: the
posterior casts NeuralLinear's float32 features as they enter it.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .core import Agent, HistoryBuffer, Observation, SeedLike, rng_at, seed_at
from .linear import NIGLinearPosterior
from .mlp import (
    RMSProp,
    TrainingSchedule,
    Workspace,
    hidden_features,
    make_dropout_masks,
    masked_mse,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_predict,
    perturb,
    shared_workspace,
)

DEFAULT_HIDDEN = (100, 100)

# float32 halves the bytes each batch moves and runs the matmuls about twice as
# fast as float64; the regret it costs is within noise on the wheel.
TRAIN_DTYPE = np.float32


class TrainableNet(Agent):
    """The one owner of a reward net: an agent holding an MLP, its RMSProp
    state, its history ``buffer`` and a training schedule with its own RNG;
    ``batches_run`` counts the mini-batches it has trained.

    ``observe`` appends, ``maybe_train`` trains one period on the whole
    history when the schedule is due, and ``sample_scores`` is the net's
    forward pass (under fresh dropout masks when ``p_keep`` < 1);
    subclasses change only what differs.  ``seed`` is the net's root: it
    initializes from ``(0,)`` below it and draws mini-batches from ``(1,)``,
    so two nets built from the same seed material are bit-identical and train
    identically on identical data.  The net is initialized in float64 and
    cast to ``TRAIN_DTYPE``.
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        layer_norm: bool = False,
        p_keep: Optional[float] = None,
    ):
        if p_keep is not None and not 0.0 < p_keep <= 1.0:
            raise ValueError(f"p_keep must lie in (0, 1], got {p_keep!r}")
        rng = rng_at(seed, 0)
        self.net = self._init_net([dim, *hidden, num_actions], rng, layer_norm).astype(TRAIN_DTYPE)
        self.schedule = schedule
        self.train_rng = rng_at(seed, 1)
        self.period = 0
        self.batches_run = 0
        self.num_actions = num_actions
        self.buffer = HistoryBuffer(dim, num_actions)
        # p_keep = 1 short-circuits to the plain forward pass so the agent is
        # draw-for-draw identical to one with dropout disabled.
        self.p_keep = None if p_keep == 1.0 else p_keep

    def _init_net(self, sizes, rng, layer_norm):
        return mlp_init(sizes, rng, layer_norm)

    @functools.cached_property
    def opt(self) -> RMSProp:
        # built on first use, so a subclass with its own update holds none
        return RMSProp(self.net.flat)

    def train_period(
        self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> float:
        """Run one period of mini-batches; returns the last batch loss."""
        n = len(rewards)
        if n == 0:
            raise ValueError("cannot train on an empty history")
        X = self.workspace.X
        loss = 0.0
        for j in range(self.schedule.batches(self.period)):
            idx = self.train_rng.integers(0, n, size=self.schedule.batch_size)
            X[...] = np.take(contexts, idx, axis=0)
            loss, grads = self._loss_and_grads(X, actions[idx], rewards[idx], n)
            self._step(grads, n, j)
            self.batches_run += 1
        self.period += 1
        return loss

    @property
    def workspace(self) -> Workspace:
        """The training workspace, shared by every net of this shape, batch
        size and dtype (``mlp.shared_workspace``)."""
        net = self.net
        return shared_workspace(net.sizes, net.layer_norm, self.schedule.batch_size, net.flat.dtype)

    def _loss_and_grads(self, X, actions, rewards, data_count):
        ws = self.workspace
        masks = None
        if self.p_keep is not None:
            masks = make_dropout_masks(self.net, len(rewards), self.p_keep, self.train_rng,
                                       workspace=ws)
        out, cache = mlp_forward(self.net, X, masks, self.p_keep or 1.0, workspace=ws)
        loss, dout = masked_mse(out, actions, rewards, workspace=ws)
        return loss, mlp_backward(self.net, cache, dout)

    def _step(self, grads, data_count, batch_index) -> None:
        self.opt.step(self.net.flat, grads, self.schedule.learning_rate(self.period, batch_index))

    def train_if_due(self, step: int) -> bool:
        """Train one period on the whole history when ``step`` is due."""
        if not self.schedule.due(step, len(self.buffer)):
            return False
        self.train_period(self.buffer.contexts, self.buffer.actions, self.buffer.rewards)
        return True

    def sample_scores(self, context: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.p_keep is None:
            return mlp_predict(self.net, context)[0]
        net = self.net
        ws = Workspace(net.sizes, net.layer_norm, 1, net.dtype)
        masks = make_dropout_masks(net, 1, self.p_keep, rng, workspace=ws)
        return mlp_forward(net, context, masks, self.p_keep, workspace=ws)[0][0]

    def observe(self, obs: Observation) -> None:
        self.buffer.append(obs)

    def maybe_train(self, step: int) -> None:
        self.train_if_due(step)


class NeuralGreedyAgent(TrainableNet):
    """Greedy reward-net agent; the RMS training-policy presets live here.

    ``epsilon``/``epsilon_decay`` give the epsilon-greedy variant (decay is
    applied once per ``choose`` call); ``p_keep`` < 1 gives the dropout
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
        p_keep: Optional[float] = None,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "RMS",
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not 0.0 < epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must lie in (0, 1]")
        super().__init__(dim, num_actions, schedule, seed_at(seed, 0), hidden, p_keep=p_keep)
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.name = name


class BootstrapAgent(Agent):
    """Ensemble of q ``TrainableNet`` members over bootstrapped histories.

    Each observation enters each member's own history independently with
    probability p, and each member trains on its history on the shared
    schedule; at decision time one member is drawn uniformly and its scores
    answer.  Member i's net is rooted at the seed's ``(i,)`` and the
    inclusion draws come from ``(q, 0)``, which p = 1 never draws from, so
    with q = 1 and p = 1 the agent is identical to the greedy agent's single
    net, whose root is ``(0,)``.
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
        self.members = [
            TrainableNet(dim, num_actions, schedule, seed_at(seed, i), hidden)
            for i in range(q)
        ]
        self._include_rng = rng_at(seed, q, 0)
        self.num_actions = num_actions
        self.q = q
        self.p = p
        self.name = name

    def sample_scores(self, context: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        j = int(rng.integers(self.q)) if self.q > 1 else 0
        return self.members[j].sample_scores(context, rng)

    def observe(self, obs: Observation) -> None:
        # checked here, as a row no member includes never reaches a buffer
        if not 0 <= obs.action < self.num_actions:
            raise ValueError(f"action {obs.action} out of range")
        for member in self.members:
            if self.p >= 1.0 or self._include_rng.random() < self.p:
                member.observe(obs)

    def maybe_train(self, step: int) -> None:
        for member in self.members:
            member.maybe_train(step)


class ParameterNoiseAgent(TrainableNet):
    """Exploration through Gaussian parameter perturbations at decision time.

    The net uses layer normalization so a single noise scale is meaningful
    across layers.  After each training period the scale adapts: actions are
    recomputed on the history's last ``PROBE_WINDOW`` contexts under one fresh
    perturbation, drawn from the seed's ``(0, 2)``, and sigma grows by 1.01
    when the action mismatch rate falls below a target that decays linearly
    from ``target_eps`` to zero over the horizon, and shrinks by 1.01
    otherwise.
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
        super().__init__(dim, num_actions, schedule, seed_at(seed, 0), hidden, layer_norm=True)
        self._adapt_rng = rng_at(seed, 0, 2)
        self.sigma = sigma_init
        self.target_eps = target_eps
        self.horizon = horizon
        self.name = name

    def sample_scores(self, context: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return mlp_predict(perturb(self.net, self.sigma, rng), context)[0]

    def _target(self) -> float:
        return self.target_eps * max(0.0, 1.0 - len(self.buffer) / self.horizon)

    def _adapt(self) -> None:
        if not len(self.buffer):
            return
        probe = self.buffer.contexts[-self.PROBE_WINDOW:]
        base = self.best_action(mlp_predict(self.net, probe))
        noisy = perturb(self.net, self.sigma, self._adapt_rng)
        shifted = self.best_action(mlp_predict(noisy, probe))
        mismatch = float(np.mean(base != shifted))
        if mismatch < self._target():
            self.sigma *= 1.01
        else:
            self.sigma /= 1.01

    def maybe_train(self, step: int) -> None:
        if self.train_if_due(step):
            self._adapt()


class NeuralLinearAgent(TrainableNet):
    """Exact Bayesian linear regression on learned last-layer features and a
    constant, the heads' intercept.

    Between training periods the per-action Normal-Inverse-Gamma heads (one
    posterior with an arm per action) update online with the current
    features.  After the net trains, the heads are rebuilt from their prior on
    freshly recomputed features for the whole history, so they never mix
    features from different network epochs.

    A decision featurizes its context once: ``sample_scores`` keeps phi(x)
    and the ``observe`` of that context uses it.  Warm-up steps, which have
    no decision, featurize in ``observe``.
    """

    choose = Agent.choose  # perfbench's tracer patches it here; see ROADMAP item 4

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
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "NeuralLinear",
    ):
        super().__init__(dim, num_actions, schedule, seed_at(seed, 0), hidden)
        # with no hidden layer the features are the context itself
        self.feature_dim = (hidden[-1] if hidden else dim) + 1
        self._prior = (ridge, a0, b0)
        self.heads = self._prior_heads()
        self._chosen: Optional[tuple[np.ndarray, np.ndarray]] = None  # (x, phi(x))
        self.name = name

    def _prior_heads(self) -> NIGLinearPosterior:
        return NIGLinearPosterior(self.feature_dim, *self._prior, arms=(self.num_actions,))

    def _featurize(self, X: np.ndarray) -> np.ndarray:
        Z = hidden_features(self.net, X)
        return np.concatenate([Z, np.ones((Z.shape[0], 1))], axis=1)

    def sample_scores(self, context: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        phi = self._featurize(context)[0]
        self._chosen = (context, phi)
        return self.heads.sample(rng)[0] @ phi

    def observe(self, obs: Observation) -> None:
        super().observe(obs)
        chosen, self._chosen = self._chosen, None
        if chosen and chosen[0] is obs.context:
            phi = chosen[1]
        else:
            phi = self._featurize(obs.context)[0]
        self.heads.update(phi, obs.reward, obs.action)

    def _refresh_heads(self) -> None:
        Z = self._featurize(self.buffer.contexts)
        actions, rewards = self.buffer.actions, self.buffer.rewards
        heads = self._prior_heads()
        for a in range(self.num_actions):
            idx = np.flatnonzero(actions == a)
            heads.batch_update(Z[idx], rewards[idx], a)
        self.heads = heads
        self._chosen = None  # phi(x) of the old net must not enter the new heads

    def maybe_train(self, step: int) -> None:
        if self.train_if_due(step):
            self._refresh_heads()
