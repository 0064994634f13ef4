"""Core contracts and the decision-loop harness for contextual bandits.

The pieces here are deliberately small: an ``Agent`` acts on one draw of its
scores, observes a reward, and occasionally trains; an ``Environment`` is two
arrays, the contexts (n, d) and every action's expected reward (n, k), plus
the reward noise its subclass draws in ``realize_reward``.  ``run_trial``
wires the two together with a round-robin warmup, and ``run_experiment``
repeats trials under paired seeds and reduces them to regret summaries.

Every random stream is derived here, by ``rng_at(seed, *path)``: the
generator of the ``SeedSequence`` at an explicit spawn-key path below the
seed (``seed_at``).  A trial's seed is the root of one tree, and no two
streams of a trial hang at the same node:

* the root draws the environment's contexts;
* ``(0,)`` and ``(1,)`` are ``run_trial``'s reward-noise and decision
  generators, and no other code makes a generator at depth 1;
* a net agent roots its net at ``(0,)``: its initialization draws from
  ``(0, 0)`` and its mini-batches (masks, chain noise, BBB's weight noise)
  from ``(0, 1)``; ParamNoise adapts its sigma from ``(0, 2)``;
* bootstrap member i roots its net at ``(i,)``, and the q members'
  inclusion draws come from ``(q, 0)``.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

# Number of trailing steps that enter the simple-regret average.
SIMPLE_REGRET_WINDOW = 500

SeedLike = Union[int, np.random.SeedSequence]


def seed_at(seed: SeedLike, *path: int) -> np.random.SeedSequence:
    """The node at spawn-key ``path`` below ``seed``: bitwise the child that a
    chain of ``spawn`` calls reaches, built without spawning."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + path,
                                      pool_size=seed.pool_size)
    return np.random.SeedSequence(seed, spawn_key=path)


def rng_at(seed: SeedLike, *path: int) -> np.random.Generator:
    """The generator of ``seed_at(seed, *path)``; with no path, the same
    stream as ``default_rng(seed)``."""
    return np.random.default_rng(seed_at(seed, *path))


class ContractViolation(RuntimeError):
    """Raised when an agent or environment breaks the decision-loop contract."""


@dataclass(frozen=True)
class Observation:
    """One (context, action, reward) triple as seen by the agent."""

    context: np.ndarray
    action: int
    reward: float


class HistoryBuffer:
    """Append-only store of observations with cheap array views.

    Contexts are packed into a growing 2-D array so training code can slice
    mini-batches by fancy indexing without per-step copies.
    """

    def __init__(self, dim: int, num_actions: int):
        if dim < 1 or num_actions < 1:
            raise ValueError("dim and num_actions must be positive")
        self.dim = dim
        self.num_actions = num_actions
        self._size = 0
        self._contexts = np.empty((64, dim), dtype=np.float64)
        self._actions = np.empty(64, dtype=np.int64)
        self._rewards = np.empty(64, dtype=np.float64)

    def __len__(self) -> int:
        return self._size

    def _grow(self) -> None:
        cap = self._contexts.shape[0] * 2
        self._contexts = np.concatenate(
            [self._contexts, np.empty_like(self._contexts)], axis=0
        )
        self._actions = np.concatenate([self._actions, np.empty(cap // 2, np.int64)])
        self._rewards = np.concatenate([self._rewards, np.empty(cap // 2, np.float64)])

    def append(self, obs: Observation) -> int:
        """Store one observation and return its row index."""
        if not 0 <= obs.action < self.num_actions:
            raise ValueError(f"action {obs.action} out of range")
        # a row assignment would broadcast a (1,)-shaped or scalar context
        if np.shape(obs.context) != (self.dim,):
            raise ValueError(f"context has shape {np.shape(obs.context)}, expected ({self.dim},)")
        if self._size == self._contexts.shape[0]:
            self._grow()
        i = self._size
        self._contexts[i] = obs.context
        self._actions[i] = obs.action
        self._rewards[i] = obs.reward
        self._size += 1
        return i

    @property
    def contexts(self) -> np.ndarray:
        return self._contexts[: self._size]

    @property
    def actions(self) -> np.ndarray:
        return self._actions[: self._size]

    @property
    def rewards(self) -> np.ndarray:
        return self._rewards[: self._size]


class Agent(abc.ABC):
    """Decision-maker contract: choose, observe, optionally train.  ``choose`` is
    greedy on ``sample_scores``, or uniform with a decaying chance ``epsilon``."""

    name: str = "agent"
    epsilon: float = 0.0
    epsilon_decay: float = 1.0

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        """Return an action index in [0, num_actions)."""
        if self.epsilon > 0.0:
            eps = self.epsilon
            self.epsilon *= self.epsilon_decay
            if rng.random() < eps:
                return int(rng.integers(self.num_actions))
        return int(self.best_action(self.sample_scores(context, rng)))

    def sample_scores(self, context: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One posterior draw of every action's score at one context, (k,)."""
        raise NotImplementedError(f"{type(self).__name__} draws no scores")

    @abc.abstractmethod
    def observe(self, obs: Observation) -> None:
        """Incorporate one realized (context, action, reward) triple."""

    def maybe_train(self, step: int) -> None:
        """Hook called once per step with the post-warmup step counter.

        The counter is negative during warmup; schedule-driven agents only
        act on counters >= 0, so their training cadence is measured in
        decision steps.
        """
        return None

    def best_action(self, scores: np.ndarray) -> np.ndarray:
        """Index of the highest score along the last axis.

        ``np.argmax`` would pick the index of a NaN, so a NaN or infinite
        score (a diverged net, say) raises a ContractViolation instead.
        """
        # a Python pass over k scores costs a third of numpy's reduction
        if not all(map(math.isfinite, scores.ravel().tolist())):
            raise ContractViolation(f"agent {self.name!r} produced non-finite scores {scores}")
        return np.argmax(scores, axis=-1)


class Environment:
    """A fixed sequence of contexts and the expected reward of every action.

    The two arrays are the whole environment: ``contexts`` (n, d) and
    ``expected`` (n, k), both float64 and finite, with step t reading row t;
    each context row's squared norm must be finite too.
    ``horizon`` (default n) is how many of the rows a trial may use.  A
    subclass passes its arrays here and writes ``realize_reward``, its reward
    noise; the default is noiseless, the expected reward itself.
    """

    name: str = "environment"

    def __init__(self, contexts: np.ndarray, expected: np.ndarray,
                 horizon: Optional[int] = None):
        contexts = np.asarray(contexts, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        if contexts.ndim != 2 or expected.ndim != 2 or len(contexts) != len(expected):
            raise ValueError("contexts must be (n, d) and expected rewards (n, k)")
        n = len(contexts)
        for what, values in (("contexts", contexts), ("expected rewards", expected)):
            finite = np.isfinite(values)
            if not finite.all():
                row = int(np.argmin(finite.all(axis=1)))
                raise ValueError(f"{what} must be finite: row {row} is not")
        # every posterior accumulates x x', which such a row would overflow
        with np.errstate(over="ignore"):
            square_norms = np.einsum("ij,ij->i", contexts, contexts)
        if not np.isfinite(square_norms).all():
            row = int(np.argmin(np.isfinite(square_norms)))
            raise ValueError(f"contexts must have a finite squared norm: row {row} does not")
        self._horizon = n if horizon is None else horizon
        if not 1 <= self._horizon <= n:
            raise ValueError(f"horizon must lie in [1, {n}]")
        self.contexts = contexts
        self.expected = expected
        self._optimal = expected.max(axis=1)

    @property
    def dim(self) -> int:
        """Context dimension d."""
        return self.contexts.shape[1]

    @property
    def num_actions(self) -> int:
        """Action count k."""
        return self.expected.shape[1]

    @property
    def horizon(self) -> int:
        """Number of steps a trial may use."""
        return self._horizon

    def context_at(self, t: int) -> np.ndarray:
        """Context vector for step t (fixed for the life of the instance)."""
        return self.contexts[t]

    def expected_reward(self, t: int, action: int) -> float:
        """Expected reward of ``action`` at step t (used for regret only)."""
        return float(self.expected[t, action])

    def optimal_expected_reward(self, t: int) -> float:
        """The best action's expected reward at step t: the row max."""
        return float(self._optimal[t])

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        """Draw the observable reward for taking ``action`` at step t."""
        return float(self.expected[t, action])


@dataclass
class RegretTrace:
    """Per-step record of one trial."""

    agent: str
    environment: str
    actions: np.ndarray
    realized_rewards: np.ndarray
    expected_rewards: np.ndarray
    optimal_rewards: np.ndarray
    context_digest: str

    def __len__(self) -> int:
        return len(self.actions)

    def instantaneous_regret(self) -> np.ndarray:
        """Optimal expected reward minus expected reward of the chosen action."""
        return self.optimal_rewards - self.expected_rewards


def cumulative_regret(trace: RegretTrace) -> float:
    """Sum over steps of (optimal expected reward - chosen expected reward)."""
    return float(np.sum(trace.instantaneous_regret()))


def simple_regret(trace: RegretTrace, window: int = SIMPLE_REGRET_WINDOW) -> float:
    """Mean instantaneous regret over the last min(window, len) steps."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    if window < 1:
        raise ValueError("window must be positive")
    tail = trace.instantaneous_regret()[-min(window, len(trace)):]
    return float(np.mean(tail))


def standard_error(values: np.ndarray) -> float:
    """Sample standard deviation (n-1 normalized) over sqrt(n); 0 for n < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(n))


class UniformAgent(Agent):
    """Picks actions uniformly at random; the normalization baseline."""

    def __init__(self, num_actions: int, name: str = "Uniform"):
        if num_actions < 1:
            raise ValueError("num_actions must be positive")
        self.num_actions = num_actions
        self.name = name

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        return int(rng.integers(self.num_actions))

    def observe(self, obs: Observation) -> None:
        return None


def run_trial(
    env: Environment,
    agent: Agent,
    seed: int,
    horizon: Optional[int] = None,
    warmup_pulls: int = 3,
) -> RegretTrace:
    """Run one decision loop and return its trace.

    The first ``num_actions * warmup_pulls`` steps are round-robin
    (action = step mod k); afterwards the agent chooses.  Every step the agent
    observes the realized reward and gets a ``maybe_train`` tick carrying the
    post-warmup step counter.  Before the first step the trial's contexts are
    checked finite and hashed into ``context_digest``.  Rewards draw from the
    seed's ``(0,)`` stream and decisions from its ``(1,)``, so agent-side
    sampling never perturbs the reward noise.  An exception raised
    inside a step is re-raised with the step in its message: a
    ContractViolation stays one, anything else becomes a RuntimeError naming
    the original type.
    """
    if horizon is None:
        horizon = env.horizon
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if horizon > env.horizon:
        raise ValueError(
            f"horizon {horizon} exceeds environment's {env.horizon} available steps"
        )
    if warmup_pulls < 0:
        raise ValueError("warmup_pulls must be >= 0")

    k = env.num_actions
    warmup_len = k * warmup_pulls
    env_rng, agent_rng = rng_at(seed, 0), rng_at(seed, 1)

    contexts = np.asarray(env.contexts[:horizon], dtype=np.float64)
    finite = np.isfinite(contexts)
    if not finite.all():
        raise ContractViolation(
            f"environment {env.name!r} produced an invalid context at step "
            f"{int(np.argmin(finite.all(axis=1)))}"
        )
    # the same value as one sha256 update per step's row
    digest = hashlib.sha256(contexts.tobytes()).hexdigest()

    actions = np.empty(horizon, dtype=np.int64)
    realized = np.empty(horizon, dtype=np.float64)
    expected = np.empty(horizon, dtype=np.float64)
    optimal = np.empty(horizon, dtype=np.float64)

    for t in range(horizon):
        try:
            x = env.context_at(t)
            if t < warmup_len:
                a = t % k
            else:
                a = agent.choose(x, agent_rng)
                if not isinstance(a, (int, np.integer)) or not 0 <= a < k:
                    raise ContractViolation(
                        f"agent {agent.name!r} returned invalid action {a!r}"
                    )
                a = int(a)

            r = float(env.realize_reward(t, a, env_rng))
            if not math.isfinite(r):
                raise ContractViolation(
                    f"environment {env.name!r} realized reward {r!r} for agent "
                    f"{agent.name!r}"
                )
            actions[t] = a
            realized[t] = r
            expected[t] = env.expected_reward(t, a)
            optimal[t] = env.optimal_expected_reward(t)

            agent.observe(Observation(context=x, action=a, reward=r))
            agent.maybe_train(t - warmup_len)
        except ContractViolation as exc:
            raise ContractViolation(f"{exc} at step {t}") from exc
        except Exception as exc:
            # the step goes into the message, which is all a worker process
            # hands back to run_benchmark
            raise RuntimeError(f"{type(exc).__name__} at step {t}: {exc}") from exc

    bad = ~(np.isfinite(expected) & np.isfinite(optimal))
    if bad.any():
        raise ContractViolation(
            f"environment {env.name!r} gave a non-finite expected reward for agent "
            f"{agent.name!r} at step {int(np.argmax(bad))}"
        )
    return RegretTrace(
        agent=agent.name,
        environment=env.name,
        actions=actions,
        realized_rewards=realized,
        expected_rewards=expected,
        optimal_rewards=optimal,
        context_digest=digest,
    )


@dataclass
class ExperimentReport:
    """Aggregate of one agent's trials on one environment."""

    agent: str
    environment: str
    trials: int
    base_seed: int
    horizon: int
    cum_regrets: np.ndarray
    simple_regrets: np.ndarray
    traces: list[RegretTrace]
    wall_time_seconds: float
    mean_cum_regret: float
    stderr_cum: float
    mean_simple_regret: float
    stderr_simple: float
    normalized: bool = False


def run_experiment(
    env_factory: Callable[[int], Environment],
    agent_factory: Callable[[int], Agent],
    trials: int,
    base_seed: int = 0,
    horizon: Optional[int] = None,
    warmup_pulls: int = 3,
) -> ExperimentReport:
    """Run ``trials`` independent trials; trial i uses seed base_seed + i.

    Both factories receive the trial seed, so two agents run under the same
    base seed face identical context sequences (paired comparison).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    traces: list[RegretTrace] = []
    start = time.perf_counter()
    for i in range(trials):
        seed = base_seed + i
        env = env_factory(seed)
        agent = agent_factory(seed)
        traces.append(run_trial(env, agent, seed, horizon, warmup_pulls))
    wall = time.perf_counter() - start
    return report_from_traces(traces, base_seed, wall_time_seconds=wall)


def report_from_traces(
    traces: Sequence[RegretTrace],
    base_seed: int,
    wall_time_seconds: float = 0.0,
) -> ExperimentReport:
    """Reduce per-trial traces to a report with means and standard errors."""
    if not traces:
        raise ValueError("no traces")
    cum = np.array([cumulative_regret(t) for t in traces])
    simp = np.array([simple_regret(t) for t in traces])
    return ExperimentReport(
        agent=traces[0].agent,
        environment=traces[0].environment,
        trials=len(traces),
        base_seed=base_seed,
        horizon=len(traces[0]),
        cum_regrets=cum,
        simple_regrets=simp,
        traces=list(traces),
        wall_time_seconds=wall_time_seconds,
        mean_cum_regret=float(np.mean(cum)),
        stderr_cum=standard_error(cum),
        mean_simple_regret=float(np.mean(simp)),
        stderr_simple=standard_error(simp),
    )


def normalize_report(report: ExperimentReport, uniform: ExperimentReport) -> ExperimentReport:
    """Rescale regrets to percent of the uniform agent's means.

    Cumulative figures are divided by the uniform mean cumulative regret and
    multiplied by 100; simple-regret figures use the uniform mean simple
    regret.  The division happens before the multiply so the uniform report
    normalizes to exactly 100.0.
    """
    if uniform.mean_cum_regret == 0.0 or uniform.mean_simple_regret == 0.0:
        raise ValueError("uniform baseline has zero mean regret; cannot normalize")
    fc = uniform.mean_cum_regret
    fs = uniform.mean_simple_regret
    return dataclasses.replace(
        report,
        cum_regrets=(report.cum_regrets / fc) * 100.0,
        simple_regrets=(report.simple_regrets / fs) * 100.0,
        mean_cum_regret=(report.mean_cum_regret / fc) * 100.0,
        stderr_cum=(report.stderr_cum / fc) * 100.0,
        mean_simple_regret=(report.mean_simple_regret / fs) * 100.0,
        stderr_simple=(report.stderr_simple / fs) * 100.0,
        normalized=True,
    )


def regret_curve(traces: Sequence[RegretTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and stderr of the cumulative-regret curve across trials."""
    if not traces:
        raise ValueError("no traces")
    curves = np.stack([np.cumsum(t.instantaneous_regret()) for t in traces])
    mean = curves.mean(axis=0)
    if curves.shape[0] < 2:
        err = np.zeros_like(mean)
    else:
        err = curves.std(axis=0, ddof=1) / math.sqrt(curves.shape[0])
    return mean, err
