"""Benchmark environments: the wheel, sampled linear models, and CSV datasets.

Every environment materializes its full context sequence at construction from
its own seed, so a trial's contexts are fixed and two agents given the same
seed face the same sequence.  Reward noise is drawn step by step from the rng
the harness passes in.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import Environment

logger = logging.getLogger(__name__)

MISSING_TOKENS = {"", "?", "NA", "na", "nan", "NaN"}

REWARD_RULES = (
    "classification",
    "mushroom",
    "direct_columns",
    "song_gaussian",
    "financial_synthetic",
)

MUSHROOM_EAT = 0
MUSHROOM_ABSTAIN = 1
MUSHROOM_SAFE_REWARD = 5.0
MUSHROOM_POISON_GOOD = 5.0
MUSHROOM_POISON_BAD = -35.0
# Eating a poisonous row pays +5 or -35 with equal probability.
MUSHROOM_POISON_EXPECTED = 0.5 * (MUSHROOM_POISON_GOOD + MUSHROOM_POISON_BAD)


@dataclass(frozen=True)
class WheelConfig:
    """Unit-disk bandit with a radius-delta threshold.

    Action 0 always pays ``safe_reward``; the other four pay ``inner_reward``
    inside radius delta and, outside it, ``outer_reward`` for the single
    action matching the context's quadrant.  All rewards carry N(0, sigma^2)
    noise.  The exploration difficulty grows with delta: a context lands
    outside the threshold with probability 1 - delta^2.
    """

    delta: float
    horizon: int = 2000
    safe_reward: float = 1.2
    inner_reward: float = 1.0
    outer_reward: float = 50.0
    noise_sigma: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly between 0 and 1")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def wheel_quadrant_action(x: np.ndarray) -> int:
    """Which non-safe action a context outside the threshold rewards.

    Zero coordinates count as positive: (+,+) -> 1, (+,-) -> 2, (-,-) -> 3,
    (-,+) -> 4.
    """
    if x[0] >= 0.0:
        return 1 if x[1] >= 0.0 else 2
    return 4 if x[1] >= 0.0 else 3


class WheelBandit(Environment):
    """The wheel: d = 2 contexts uniform on the unit disk, k = 5 actions."""

    def __init__(self, config: WheelConfig, seed: int):
        self.config = config
        self.name = f"wheel(delta={config.delta})"
        n = config.horizon
        rng = np.random.default_rng(seed)
        radii = np.sqrt(rng.random(n))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        self._contexts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        self._inside = np.hypot(self._contexts[:, 0], self._contexts[:, 1]) <= config.delta
        self._quadrant = np.array(
            [wheel_quadrant_action(x) for x in self._contexts], dtype=np.int64
        )

    @property
    def dim(self) -> int:
        return 2

    @property
    def num_actions(self) -> int:
        return 5

    @property
    def horizon(self) -> int:
        return self.config.horizon

    def context_at(self, t: int) -> np.ndarray:
        return self._contexts[t]

    def expected_reward(self, t: int, action: int) -> float:
        cfg = self.config
        if action == 0:
            return cfg.safe_reward
        if self._inside[t]:
            return cfg.inner_reward
        return cfg.outer_reward if action == self._quadrant[t] else cfg.inner_reward

    def optimal_expected_reward(self, t: int) -> float:
        cfg = self.config
        if self._inside[t]:
            return max(cfg.safe_reward, cfg.inner_reward)
        return max(cfg.safe_reward, cfg.outer_reward)

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        return self.expected_reward(t, action) + self.config.noise_sigma * rng.standard_normal()


@dataclass(frozen=True)
class LinearConfig:
    """Per-action linear rewards with Gaussian contexts and coefficients.

    Each trial samples beta_a ~ N(0, beta_variance * I) per action; rewards
    are x . beta_a plus N(0, noise_sigma_a^2) noise.  The defaults put the
    fixed-noise ridge agents (lambda = 0.25, assumed variance 0.25) exactly on
    the true model.

    context_mean shifts every context coordinate: x ~ N(context_mean * 1, I).
    A nonzero mean concentrates the arms' information along one direction, so
    posteriors become correlated and the diagonal-covariance approximation is
    measurably worse than the diagonal-precision one; with the default 0.0 the
    coordinates carry independent information and the approximations are hard
    to tell apart.
    """

    dim: int = 20
    num_actions: int = 6
    horizon: int = 2000
    beta_variance: float = 1.0
    noise_sigma: Union[float, tuple] = 0.5
    context_mean: float = 0.0

    def __post_init__(self):
        if self.dim < 1 or self.num_actions < 1 or self.horizon < 1:
            raise ValueError("dim, num_actions and horizon must be positive")
        if self.beta_variance <= 0:
            raise ValueError("beta_variance must be positive")

    def noise_vector(self) -> np.ndarray:
        sig = np.broadcast_to(
            np.asarray(self.noise_sigma, dtype=np.float64), (self.num_actions,)
        ).copy()
        if np.any(sig < 0):
            raise ValueError("noise_sigma must be >= 0")
        return sig


class SampledLinearBandit(Environment):
    """Linear bandit whose coefficients are redrawn every trial."""

    def __init__(self, config: LinearConfig, seed: int):
        self.config = config
        self.name = f"linear(d={config.dim},k={config.num_actions})"
        rng = np.random.default_rng(seed)
        scale = math.sqrt(config.beta_variance)
        self.betas = scale * rng.standard_normal((config.num_actions, config.dim))
        self._contexts = config.context_mean + rng.standard_normal(
            (config.horizon, config.dim)
        )
        self._expected = self._contexts @ self.betas.T
        self._optimal = self._expected.max(axis=1)
        self._noise = config.noise_vector()

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def num_actions(self) -> int:
        return self.config.num_actions

    @property
    def horizon(self) -> int:
        return self.config.horizon

    def context_at(self, t: int) -> np.ndarray:
        return self._contexts[t]

    def expected_reward(self, t: int, action: int) -> float:
        return float(self._expected[t, action])

    def optimal_expected_reward(self, t: int) -> float:
        return float(self._optimal[t])

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        return float(
            self._expected[t, action] + self._noise[action] * rng.standard_normal()
        )


@dataclass(frozen=True)
class DatasetSpec:
    """How to turn a delimited text file into a bandit.

    Columns may be referenced by header name (``header=True``) or by integer
    index.  ``reward_rule`` selects the reward semantics; see
    ``dataset_load``.  Rows with missing values (empty, '?', or NA tokens)
    are dropped and counted.
    """

    path: str
    reward_rule: str
    delimiter: str = ","
    header: bool = True
    label_column: Optional[Union[str, int]] = None
    numeric_columns: tuple = ()
    categorical_columns: Optional[tuple] = None
    reward_columns: tuple = ()
    num_actions: Optional[int] = None
    horizon: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.reward_rule not in REWARD_RULES:
            raise ValueError(f"reward_rule must be one of {REWARD_RULES}")
        # csv.reader takes one character, and would misread a quote or a
        # line break as the delimiter
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ValueError(
                f"delimiter must be one character, not a quote or line break: "
                f"{self.delimiter!r}"
            )


class DatasetBandit(Environment):
    """Contexts and per-action expected rewards backed by dataset rows."""

    def __init__(
        self,
        contexts: np.ndarray,
        rewards: np.ndarray,
        name: str,
        poisonous: Optional[np.ndarray] = None,
        horizon: Optional[int] = None,
        dropped_rows: int = 0,
    ):
        contexts = np.asarray(contexts, dtype=np.float64)
        rewards = np.asarray(rewards, dtype=np.float64)
        if contexts.ndim != 2 or rewards.ndim != 2 or len(contexts) != len(rewards):
            raise ValueError("contexts must be (n, d) and rewards (n, k)")
        if len(contexts) == 0:
            raise ValueError("dataset is empty after dropping missing rows")
        self._contexts = contexts
        self._rewards = rewards
        self._poisonous = poisonous
        self.name = name
        self.dropped_rows = dropped_rows
        n = len(contexts)
        self._horizon = n if horizon is None else horizon
        if not 1 <= self._horizon <= n:
            raise ValueError(f"horizon must lie in [1, {n}]")

    @property
    def dim(self) -> int:
        return self._contexts.shape[1]

    @property
    def num_actions(self) -> int:
        return self._rewards.shape[1]

    @property
    def horizon(self) -> int:
        return self._horizon

    def context_at(self, t: int) -> np.ndarray:
        return self._contexts[t]

    def expected_reward(self, t: int, action: int) -> float:
        return float(self._rewards[t, action])

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        if self._poisonous is not None and action == MUSHROOM_EAT and self._poisonous[t]:
            return (
                MUSHROOM_POISON_GOOD
                if rng.random() < 0.5
                else MUSHROOM_POISON_BAD
            )
        return float(self._rewards[t, action])

    def shuffled(self, seed: int) -> "DatasetBandit":
        """Copy with rows permuted under the trial seed."""
        perm = np.random.default_rng(seed).permutation(len(self._contexts))
        return DatasetBandit(
            self._contexts[perm],
            self._rewards[perm],
            self.name,
            poisonous=None if self._poisonous is None else self._poisonous[perm],
            horizon=self._horizon,
            dropped_rows=self.dropped_rows,
        )


class ConstantFeatureEnv(Environment):
    """Wrapper appending a constant 1.0 coordinate to every context.

    Homogeneous linear models cannot represent rewards with a nonzero
    baseline (the wheel's safe arm pays 1.2 everywhere); the extra coordinate
    gives them an intercept without touching agent internals.
    """

    def __init__(self, inner: Environment):
        self.inner = inner
        self.name = inner.name + "+const"

    @property
    def dim(self) -> int:
        return self.inner.dim + 1

    @property
    def num_actions(self) -> int:
        return self.inner.num_actions

    @property
    def horizon(self) -> int:
        return self.inner.horizon

    def context_at(self, t: int) -> np.ndarray:
        return np.concatenate([self.inner.context_at(t), [1.0]])

    def expected_reward(self, t: int, action: int) -> float:
        return self.inner.expected_reward(t, action)

    def optimal_expected_reward(self, t: int) -> float:
        return self.inner.optimal_expected_reward(t)

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        return self.inner.realize_reward(t, action, rng)


def _read_rows(spec: DatasetSpec) -> tuple[list[list[str]], dict]:
    """Stripped cells of every non-blank line, and the header's name -> column."""
    with open(spec.path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if ln.strip()]
    reader = csv.reader(lines, delimiter=spec.delimiter, skipinitialspace=True)
    rows = [[cell.strip() for cell in row] for row in reader]
    if not rows:
        raise ValueError(f"{spec.path} is empty")
    names: dict = {}
    if spec.header:
        names = {nm: i for i, nm in enumerate(rows[0])}
        rows = rows[1:]
    return rows, names


def _col_index(col: Union[str, int], names: dict, what: str) -> int:
    if isinstance(col, int):
        return col
    if col not in names:
        raise ValueError(f"unknown {what} column {col!r}")
    return names[col]


def _one_hot_order(rows: list[list[str]], col: int) -> dict:
    """Category -> slot, in order of first appearance."""
    order: dict = {}
    for row in rows:
        v = row[col]
        if v not in order:
            order[v] = len(order)
    return order


def dataset_load(spec: DatasetSpec) -> DatasetBandit:
    """Build a bandit from a delimited file per ``spec.reward_rule``.

    Context features are the declared numeric columns (parsed as floats)
    followed by one-hot encodings of the categorical columns, category slots
    ordered by first appearance in the file.  Reward rules:

    * classification: k = number of distinct labels; reward 1 for the label's
      action, 0 otherwise.
    * mushroom: k = 2 (eat, abstain); abstaining pays 0, eating pays +5 on an
      edible row and, on a poisonous row, +5 or -35 with equal probability
      (expected -15, which is what the reward table stores).
    * direct_columns: the declared reward columns are the k arms' payoffs.
    * song_gaussian: the label column holds a bucket index in [0, k);
      reward = exp(-(action - bucket)^2 / 2).
    * financial_synthetic: arms are fixed random linear combinations of the
      numeric context, with the mixing matrix drawn from ``spec.seed``.
    """
    rows, names = _read_rows(spec)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{spec.path}: row {i + 1} has {len(row)} cells, expected {width}")

    numeric = [_col_index(c, names, "numeric") for c in spec.numeric_columns]
    label = (
        None
        if spec.label_column is None
        else _col_index(spec.label_column, names, "label")
    )
    reward_cols = [_col_index(c, names, "reward") for c in spec.reward_columns]
    if spec.categorical_columns is None:
        used = set(numeric) | set(reward_cols) | ({label} if label is not None else set())
        categorical = [i for i in range(width) if i not in used]
    else:
        categorical = [_col_index(c, names, "categorical") for c in spec.categorical_columns]

    watched = set(numeric) | set(categorical) | set(reward_cols)
    if label is not None:
        watched.add(label)
    kept, dropped = [], 0
    for row in rows:
        if any(row[c] in MISSING_TOKENS for c in watched):
            dropped += 1
        else:
            kept.append(row)
    if dropped:
        logger.info("%s: dropped %d rows with missing values", spec.path, dropped)
    if not kept:
        raise ValueError(f"{spec.path}: no rows left after dropping missing values")

    slots = {c: _one_hot_order(kept, c) for c in categorical}
    dim = len(numeric) + sum(len(s) for s in slots.values())
    X = np.zeros((len(kept), dim))
    for i, row in enumerate(kept):
        j = 0
        for c in numeric:
            X[i, j] = float(row[c])
            j += 1
        for c in categorical:
            X[i, j + slots[c][row[c]]] = 1.0
            j += len(slots[c])

    rule = spec.reward_rule
    poisonous = None
    if rule == "classification":
        labels = _one_hot_order(kept, label)
        k = spec.num_actions or len(labels)
        if len(labels) > k:
            raise ValueError(f"{len(labels)} labels exceed num_actions={k}")
        R = np.zeros((len(kept), k))
        for i, row in enumerate(kept):
            R[i, labels[row[label]]] = 1.0
    elif rule == "mushroom":
        values = sorted({row[label] for row in kept})
        if len(values) != 2:
            raise ValueError("mushroom rule needs exactly two label values")
        # Lexicographically first label value is the edible class ('e' < 'p').
        edible = values[0]
        poisonous = np.array([row[label] != edible for row in kept])
        R = np.zeros((len(kept), 2))
        R[:, MUSHROOM_EAT] = np.where(
            poisonous, MUSHROOM_POISON_EXPECTED, MUSHROOM_SAFE_REWARD
        )
    elif rule == "direct_columns":
        if not reward_cols:
            raise ValueError("direct_columns rule needs reward_columns")
        R = np.array([[float(row[c]) for c in reward_cols] for row in kept])
    elif rule == "song_gaussian":
        if spec.num_actions is None:
            raise ValueError("song_gaussian rule needs num_actions")
        k = spec.num_actions
        buckets = np.array([int(float(row[label])) for row in kept])
        if buckets.min() < 0 or buckets.max() >= k:
            raise ValueError("bucket labels must lie in [0, num_actions)")
        arms = np.arange(k)
        R = np.exp(-0.5 * (arms[None, :] - buckets[:, None]) ** 2)
    else:  # financial_synthetic
        if spec.num_actions is None:
            raise ValueError("financial_synthetic rule needs num_actions")
        mix_rng = np.random.default_rng(spec.seed)
        M = mix_rng.standard_normal((spec.num_actions, dim)) / math.sqrt(dim)
        R = X @ M.T

    name = rule if rule != "direct_columns" else "direct"
    return DatasetBandit(
        X, R, name=name, poisonous=poisonous, horizon=spec.horizon, dropped_rows=dropped
    )


def mushroom_env(
    path: str,
    *,
    label_column: Union[str, int] = 0,
    delimiter: str = ",",
    header: bool = False,
    horizon: Optional[int] = None,
) -> DatasetBandit:
    """Mushroom-style bandit: label column plus all-categorical features."""
    spec = DatasetSpec(
        path=path,
        reward_rule="mushroom",
        delimiter=delimiter,
        header=header,
        label_column=label_column,
        horizon=horizon,
    )
    return dataset_load(spec)


def jester_env(
    path: str,
    *,
    context_columns: int = 32,
    arm_columns: int = 8,
    delimiter: str = ",",
    header: bool = False,
    horizon: Optional[int] = None,
) -> DatasetBandit:
    """Joke-rating bandit: a block of rating features, then the arm payoffs."""
    spec = DatasetSpec(
        path=path,
        reward_rule="direct_columns",
        delimiter=delimiter,
        header=header,
        numeric_columns=tuple(range(context_columns)),
        categorical_columns=(),
        reward_columns=tuple(range(context_columns, context_columns + arm_columns)),
        horizon=horizon,
    )
    return dataset_load(spec)
