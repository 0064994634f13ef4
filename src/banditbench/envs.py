"""Benchmark environments: the wheel, sampled linear models, and CSV datasets.

Each environment is a ``core.Environment``: it builds its whole context
sequence (n, d) and every action's expected reward (n, k) at construction,
from its own seed, and hands both arrays to the base class, which answers
``context_at``, ``expected_reward`` and ``optimal_expected_reward`` from them.
A trial's contexts are therefore fixed, and two agents given the same seed
face the same sequence.  What a subclass adds is its reward noise,
``realize_reward``, drawn step by step from the rng the harness passes in.

``ENVIRONMENTS`` names each environment's config dataclass; a config's
``factory()`` is the picklable seed -> environment builder a run uses, and its
fields are the keys of a config file's ``[environment]`` block.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import Environment, rng_at

logger = logging.getLogger(__name__)

MISSING_TOKENS = {"", "?", "NA", "na", "nan", "NaN"}

# The spec fields each reward rule reads; DatasetSpec checks them before any file is read.
RULE_NEEDS = {
    "classification": ("label_column",),
    "mushroom": ("label_column",),
    "direct_columns": ("reward_columns",),
    "song_gaussian": ("label_column", "num_actions"),
    "financial_synthetic": ("num_actions",),
}

MUSHROOM_EAT = 0
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
        _require_finite(self, ("safe_reward", "inner_reward", "outer_reward", "noise_sigma"))
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")

    def factory(self) -> Callable[[int], Environment]:
        return functools.partial(WheelBandit, self)


def _require_finite(config, keys: Sequence[str]) -> None:
    for key in keys:
        value = getattr(config, key)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")


def wheel_quadrant_actions(contexts: np.ndarray) -> np.ndarray:
    """Which non-safe action each context (a row) rewards outside the threshold.

    Zero coordinates count as positive: (+,+) -> 1, (+,-) -> 2, (-,-) -> 3,
    (-,+) -> 4.
    """
    north = contexts[:, 1] >= 0.0
    return np.where(contexts[:, 0] >= 0.0, np.where(north, 1, 2), np.where(north, 4, 3))


class WheelBandit(Environment):
    """The wheel: d = 2 contexts uniform on the unit disk, k = 5 actions."""

    def __init__(self, config: WheelConfig, seed: int):
        self.config = config
        self.name = f"wheel(delta={config.delta})"
        n = config.horizon
        rng = rng_at(seed)
        radii = np.sqrt(rng.random(n))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        contexts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        self._inside = np.hypot(contexts[:, 0], contexts[:, 1]) <= config.delta
        expected = np.full((n, 5), config.inner_reward)
        expected[:, 0] = config.safe_reward
        outside = np.flatnonzero(~self._inside)
        expected[outside, wheel_quadrant_actions(contexts[outside])] = config.outer_reward
        super().__init__(contexts, expected)

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
        _require_finite(self, ("beta_variance", "context_mean"))
        if self.beta_variance <= 0:
            raise ValueError("beta_variance must be positive")
        self.noise_vector()

    def factory(self) -> Callable[[int], Environment]:
        return functools.partial(SampledLinearBandit, self)

    def noise_vector(self) -> np.ndarray:
        sig = np.broadcast_to(
            np.asarray(self.noise_sigma, dtype=np.float64), (self.num_actions,)
        ).copy()
        if not np.all(np.isfinite(sig) & (sig >= 0)):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        return sig


class SampledLinearBandit(Environment):
    """Linear bandit whose coefficients are redrawn every trial."""

    def __init__(self, config: LinearConfig, seed: int):
        self.config = config
        self.name = f"linear(d={config.dim},k={config.num_actions})"
        rng = rng_at(seed)
        scale = math.sqrt(config.beta_variance)
        self.betas = scale * rng.standard_normal((config.num_actions, config.dim))
        contexts = config.context_mean + rng.standard_normal((config.horizon, config.dim))
        super().__init__(contexts, contexts @ self.betas.T)
        self._noise = config.noise_vector()

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        return float(
            self.expected[t, action] + self._noise[action] * rng.standard_normal()
        )


@dataclass(frozen=True)
class DatasetSpec:
    """How to turn a delimited text file into a bandit.

    A column is a header name (``header=True``) or a 0-based position in the
    file, and has one role: label, numeric, categorical or reward.
    ``reward_rule`` selects the reward semantics (see ``dataset_load``), and
    ``RULE_NEEDS`` the fields each rule needs.  Rows with missing values
    (empty, '?', or NA tokens) are dropped and counted.
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
        if self.reward_rule not in RULE_NEEDS:
            raise ValueError(f"reward_rule must be one of {tuple(RULE_NEEDS)}")
        # csv.reader takes one character, and would misread a quote or a
        # line break as the delimiter
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ValueError(
                f"delimiter must be one character, not a quote or line break: "
                f"{self.delimiter!r}"
            )
        for need in RULE_NEEDS[self.reward_rule]:
            if getattr(self, need) in (None, ()):
                raise ValueError(f"reward_rule {self.reward_rule!r} needs {need}")
        if self.num_actions is not None and self.num_actions < 1:
            raise ValueError(f"num_actions must be >= 1, got {self.num_actions}")

    def factory(self) -> Callable[[int], DatasetBandit]:
        """Reads the file once; each seed gets its own shuffle of the rows."""
        return dataset_load(self).shuffled


class DatasetBandit(Environment):
    """Contexts and per-action expected rewards backed by dataset rows.

    ``horizon`` (default: every row) may be shorter than the dataset, so each
    trial's shuffle draws its steps from all the rows.
    """

    def __init__(
        self,
        contexts: np.ndarray,
        rewards: np.ndarray,
        name: str,
        poisonous: Optional[np.ndarray] = None,
        horizon: Optional[int] = None,
        dropped_rows: int = 0,
    ):
        super().__init__(contexts, rewards, horizon)
        self.name = name
        self._poisonous = poisonous
        self.dropped_rows = dropped_rows

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        if self._poisonous is not None and action == MUSHROOM_EAT and self._poisonous[t]:
            return (
                MUSHROOM_POISON_GOOD
                if rng.random() < 0.5
                else MUSHROOM_POISON_BAD
            )
        return self.expected_reward(t, action)

    def shuffled(self, seed: int) -> "DatasetBandit":
        """Copy with rows permuted under the trial seed."""
        perm = rng_at(seed).permutation(len(self.contexts))
        return DatasetBandit(
            self.contexts[perm],
            self.expected[perm],
            self.name,
            poisonous=None if self._poisonous is None else self._poisonous[perm],
            horizon=self.horizon,
            dropped_rows=self.dropped_rows,
        )


class ConstantFeatureEnv(Environment):
    """Wrapper appending a constant 1.0 coordinate to every context.

    Homogeneous linear models cannot represent rewards with a nonzero
    baseline (the wheel's safe arm pays 1.2 everywhere); the extra coordinate
    gives them an intercept without touching agent internals.  The expected
    rewards are the inner environment's own array, and its reward noise is
    the inner environment's.
    """

    def __init__(self, inner: Environment):
        self.inner = inner
        self.name = inner.name + "+const"
        ones = np.ones((len(inner.contexts), 1))
        super().__init__(np.hstack([inner.contexts, ones]), inner.expected, inner.horizon)

    def realize_reward(self, t: int, action: int, rng: np.random.Generator) -> float:
        return self.inner.realize_reward(t, action, rng)


def _read_rows(spec: DatasetSpec) -> tuple[list[list[str]], list[str]]:
    """Stripped cells of every non-blank data line, and the header's names."""
    with open(spec.path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if ln.strip()]
    reader = csv.reader(lines, delimiter=spec.delimiter, skipinitialspace=True)
    rows = [[cell.strip() for cell in row] for row in reader]
    names = rows.pop(0) if spec.header and rows else []
    if not rows:
        raise ValueError(f"{spec.path} has no data rows")
    return rows, names


def _one_hot(rows: list[list[str]], col: int, width: Optional[int] = None) -> np.ndarray:
    """Column ``col`` one-hot, slots in order of first appearance, padded with
    zero columns to ``width`` (a label column's num_actions) when given."""
    slots: dict = {}
    index = [slots.setdefault(row[col], len(slots)) for row in rows]
    if width is not None and len(slots) > width:
        raise ValueError(f"{len(slots)} labels exceed num_actions={width}")
    out = np.zeros((len(rows), width or len(slots)))
    out[np.arange(len(rows)), index] = 1.0
    return out


def dataset_load(spec: DatasetSpec) -> DatasetBandit:
    """Build a bandit from a delimited file per ``spec.reward_rule``.

    Context features are the numeric columns (parsed as floats) followed by
    one-hot encodings of the categorical columns (by default, every column
    without a role), slots ordered by first appearance.  Each column index is
    checked against the file, and a column given a second role is refused.
    Reward rules, each given the fields ``RULE_NEEDS`` names:

    * classification: k = num_actions, or the number of distinct labels;
      reward 1 for the label's action, 0 otherwise.
    * mushroom: k = 2 (eat, abstain); abstaining pays 0, eating pays +5 on an
      edible row and, on a poisonous row, +5 or -35 with equal probability
      (expected -15, which is what the reward table stores).
    * direct_columns: the declared reward columns are the k arms' payoffs.
    * song_gaussian: the label column holds an integer bucket in [0, k);
      reward = exp(-(action - bucket)^2 / 2).
    * financial_synthetic: arms are fixed random linear combinations of the
      context, with the mixing matrix drawn from ``spec.seed``.
    """
    rows, names = _read_rows(spec)
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{spec.path}: row {i + 1} has {len(row)} cells, expected {width}")
    if spec.header and len(names) != width:
        raise ValueError(
            f"{spec.path}: the header names {len(names)} columns, the rows have {width}")
    roles: dict = {}  # column index -> its role

    def column(col: Union[str, int], what: str) -> int:
        """The index of ``col``, checked, and recorded as the ``what`` column."""
        index = col
        if isinstance(col, str):
            if col not in names:
                raise ValueError(f"unknown {what} column {col!r}")
            if names.count(col) > 1:
                raise ValueError(f"{what} column {col!r} is the name of several columns")
            index = names.index(col)
        if not 0 <= index < width:
            raise ValueError(f"{what} column {col!r} is out of range for {width} columns")
        if index in roles:
            raise ValueError(f"{what} column {col!r} is already a {roles[index]} column")
        roles[index] = what
        return index

    numeric = [column(c, "numeric") for c in spec.numeric_columns]
    label = None if spec.label_column is None else column(spec.label_column, "label")
    reward_cols = [column(c, "reward") for c in spec.reward_columns]
    declared = spec.categorical_columns
    if declared is None:
        declared = [i for i in range(width) if i not in roles]
    categorical = [column(c, "categorical") for c in declared]

    kept = [row for row in rows if not any(row[c] in MISSING_TOKENS for c in roles)]
    dropped = len(rows) - len(kept)
    if dropped:
        logger.info("%s: dropped %d rows with missing values", spec.path, dropped)
    if not kept:
        raise ValueError(f"{spec.path}: no rows left after dropping missing values")
    X = np.hstack([
        np.array([[float(row[c]) for c in numeric] for row in kept]),
        *(_one_hot(kept, c) for c in categorical),
    ])

    rule = spec.reward_rule
    poisonous = None
    if rule == "classification":
        R = _one_hot(kept, label, spec.num_actions)
    elif rule == "mushroom":
        values = sorted({row[label] for row in kept})
        if len(values) != 2:
            raise ValueError("mushroom rule needs exactly two label values")
        # Lexicographically first label value is the edible class ('e' < 'p').
        poisonous = np.array([row[label] != values[0] for row in kept])
        R = np.zeros((len(kept), 2))
        R[:, MUSHROOM_EAT] = np.where(
            poisonous, MUSHROOM_POISON_EXPECTED, MUSHROOM_SAFE_REWARD
        )
    elif rule == "direct_columns":
        R = np.array([[float(row[c]) for c in reward_cols] for row in kept])
    elif rule == "song_gaussian":
        arms = np.arange(spec.num_actions)
        buckets = np.array([float(row[label]) for row in kept])
        if not np.isin(buckets, arms).all():
            raise ValueError("bucket labels must be integers in [0, num_actions)")
        R = np.exp(-0.5 * (arms[None, :] - buckets.astype(int)[:, None]) ** 2)
    else:  # financial_synthetic
        dim = X.shape[1]
        M = rng_at(spec.seed).standard_normal((spec.num_actions, dim)) / math.sqrt(dim)
        R = X @ M.T

    if spec.num_actions is not None and spec.num_actions != R.shape[1]:
        raise ValueError(f"num_actions={spec.num_actions}, but reward_rule {rule!r} has "
                         f"{R.shape[1]} arms")
    name = rule if rule != "direct_columns" else "direct"
    return DatasetBandit(
        X, R, name=name, poisonous=poisonous, horizon=spec.horizon, dropped_rows=dropped
    )


ENVIRONMENTS = {"wheel": WheelConfig, "linear": LinearConfig, "dataset": DatasetSpec}


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
