"""Bayesian linear regression posteriors and the linear bandit agents.

Two posterior families share the same ridge sufficient statistics
(precision = X'X + lambda*I, bvec = X'Y):

* ``NIGLinearPosterior``: joint Normal-Inverse-Gamma over (beta, sigma^2);
  sigma^2 ~ IG(a, b) with a = a0 + t/2 and
  b = b0 + (Y'Y - mu' P mu) / 2, then beta | sigma^2 ~ N(mu, sigma^2 P^-1).
* ``FixedNoiseLinearPosterior``: known noise variance, beta ~ N(mu, s^2 P^-1).

Both support sampling from the exact joint or from a diagonal projection of
the covariance.  ``"diag"`` keeps the marginal variances (the KL(p||q)
minimizer among diagonal Gaussians); ``"precision_diag"`` inverts the
precision's diagonal (the KL(q||p) minimizer), which shrinks the variances
whenever the posterior is correlated.  The projection affects sampling only;
means stay the exact ridge means.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .core import Agent, Observation

APPROXIMATIONS = ("exact", "diag", "precision_diag")


class _RidgePosterior:
    """Shared sufficient statistics and solves for both posterior families."""

    def __init__(self, dim: int, ridge: float):
        if dim < 1:
            raise ValueError("dim must be positive")
        if ridge <= 0:
            raise ValueError("ridge must be positive")
        self.dim = dim
        self.ridge = ridge
        self.precision = np.eye(dim) * ridge
        self.bvec = np.zeros(dim)
        self.yy = 0.0
        self.count = 0
        self._chol: Optional[np.ndarray] = None  # upper factor of precision
        self._mean: Optional[np.ndarray] = None
        self._cov_diag: Optional[np.ndarray] = None

    def _invalidate(self) -> None:
        self._chol = None
        self._mean = None
        self._cov_diag = None

    def update(self, x: np.ndarray, y: float) -> None:
        """Rank-one update with a single (x, y) pair."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected context of shape ({self.dim},)")
        self.precision += np.outer(x, x)
        self.bvec += x * y
        self.yy += y * y
        self.count += 1
        self._invalidate()

    def batch_update(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Absorb a whole design matrix at once; equivalent to repeated update."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim or X.shape[0] != Y.shape[0]:
            raise ValueError("X must be (n, dim) and Y (n,)")
        self.precision += X.T @ X
        self.bvec += X.T @ Y
        self.yy += float(Y @ Y)
        self.count += X.shape[0]
        self._invalidate()

    def _factor(self) -> np.ndarray:
        if self._chol is None:
            self._chol = cholesky(self.precision, lower=False)
        return self._chol

    @property
    def mean(self) -> np.ndarray:
        """Posterior mean mu = precision^-1 bvec (the ridge estimate)."""
        if self._mean is None:
            self._mean = cho_solve((self._factor(), False), self.bvec)
        return self._mean

    def covariance(self) -> np.ndarray:
        """Full precision inverse (the unit-noise posterior covariance)."""
        return cho_solve((self._factor(), False), np.eye(self.dim))

    def covariance_diagonal(self, approximation: str) -> np.ndarray:
        """Per-coordinate variances of the named diagonal projection."""
        if approximation == "diag":
            if self._cov_diag is None:
                self._cov_diag = np.diag(self.covariance()).copy()
            return self._cov_diag
        if approximation == "precision_diag":
            return 1.0 / np.diag(self.precision)
        raise ValueError(f"unknown approximation {approximation!r}")

    def _sample_unit(self, rng: np.random.Generator, approximation: str) -> np.ndarray:
        """Draw from N(0, C) where C is the chosen covariance shape."""
        z = rng.standard_normal(self.dim)
        if approximation == "exact":
            # precision = R'R with R upper, so R^-1 z has covariance P^-1.
            return solve_triangular(self._factor(), z, lower=False)
        return np.sqrt(self.covariance_diagonal(approximation)) * z


class NIGLinearPosterior(_RidgePosterior):
    """Normal-Inverse-Gamma posterior over (beta, sigma^2).

    Parameters
    ----------
    dim : context dimension.
    ridge : prior precision scale lambda (prior precision = lambda * I).
    a0, b0 : Inverse-Gamma prior on the noise variance; a0 > 1 keeps the
        prior mean b0 / (a0 - 1) finite.
    """

    def __init__(self, dim: int, ridge: float = 0.25, a0: float = 6.0, b0: float = 6.0):
        super().__init__(dim, ridge)
        if a0 <= 1:
            raise ValueError("a0 must exceed 1")
        if b0 <= 0:
            raise ValueError("b0 must be positive")
        self.a0 = a0
        self.b0 = b0

    @property
    def a(self) -> float:
        return self.a0 + self.count / 2.0

    @property
    def b(self) -> float:
        # yy - mu.bvec = residual sum of squares + ridge penalty >= 0; clamp
        # the tiny negatives floating-point cancellation can produce.
        quad = self.yy - float(self.mean @ self.bvec)
        return self.b0 + 0.5 * max(quad, 0.0)

    def sample_noise_variance(self, rng: np.random.Generator) -> float:
        """sigma^2 ~ InvGamma(a, b), drawn as b / Gamma(shape=a, scale=1)."""
        return self.b / rng.gamma(self.a)

    def sample(
        self, rng: np.random.Generator, approximation: str = "exact"
    ) -> tuple[np.ndarray, float]:
        """Joint draw (beta, sigma^2); sigma^2 first, then beta | sigma^2."""
        sigma_sq = self.sample_noise_variance(rng)
        beta = self.mean + np.sqrt(sigma_sq) * self._sample_unit(rng, approximation)
        return beta, sigma_sq


class FixedNoiseLinearPosterior(_RidgePosterior):
    """Gaussian posterior over beta with a known noise variance.

    sigma_sq = 0 gives a point mass at the ridge mean, which turns Thompson
    sampling into the greedy rule exactly.
    """

    def __init__(self, dim: int, ridge: float = 0.25, sigma_sq: float = 0.25):
        super().__init__(dim, ridge)
        if sigma_sq < 0:
            raise ValueError("sigma_sq must be >= 0")
        self.sigma_sq = sigma_sq

    def sample(self, rng: np.random.Generator, approximation: str = "exact") -> np.ndarray:
        return self.mean + np.sqrt(self.sigma_sq) * self._sample_unit(rng, approximation)


class PerActionLinearModel:
    """One independent posterior per action over the raw contexts.

    The models are homogeneous; to fit a reward baseline, build the
    environment with ``constant_feature = true`` (``ConstantFeatureEnv``).
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        *,
        ridge: float = 0.25,
        a0: float = 6.0,
        b0: float = 6.0,
        sigma_sq: Optional[float] = None,
    ):
        if num_actions < 1:
            raise ValueError("num_actions must be positive")
        self.dim = dim
        self.num_actions = num_actions
        if sigma_sq is None:
            self.posteriors = [
                NIGLinearPosterior(dim, ridge, a0, b0) for _ in range(num_actions)
            ]
        else:
            self.posteriors = [
                FixedNoiseLinearPosterior(dim, ridge, sigma_sq) for _ in range(num_actions)
            ]

    def update(self, x: np.ndarray, action: int, reward: float) -> None:
        self.posteriors[action].update(x, reward)


def linear_ts_choose(
    model: PerActionLinearModel, x: np.ndarray, rng: np.random.Generator,
    approximation: str = "exact",
) -> int:
    """Sample every action's parameters and act greedily on the samples."""
    scores = np.empty(model.num_actions)
    for a, post in enumerate(model.posteriors):
        sampled = post.sample(rng, approximation)
        beta = sampled[0] if isinstance(sampled, tuple) else sampled
        scores[a] = float(beta @ x)
    return int(np.argmax(scores))


def linear_greedy_choose(
    model: PerActionLinearModel, x: np.ndarray, epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Argmax of the posterior-mean predictions, with epsilon exploration."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(model.num_actions))
    scores = np.array([float(p.mean @ x) for p in model.posteriors])
    return int(np.argmax(scores))


class LinearThompsonAgent(Agent):
    """Thompson sampling with per-action Bayesian linear regression.

    ``sigma_sq=None`` selects the Normal-Inverse-Gamma posterior (noise
    variance learned); a float selects the fixed-noise Gaussian posterior.
    ``approximation`` picks the sampling covariance: exact, marginal-variance
    diagonal, or inverse-precision diagonal.
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        *,
        ridge: float = 0.25,
        a0: float = 6.0,
        b0: float = 6.0,
        sigma_sq: Optional[float] = None,
        approximation: str = "exact",
        name: str = "LinTS",
    ):
        if approximation not in APPROXIMATIONS:
            raise ValueError(f"approximation must be one of {APPROXIMATIONS}")
        self.model = PerActionLinearModel(
            dim, num_actions, ridge=ridge, a0=a0, b0=b0, sigma_sq=sigma_sq
        )
        self.approximation = approximation
        self.name = name

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        return linear_ts_choose(self.model, context, rng, self.approximation)

    def observe(self, obs: Observation) -> None:
        self.model.update(obs.context, obs.action, obs.reward)


class LinearGreedyAgent(Agent):
    """Ridge-regression greedy baseline with optional epsilon exploration."""

    def __init__(
        self,
        dim: int,
        num_actions: int,
        *,
        ridge: float = 0.25,
        sigma_sq: float = 0.25,
        epsilon: float = 0.0,
        name: str = "LinGreedy",
    ):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.model = PerActionLinearModel(dim, num_actions, ridge=ridge, sigma_sq=sigma_sq)
        self.epsilon = epsilon
        self.name = name

    def choose(self, context: np.ndarray, rng: np.random.Generator) -> int:
        return linear_greedy_choose(self.model, context, self.epsilon, rng)

    def observe(self, obs: Observation) -> None:
        self.model.update(obs.context, obs.action, obs.reward)
