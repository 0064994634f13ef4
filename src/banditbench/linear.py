"""Bayesian linear regression posteriors and the linear bandit agents.

One posterior object holds the ridge sufficient statistics of a batch of
independent arms (precision = X'X + lambda*I, bvec = X'Y per arm) with the
arms as leading axes: ``arms=()`` is a single posterior, ``arms=(k,)`` one
per action.  Every computation broadcasts over those leading axes, so both
shapes run the same lines.  Two families share those statistics:

* ``NIGLinearPosterior``: joint Normal-Inverse-Gamma over (beta, sigma^2);
  sigma^2 ~ IG(a, b) with a = a0 + t/2 and
  b = b0 + (Y'Y - mu' P mu) / 2, then beta | sigma^2 ~ N(mu, sigma^2 P^-1).
* ``FixedNoiseLinearPosterior``: known noise variance, beta ~ N(mu, s^2 P^-1).
  At s^2 = 0, a point mass whose score draw x'mu draws nothing: LinGreedy
  (``LinearGreedyAgent``) is ``LinearThompsonAgent`` there.

Both support sampling from the exact joint or from a diagonal projection of
the covariance.  ``"diag"`` keeps the marginal variances (the KL(p||q)
minimizer among diagonal Gaussians); ``"precision_diag"`` inverts the
precision's diagonal (the KL(q||p) minimizer), which shrinks the variances
whenever the posterior is correlated.  The projection affects sampling only;
means stay the exact ridge means.

Each arm carries a covariance root S (S S' = precision^-1) and its mean.  A
single observation updates both in O(d^2); a batch update, or an arm's
first read, refactors the precision, so S is upper-triangular only right
after a refactor.

A Thompson decision needs only each arm's score x'beta at the context x.
Given sigma^2 that score is N(x'mu, sigma^2 x'C x), independently across
arms, so ``sample(rng, approximation, at=x)`` draws k scores from k normals
instead of k coefficient vectors from k*d, as ``LinearThompsonAgent`` does.
``at`` is one row: the scores of several rows under one draw of beta are
correlated, and drawing them needs beta.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.linalg import solve_triangular  # noqa: F401  (perfbench's tracer wraps it here)
from scipy.linalg.lapack import dtrtri

from .core import Agent, Observation

APPROXIMATIONS = ("exact", "diag", "precision_diag")


class _RidgePosterior:
    """Ridge statistics, means and covariance roots of a batch of arms.

    Each arm keeps its mean and a root S of its covariance, S S' =
    precision^-1, through which ``sample`` draws every arm in one product:
    beta = mu + sqrt(sigma^2) S z, or, at one context row x, the score
    x'mu + sqrt(sigma^2 ||S'x||^2) z with one normal per arm, which is how
    a linear Thompson decision draws.  Only one row: the scores of several
    rows under one beta are correlated, so they need the beta draw.
    A single-row ``update`` of a fresh arm carries both forward in O(d^2),
    without a factorization: with v = S'x, w = S v, s = v'v and
    r = sqrt(1 + s), Potter's square-root form S <- S - w v' / (r (r + 1))
    and the Kalman step mu <- mu + w (y - x'mu) / (1 + s).  An arm is stale
    before its first read and after a ``batch_update`` or any update that
    does not name a single arm; the next read refactors it.  The upper
    Cholesky factor R of its precision gives the mean (``cho_solve``) and
    S = R^-1 (LAPACK ``trtri``, a third of the flops of solving R S = I), so
    S is upper-triangular only right after a refactor.
    """

    def __init__(self, dim: int, ridge: float, *, arms: tuple = ()):
        if dim < 1:
            raise ValueError("dim must be positive")
        if ridge <= 0:
            raise ValueError("ridge must be positive")
        arms = tuple(arms)
        if any(n < 1 for n in arms):
            raise ValueError("arm counts must be positive")
        self.dim = dim
        self.ridge = ridge
        self.arms = arms
        self.precision = np.broadcast_to(np.eye(dim) * ridge, arms + (dim, dim)).copy()
        self.bvec = np.zeros(arms + (dim,))
        self.yy = np.zeros(arms)
        self.count = np.zeros(arms, dtype=np.int64)
        self._stale = np.ones(arms, dtype=bool)
        self._mean = np.empty(arms + (dim,))
        self._cov_root = np.empty(arms + (dim, dim))
        # marginal variances (the "diag" projection), refreshed when read
        self._var = np.empty(arms + (dim,))
        self._var_stale = np.ones(arms, dtype=bool)

    def _row(self, x: np.ndarray) -> np.ndarray:
        """``x`` as one float64 context row, or ValueError."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected context of shape ({self.dim},)")
        return x

    def update(self, x: np.ndarray, y: float, arm=()) -> None:
        """Rank-one update of ``arm`` with a single (x, y) pair."""
        x = self._row(x)
        fresh = np.ndim(self._stale[arm]) == 0 and not self._stale[arm]
        if fresh:
            root = self._cov_root[arm]
            v = x @ root
            s = v @ v
            innovation = y - x @ self._mean[arm]
            if not (math.isfinite(s) and math.isfinite(innovation)):
                raise ValueError(f"update of arm {arm} is not finite: "
                                 f"x'P^-1 x = {s}, innovation {innovation}")
        self.precision[arm] += x[:, None] * x
        self.bvec[arm] += x * y
        self.yy[arm] += y * y
        self.count[arm] += 1
        if fresh:
            w = root @ v
            r = math.sqrt(1.0 + s)
            root -= (w / (r * (r + 1.0)))[:, None] * v
            self._mean[arm] += w * (innovation / (1.0 + s))
            self._var_stale[arm] = True
        else:
            self._stale[arm] = True

    def batch_update(self, X: np.ndarray, Y: np.ndarray, arm=()) -> None:
        """Absorb a whole design matrix into ``arm``; equivalent to repeated update."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim or X.shape[0] != Y.shape[0]:
            raise ValueError("X must be (n, dim) and Y (n,)")
        self.precision[arm] += X.T @ X
        self.bvec[arm] += X.T @ Y
        self.yy[arm] += float(Y @ Y)
        self.count[arm] += X.shape[0]
        self._stale[arm] = True

    def _factor(self) -> None:
        """Refactor the covariance root and mean of every stale arm."""
        if not self._stale.any():
            return
        for arm in map(tuple, np.argwhere(self._stale)):
            R = cholesky(self.precision[arm], lower=False)
            self._mean[arm] = cho_solve((R, False), self.bvec[arm])
            U, info = dtrtri(R, lower=0)
            if info != 0:
                raise LinAlgError(f"triangular inverse failed (trtri info {info})")
            self._cov_root[arm] = U
            self._stale[arm] = False
            self._var_stale[arm] = True

    @property
    def mean(self) -> np.ndarray:
        """Posterior mean mu = precision^-1 bvec (the ridge estimate)."""
        self._factor()
        return self._mean

    def covariance(self) -> np.ndarray:
        """Full precision inverse (the unit-noise posterior covariance)."""
        self._factor()
        return self._cov_root @ np.swapaxes(self._cov_root, -1, -2)

    def covariance_diagonal(self, approximation: str) -> np.ndarray:
        """Per-coordinate variances of the named diagonal projection."""
        if approximation == "diag":
            self._factor()
            changed = self._var_stale
            if changed.any():
                self._var[changed] = np.sum(self._cov_root[changed] ** 2, axis=-1)
                changed[...] = False
            return self._var
        if approximation == "precision_diag":
            return 1.0 / np.diagonal(self.precision, axis1=-2, axis2=-1)
        raise ValueError(f"unknown approximation {approximation!r}")

    def _draw(self, z: np.ndarray, sigma_sq: np.ndarray, approximation: str) -> np.ndarray:
        """mean + sqrt(sigma_sq) * C^(1/2) z, C the chosen covariance shape."""
        mean = self.mean
        if approximation == "exact":
            noise = (self._cov_root @ z[..., None])[..., 0]
        else:
            noise = np.sqrt(self.covariance_diagonal(approximation)) * z
        return mean + np.sqrt(sigma_sq)[..., None] * noise

    def _score_draw(self, x: np.ndarray, sigma_sq: np.ndarray, approximation: str,
                    rng: np.random.Generator) -> np.ndarray:
        """x'mu + sqrt(sigma_sq * x'C x) z per arm, one normal each; C the
        chosen covariance shape, x one context row."""
        x = self._row(x)
        mean = self.mean
        if approximation == "exact":
            v = x @ self._cov_root  # S'x of every arm
            var = np.einsum("...i,...i->...", v, v)
        else:
            var = self.covariance_diagonal(approximation) @ (x * x)
        return mean @ x + np.sqrt(sigma_sq * var) * rng.standard_normal(self.arms)


class NIGLinearPosterior(_RidgePosterior):
    """Normal-Inverse-Gamma posterior over (beta, sigma^2).

    Parameters
    ----------
    dim : context dimension.
    ridge : prior precision scale lambda (prior precision = lambda * I).
    a0, b0 : Inverse-Gamma prior on the noise variance; a0 > 1 keeps the
        prior mean b0 / (a0 - 1) finite.
    arms : leading batch shape; one independent posterior per entry.
    """

    def __init__(self, dim: int, ridge: float = 0.25, a0: float = 6.0, b0: float = 6.0,
                 *, arms: tuple = ()):
        super().__init__(dim, ridge, arms=arms)
        if a0 <= 1:
            raise ValueError("a0 must exceed 1")
        if b0 <= 0:
            raise ValueError("b0 must be positive")
        self.a0 = a0
        self.b0 = b0

    @property
    def a(self) -> np.ndarray:
        return self.a0 + self.count / 2.0

    @property
    def b(self) -> np.ndarray:
        # yy - mu.bvec = residual sum of squares + ridge penalty >= 0; clamp
        # the tiny negatives floating-point cancellation can produce.
        quad = self.yy - np.einsum("...i,...i->...", self.mean, self.bvec)
        return self.b0 + 0.5 * np.maximum(quad, 0.0)

    def sample(
        self, rng: np.random.Generator, approximation: str = "exact",
        at: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Joint draw (beta, sigma^2) of every arm, or (x'beta, sigma^2) at
        the one context row ``at = x``.

        sigma^2 ~ IG(a, b) is drawn as b / Gamma(shape=a, scale=1).  For beta,
        arm by arm, each arm's gamma comes before its d normals; for scores,
        every arm's gamma in one call, then one normal per arm.
        """
        if at is not None:
            sigma_sq = self.b / rng.gamma(self.a)
            return self._score_draw(at, sigma_sq, approximation, rng), sigma_sq
        a = self.a
        gamma = np.empty(self.arms)
        z = np.empty(self.arms + (self.dim,))
        for i in np.ndindex(self.arms):
            gamma[i] = rng.gamma(a[i])
            z[i] = rng.standard_normal(self.dim)
        sigma_sq = self.b / gamma
        return self._draw(z, sigma_sq, approximation), sigma_sq


class FixedNoiseLinearPosterior(_RidgePosterior):
    """Gaussian posterior over beta with a known noise variance.

    sigma_sq = 0 gives a point mass at the ridge mean, whose score draw x'mu
    draws nothing: Thompson sampling is then the greedy rule (LinGreedy) exactly.
    """

    def __init__(self, dim: int, ridge: float = 0.25, sigma_sq: float = 0.25,
                 *, arms: tuple = ()):
        super().__init__(dim, ridge, arms=arms)
        if sigma_sq < 0:
            raise ValueError("sigma_sq must be >= 0")
        self.sigma_sq = sigma_sq
        self._arm_sigma_sq = np.broadcast_to(sigma_sq, arms)  # read-only, as sample returns it

    def sample(
        self, rng: np.random.Generator, approximation: str = "exact",
        at: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw every arm's beta, or its score x'beta at the one context row
        ``at = x`` (one normal per arm, none at sigma^2 = 0); sigma^2 is known."""
        sigma_sq = self._arm_sigma_sq
        if at is not None:
            if self.sigma_sq == 0.0:
                return self.mean @ self._row(at), sigma_sq
            return self._score_draw(at, sigma_sq, approximation, rng), sigma_sq
        z = rng.standard_normal(self.arms + (self.dim,))
        return self._draw(z, sigma_sq, approximation), sigma_sq


class LinearThompsonAgent(Agent):
    """Thompson sampling with per-action Bayesian linear regression.

    ``sigma_sq=None`` selects the Normal-Inverse-Gamma posterior (noise
    variance learned); a float the fixed-noise one, 0.0 its point mass (greedy).
    ``approximation`` picks the sampling covariance: exact, marginal-variance
    diagonal, or inverse-precision diagonal.  A decision draws each arm's
    score at the context, not its coefficients (``sample(..., at=context)``),
    or, with probability ``epsilon``, a uniform action (``Agent.choose``).
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
        approximation: str = "exact",
        epsilon: float = 0.0,
        name: str = "LinTS",
    ):
        if approximation not in APPROXIMATIONS:
            raise ValueError(f"approximation must be one of {APPROXIMATIONS}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if sigma_sq is None:
            self.posterior = NIGLinearPosterior(dim, ridge, a0, b0, arms=(num_actions,))
        else:
            self.posterior = FixedNoiseLinearPosterior(
                dim, ridge, sigma_sq, arms=(num_actions,)
            )
        self.approximation = approximation
        self.num_actions = num_actions
        self.epsilon = epsilon
        self.name = name

    choose = Agent.choose  # perfbench's tracer patches it here; see ROADMAP item 4

    def sample_scores(self, context: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.posterior.sample(rng, self.approximation, at=context)[0]

    def observe(self, obs: Observation) -> None:
        self.posterior.update(obs.context, obs.reward, obs.action)


class LinearGreedyAgent(LinearThompsonAgent):
    """Ridge-regression greedy baseline with optional epsilon exploration:
    Thompson sampling under the point-mass posterior (sigma_sq = 0)."""

    def __init__(self, dim: int, num_actions: int, *, ridge: float = 0.25, epsilon: float = 0.0,
                 name: str = "LinGreedy"):
        super().__init__(dim, num_actions, ridge=ridge, sigma_sq=0.0, epsilon=epsilon, name=name)

    # perfbench/tracing.py patches these on this class itself; ROADMAP item 4 drops the alias
    choose, observe = LinearThompsonAgent.choose, LinearThompsonAgent.observe
