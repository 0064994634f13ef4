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
after a refactor.  Between refactors nothing reads the dense precision, so
a single row of a fresh arm is only recorded, and the precision lags until
something reads it (a stale arm's refactor, ``batch_update``, the
``precision`` property) or k*d rows are recorded; its diagonal, which
``"precision_diag"`` draws read, is kept current.

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

    A fresh arm's single rows are recorded in a block instead of added to
    the dense precision, which no draw reads; they are added, in the order
    they came, before anything reads ``precision`` or when the block is
    full, so its bits are those of adding each row at once.  The block grows
    to k*d rows for k arms, as many numbers as the precision, so a recorded
    row skips its add only if the posterior is dropped first, as
    NeuralLinear drops its heads at a refit; otherwise the add is deferred.
    The precision's diagonal is kept current row by row, and the "diag"
    variances are refreshed, when read, only for the arms an update or a
    refactor changed.  ``arm`` is any index of ``_stale``; an index of one
    arm must be hashable (an int or a tuple).

    A fresh arm's update works on that arm's views in place: S, mu, the
    precision's diagonal and ``bvec`` take their increments through two
    scratch arrays per posterior, ``_vec`` (length d) and ``_outer`` (d x d,
    the Potter correction), so a single row allocates only v = S'x and
    w = S v.  Its products are 1-D ``ndarray.dot`` calls, bitwise those of
    ``@`` and cheaper to dispatch.
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
        self._precision = np.broadcast_to(np.eye(dim) * ridge, arms + (dim, dim)).copy()
        self._precision_diag = np.diagonal(self._precision, axis1=-2, axis2=-1).copy()
        # single rows of fresh arms not yet added to _precision, in order, in
        # a block that doubles up to as many numbers as the precision holds
        self._max_rows = math.prod(arms) * dim
        self._rows = np.empty((min(16, self._max_rows), dim))
        self._row_arms: list = []
        self.bvec = np.zeros(arms + (dim,))
        self.yy = np.zeros(arms)
        self.count = np.zeros(arms, dtype=np.int64)
        self._stale = np.ones(arms, dtype=bool)
        self._any_stale = True  # whether _stale has a set entry
        self._mean = np.empty(arms + (dim,))
        self._cov_root = np.empty(arms + (dim, dim))
        self._arm_index = list(np.ndindex(arms))  # every arm's index, in C order
        # marginal variances (the "diag" projection), refreshed when read for
        # the arms named in _var_stale
        self._var = np.empty(arms + (dim,))
        self._var_stale = set(self._arm_index)
        self._vec = np.empty(dim)
        self._outer = np.empty((dim, dim))

    def _row(self, x: np.ndarray) -> np.ndarray:
        """``x`` as one float64 context row, or ValueError."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"expected context of shape ({self.dim},)")
        return x

    def update(self, x: np.ndarray, y: float, arm=()) -> None:
        """Rank-one update of ``arm`` with a single (x, y) pair."""
        x = self._row(x)
        stale = self._stale[arm]
        if isinstance(stale, np.bool_) and not stale:
            self._update_fresh(x, y, arm)
        else:  # a stale arm, or an index of several arms
            self.precision[arm] += x[:, None] * x
            self._precision_diag[arm] += x * x
            self.bvec[arm] += x * y
            self._stale[arm] = True
            self._any_stale = True
        self.yy[arm] += y * y
        self.count[arm] += 1

    def _update_fresh(self, x: np.ndarray, y: float, arm) -> None:
        """Record the row and carry the root and mean of the one fresh
        ``arm`` forward; raise before writing anything if the step is not
        finite."""
        root, mean = self._cov_root[arm], self._mean[arm]
        v = x.dot(root)
        s = v.dot(v)
        innovation = y - x.dot(mean)
        if not (math.isfinite(s) and math.isfinite(innovation)):
            raise ValueError(f"update of arm {arm} is not finite: "
                             f"x'P^-1 x = {s}, innovation {innovation}")
        n = len(self._row_arms)
        if n == self._max_rows:
            self._fold()
            n = 0
        elif n == len(self._rows):
            grown = np.empty((min(2 * n, self._max_rows), self.dim))
            grown[:n] = self._rows
            self._rows = grown
        self._rows[n] = x
        self._row_arms.append(arm)
        vec = self._vec
        diag, bvec = self._precision_diag[arm], self.bvec[arm]
        diag += np.multiply(x, x, out=vec)
        bvec += np.multiply(x, y, out=vec)
        w = root.dot(v)
        r = math.sqrt(1.0 + s)
        np.divide(w, r * (r + 1.0), out=vec)
        root -= np.multiply(vec[:, None], v, out=self._outer)
        mean += np.multiply(w, innovation / (1.0 + s), out=vec)
        self._var_stale.add(arm)

    def batch_update(self, X: np.ndarray, Y: np.ndarray, arm=()) -> None:
        """Absorb a whole design matrix into ``arm``; equivalent to repeated update."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim or X.shape[0] != Y.shape[0]:
            raise ValueError("X must be (n, dim) and Y (n,)")
        precision = self.precision
        precision[arm] += X.T @ X
        self._precision_diag[arm] = np.diagonal(precision[arm], axis1=-2, axis2=-1)
        self.bvec[arm] += X.T @ Y
        self.yy[arm] += float(Y @ Y)
        self.count[arm] += X.shape[0]
        self._stale[arm] = True
        self._any_stale = True

    def _fold(self) -> None:
        """Add the recorded rows to the dense precision in the order they
        came, as ``update`` would have added them."""
        for arm, x in zip(self._row_arms, self._rows):
            self._precision[arm] += x[:, None] * x
        self._row_arms.clear()

    @property
    def precision(self) -> np.ndarray:
        """X'X + lambda*I per arm, the recorded rows folded in."""
        self._fold()
        return self._precision

    def _factor(self) -> None:
        """Refactor the covariance root and mean of every stale arm."""
        if not self._any_stale:
            return
        for arm in map(tuple, np.argwhere(self._stale)):
            R = cholesky(self.precision[arm], lower=False)
            self._mean[arm] = cho_solve((R, False), self.bvec[arm])
            U, info = dtrtri(R, lower=0)
            if info != 0:
                raise LinAlgError(f"triangular inverse failed (trtri info {info})")
            self._cov_root[arm] = U
            self._stale[arm] = False
            self._var_stale.add(arm)
        self._any_stale = False

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
            for arm in self._var_stale:
                self._var[arm] = np.sum(self._cov_root[arm] ** 2, axis=-1)
            self._var_stale.clear()
            return self._var
        if approximation == "precision_diag":
            return 1.0 / self._precision_diag
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
            # S'x of every arm: ``dot`` of a row with a stack of roots sums
            # elementwise, slower than ``@`` and in another order
            v = x @ self._cov_root
            var = np.einsum("...i,...i->...", v, v)
        else:
            var = self.covariance_diagonal(approximation).dot(x * x)
        return mean.dot(x) + np.sqrt(sigma_sq * var) * rng.standard_normal(self.arms)


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
        gamma = np.empty(self.arms)
        z = np.empty(self.arms + (self.dim,))
        for i, shape in zip(self._arm_index, self.a.ravel().tolist()):
            gamma[i] = rng.gamma(shape)
            rng.standard_normal(out=z[i])
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
