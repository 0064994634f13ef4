"""Posterior sampling by noisy optimization: SGFS, constant SGD, and
Bayes-by-backprop.

The first two treat the network iterate itself as the posterior sample: each
training period runs a handful of preconditioned stochastic-gradient steps,
and the agent acts greedily on whatever the chain currently holds.  Both
precondition with a diagonal EMA of squared gradients (an empirical Fisher
stand-in).  Bayes-by-backprop instead maintains a factorized Gaussian over
every weight and draws a fresh network at decision time.  All three are a
``neural.TrainableNet``, as the reward nets are, so they take a
``TrainingSchedule`` (BBB's ramp of batches is the schedule's), keep its
history, training loop and seed tree and train in its float32; they override
only the batch gradients, the update, and (BBB) the scores.  The functions
here work on whole vectors laid out as a net's ``flat`` (Fisher diagonal, chain
steps, BBB's noise and gradient), check that each has the parameters' shape,
and compute and draw noise in their dtype.  The chain steps take plain numbers,
which the agents check.  A ``VariationalNet`` builds its ``mu`` and ``rho``
views once, and a BBB batch works out softplus(rho) once.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import SeedLike, seed_at
from .mlp import (
    MLP,
    TrainingSchedule,
    Workspace,
    check_shape,
    masked_mse,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_predict,
)
from .neural import DEFAULT_HIDDEN, TrainableNet

DIAG_FLOOR = 1e-10


class FisherEMA:
    """Diagonal EMA of squared gradients, one vector laid out as the parameters."""

    def __init__(self, params: np.ndarray, decay: float = 0.9):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"ema_decay must lie in [0, 1), got {decay!r}")
        self.decay = decay
        self.diag = np.zeros_like(params)

    def update(self, grads: np.ndarray) -> None:
        check_shape("gradient", grads, self.diag.shape)
        self.diag *= self.decay
        self.diag += (1.0 - self.decay) * grads * grads


def _chain_step_checks(params, grads, ema, data_count, noise_scale, rng, skip_noise) -> bool:
    """The checks both chain steps make; returns whether to inject noise."""
    if data_count < 1:
        raise ValueError("data_count must be positive")
    inject = not skip_noise and noise_scale > 0.0
    if inject and rng is None:
        raise ValueError("rng required when noise is enabled")
    check_shape("gradient", grads, params.shape)
    check_shape("Fisher diagonal", ema.diag, params.shape)
    return inject


def sgfs_step(
    params: np.ndarray,
    grads: np.ndarray,
    ema: FisherEMA,
    data_count: int,
    step_size: float,
    noise_scale: float,
    rng: Optional[np.random.Generator] = None,
    skip_noise: bool = False,
) -> None:
    """One Fisher-scored step: theta -= eps*H*g, plus matched Gaussian noise.

    H = (2/N) / ((1 + eps) * diag) elementwise, with eps the step size and
    the EMA diagonal standing in for both curvature factors.  The noise term
    noise_scale * sqrt(eps) * H * sqrt(diag) * nu is omitted during burn-in
    (``skip_noise``) or when the noise scale is zero, in which case no random
    draws are consumed at all.
    """
    inject = _chain_step_checks(params, grads, ema, data_count, noise_scale, rng, skip_noise)
    eps = step_size
    diag = np.maximum(ema.diag, DIAG_FLOOR)
    h = (2.0 / data_count) / ((1.0 + eps) * diag)
    params -= eps * h * grads
    if inject:
        nu = rng.standard_normal(params.shape, dtype=params.dtype)
        params += noise_scale * math.sqrt(eps) * h * np.sqrt(diag) * nu


def const_sgd_step(
    params: np.ndarray,
    grads: np.ndarray,
    ema: FisherEMA,
    batch_size: int,
    data_count: int,
    noise_scale: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    skip_noise: bool = False,
) -> None:
    """theta -= eps_i * g with per-parameter eps_i = 2 (S/N) / diag_i.

    The batch-to-data ratio S/N and the inverse EMA diagonal give the step
    size under which plain SGD's stationary distribution matches the target
    scale.  An optional sqrt(eps)-shaped Gaussian term can be injected; as in
    ``sgfs_step``, it is omitted during burn-in (``skip_noise``) or when the
    noise scale is zero (the default), and then no random draws are consumed.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    inject = _chain_step_checks(params, grads, ema, data_count, noise_scale, rng, skip_noise)
    ratio = 2.0 * batch_size / data_count
    eps = ratio / np.maximum(ema.diag, DIAG_FLOOR)
    params -= eps * grads
    if inject:
        params += noise_scale * np.sqrt(eps) * rng.standard_normal(
            params.shape, dtype=params.dtype)


class _SGChainAgent(TrainableNet):
    """Shared scaffolding: greedy choice on the current chain iterate."""

    # perfbench's tracer patches these names on this class itself; ROADMAP
    # item 4's benchmark rework retires the alias
    choose, observe, maybe_train = (TrainableNet.choose, TrainableNet.observe,
                                    TrainableNet.maybe_train)

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        noise_scale: float,
        *,
        ema_decay: float = 0.9,
        burn_in: int = 500,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str,
    ):
        if noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        super().__init__(dim, num_actions, schedule, seed_at(seed, 0), hidden)
        self.ema = FisherEMA(self.net.flat, ema_decay)
        self.noise_scale = noise_scale
        self.burn_in = burn_in
        self.name = name

    def burning_in(self) -> bool:
        """True while the batch about to step is one of the first ``burn_in``."""
        return self.batches_run < self.burn_in


class SGFSAgent(_SGChainAgent):
    """Stochastic gradient Fisher scoring chain as the posterior."""

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        *,
        step_size: float = 0.014,
        noise_scale: float = 0.75,
        name: str = "SGFS",
        **chain,
    ):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        super().__init__(dim, num_actions, schedule, seed, noise_scale, name=name, **chain)
        self.step_size = step_size

    def _step(self, grads, data_count, batch_index) -> None:
        self.ema.update(grads)
        sgfs_step(self.net.flat, grads, self.ema, data_count, self.step_size, self.noise_scale,
                  self.train_rng, self.burning_in())


class ConstSGDAgent(_SGChainAgent):
    """Constant-step SGD chain as the posterior."""

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        *,
        noise_scale: float = 0.0,
        name: str = "ConstSGD",
        **chain,
    ):
        super().__init__(dim, num_actions, schedule, seed, noise_scale, name=name, **chain)

    def _step(self, grads, data_count, batch_index) -> None:
        # Burn-in for plain constant SGD means "optimize first"; the update
        # rule is the same either way unless noise injection is enabled.
        self.ema.update(grads)
        const_sgd_step(self.net.flat, grads, self.ema, self.schedule.batch_size, data_count,
                       self.noise_scale, self.train_rng, self.burning_in())


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def softplus_inverse(y: float) -> float:
    if y <= 0:
        raise ValueError("softplus is positive")
    return y + math.log(-math.expm1(-y))


def gaussian_kl(mu: np.ndarray, sigma_q: np.ndarray, sigma_p: float) -> float:
    """Closed-form KL(N(mu, diag sigma_q^2) || N(0, sigma_p^2 I)), summed."""
    per = (
        math.log(sigma_p) - np.log(sigma_q)
        + (sigma_q * sigma_q + mu * mu) / (2.0 * sigma_p * sigma_p)
        - 0.5
    )
    return float(np.sum(per))


class VariationalNet:
    """Factorized Gaussian over every MLP parameter.

    ``flat`` is the whole state, so one optimizer steps it: the means, then
    the pre-stddevs.  ``mu`` is an MLP over its first half and ``rho`` a view
    of its second.  Each parameter w has stddev = softplus(rho); sampling uses
    the reparameterization w = mu + softplus(rho) * nu.  rho is initialized
    so the stddev starts at 5% of the prior scale.
    """

    layer_norm = False  # of the nets it samples

    def __init__(
        self,
        sizes: Sequence[int],
        prior_sigma: float,
        rng: np.random.Generator,
    ):
        if prior_sigma <= 0:
            raise ValueError("prior_sigma must be positive")
        self.prior_sigma = prior_sigma
        self.sizes = tuple(int(s) for s in sizes)
        mu = mlp_init(self.sizes, rng).flat
        rho0 = softplus_inverse(0.05 * prior_sigma)
        self._hold(np.concatenate([mu, np.full_like(mu, rho0)]))

    def _hold(self, flat: np.ndarray) -> None:
        """Make ``flat`` the state, and ``mu`` and ``rho`` its halves' views."""
        half = flat.size // 2
        self.flat, self.mu, self.rho = flat, MLP(self.sizes, flat[:half]), flat[half:]

    def __getstate__(self):
        return self.sizes, self.prior_sigma, self.flat

    def __setstate__(self, state):
        # copy.deepcopy and pickle rebuild the views from the one vector
        self.sizes, self.prior_sigma, flat = state
        self._hold(flat)

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a vector laid out as ``flat``: mu's, then rho's."""
        half = vector.size // 2
        return self.mu.split(vector[:half]) + self.mu.split(vector[half:])

    def astype(self, dtype) -> "VariationalNet":
        """A copy with mu and rho cast to ``dtype``."""
        cast = VariationalNet.__new__(VariationalNet)
        cast.__setstate__((self.sizes, self.prior_sigma, self.flat.astype(dtype)))
        return cast

    def stddevs(self) -> np.ndarray:
        return softplus(self.rho)

    def kl_to_prior(self) -> float:
        return gaussian_kl(self.mu.flat, self.stddevs(), self.prior_sigma)

    def sample(
        self, rng: Optional[np.random.Generator] = None,
        noise: Optional[np.ndarray] = None,
    ) -> tuple[MLP, np.ndarray]:
        """Draw a concrete network; returns it with the noise used."""
        return self._sample(self.stddevs(), rng, noise)

    def _sample(self, sigma, rng, noise) -> tuple[MLP, np.ndarray]:
        """``sample`` with the stddevs ``sigma`` already worked out."""
        mu = self.mu.flat
        if noise is None:
            if rng is None:
                raise ValueError("either rng or noise must be given")
            noise = rng.standard_normal(mu.size, dtype=mu.dtype)
        check_shape("noise", noise, mu.shape)
        return MLP(self.sizes, mu + sigma * noise), noise


def bbb_loss_and_grads(
    vnet: VariationalNet,
    contexts: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    total_count: int,
    noise_sigma: float,
    rng: Optional[np.random.Generator] = None,
    noise: Optional[np.ndarray] = None,
    workspace: Optional[Workspace] = None,
) -> tuple[float, float, np.ndarray]:
    """Single-sample variational loss and its gradients.

    loss = KL(q || prior) / total_count + mean masked Gaussian NLL, with the
    per-observation NLL (y - yhat)^2 / (2 sigma^2) (log-normalizer constant
    dropped).  The KL term is closed-form; only the likelihood term is
    estimated with one reparameterized weight sample.  The gradient is one
    vector laid out as ``vnet.flat`` (mu, then rho).  The sampled net's
    batch runs in ``workspace`` when one is given (``mlp.Workspace``).
    """
    if total_count < 1:
        raise ValueError("total_count must be positive")
    if noise_sigma <= 0:
        raise ValueError("noise_sigma must be positive")
    mu, sigma = vnet.mu.flat, vnet.stddevs()
    sampled, noise = vnet._sample(sigma, rng, noise)
    out, cache = mlp_forward(sampled, contexts, workspace=workspace)
    mse, dmse = masked_mse(out, actions, rewards, workspace=workspace)
    scale = 1.0 / (2.0 * noise_sigma * noise_sigma)
    nll = mse * scale
    dmse *= scale
    dw = mlp_backward(sampled, cache, dmse)

    kl = gaussian_kl(mu, sigma, vnet.prior_sigma)
    loss = kl / total_count + nll
    pvar = vnet.prior_sigma * vnet.prior_sigma
    gate = 1.0 / (1.0 + np.exp(-vnet.rho))  # d softplus / d rho
    dmu = dw + (mu / pvar) / total_count
    dkl_dsigma = (-1.0 / sigma + sigma / pvar) / total_count
    drho = (dw * noise + dkl_dsigma) * gate
    return loss, kl, np.concatenate([dmu, drho])


class BayesByBackpropAgent(TrainableNet):
    """Thompson sampling from a mean-field variational weight posterior.

    Each decision draws a full network from q (``net``).  Training periods
    minimize the single-sample variational loss with RMSProp at the
    schedule's rate; the long-horizon preset's schedule runs a long ramp of
    extra mini-batches in early periods to get the posterior moving.
    """

    def __init__(
        self,
        dim: int,
        num_actions: int,
        schedule: TrainingSchedule,
        seed: SeedLike,
        *,
        prior_sigma: float = 1.0,
        noise_sigma: float = 0.1,
        hidden: Sequence[int] = DEFAULT_HIDDEN,
        name: str = "BBB",
    ):
        if not noise_sigma > 0:
            raise ValueError("noise_sigma must be positive")
        self.prior_sigma = prior_sigma
        super().__init__(dim, num_actions, schedule, seed_at(seed, 0), hidden)
        self.noise_sigma = noise_sigma
        self.name = name

    def _init_net(self, sizes, rng, layer_norm):
        return VariationalNet(sizes, self.prior_sigma, rng)

    def _loss_and_grads(self, X, actions, rewards, data_count):
        loss, _, grads = bbb_loss_and_grads(
            self.net, X, actions, rewards, total_count=data_count,
            noise_sigma=self.noise_sigma, rng=self.train_rng, workspace=self.workspace,
        )
        return loss, grads

    def sample_scores(self, context: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        sampled, _ = self.net.sample(rng)
        return mlp_predict(sampled, context)[0]
