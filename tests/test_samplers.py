"""Stochastic-gradient posterior chains and the variational agent."""

import copy
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from banditbench import (
    BayesByBackpropAgent,
    ConstSGDAgent,
    FisherEMA,
    Observation,
    SGFSAgent,
    VariationalNet,
    bbb_loss_and_grads,
    const_sgd_step,
    get_preset,
    run_trial,
    samplers,
    sgfs_step,
)
from banditbench.bench import setup_run
from banditbench.config import load_config
from banditbench.mlp import (
    TrainingSchedule,
    make_dropout_masks,
    masked_mse,
    mlp_backward,
    mlp_forward,
)
from banditbench.neural import NeuralGreedyAgent
from banditbench.samplers import (
    DIAG_FLOOR,
    gaussian_kl,
    softplus,
    softplus_inverse,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def frozen_ema(value: float) -> FisherEMA:
    ema = FisherEMA(np.zeros(1))
    ema.diag = np.array([value])
    return ema


def test_fisher_ema_update_formula():
    ema = FisherEMA(np.zeros(2), decay=0.9)
    ema.update(np.array([2.0, 1.0]))
    np.testing.assert_allclose(ema.diag, [0.4, 0.1])
    ema.update(np.array([1.0, 0.0]))
    np.testing.assert_allclose(ema.diag, [0.9 * 0.4 + 0.1, 0.9 * 0.1])
    with pytest.raises(ValueError):
        FisherEMA(np.zeros(2), decay=1.0)
    # a length-1 gradient would broadcast over every parameter
    for bad in (np.array([]), np.array([1.0]), np.zeros((2, 1))):
        with pytest.raises(ValueError):
            ema.update(bad)
    np.testing.assert_allclose(ema.diag, [0.9 * 0.4 + 0.1, 0.9 * 0.1])


def test_sgfs_step_noise_free_formula():
    theta = np.array([1.0])
    ema = frozen_ema(1.0)
    sgfs_step(theta, np.array([4.0]), ema, data_count=1, step_size=0.2, noise_scale=0.0)
    h = 2.0 / 1.2
    np.testing.assert_allclose(theta, [1.0 - 0.2 * h * 4.0])


def test_sgfs_step_noise_term_matches_manual_draw():
    theta = np.array([0.5, -0.5])
    grad = np.array([1.0, 2.0])
    ema = FisherEMA(np.zeros(2))
    ema.diag = np.array([0.25, 4.0])
    sgfs_step(theta, grad, ema, data_count=10, step_size=0.04, noise_scale=0.75,
              rng=np.random.default_rng(42))
    nu = np.random.default_rng(42).standard_normal(2)
    h = (2.0 / 10) / (1.04 * np.array([0.25, 4.0]))
    expect = (
        np.array([0.5, -0.5])
        - 0.04 * h * grad
        + 0.75 * np.sqrt(0.04) * h * np.sqrt([0.25, 4.0]) * nu
    )
    np.testing.assert_allclose(theta, expect, rtol=1e-12)


def test_sgfs_skip_noise_consumes_no_randomness():
    rng = np.random.default_rng(5)
    theta = np.array([1.0])
    sgfs_step(theta, np.array([1.0]), frozen_ema(1.0), 1, 0.1, 0.75, rng, skip_noise=True)
    assert rng.standard_normal() == np.random.default_rng(5).standard_normal()


def test_sgfs_step_validation():
    schedule = TrainingSchedule(10, 1, 4)
    with pytest.raises(ValueError, match="^step_size must be positive$"):
        SGFSAgent(2, 2, schedule, 0, step_size=0.0)
    for agent in (SGFSAgent, ConstSGDAgent):
        with pytest.raises(ValueError, match="^noise_scale must be >= 0$"):
            agent(2, 2, schedule, 0, noise_scale=-0.1)
    theta = np.array([1.0])
    with pytest.raises(ValueError):
        sgfs_step(theta, theta, frozen_ema(1.0), 0, 0.014, 0.75)
    with pytest.raises(ValueError):
        sgfs_step(theta, theta, frozen_ema(1.0), 1, 0.014, 0.5)
    # a length-1 gradient or EMA would broadcast over every parameter
    pair = np.array([1.0, 2.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sgfs_step(pair, theta, FisherEMA(pair), 1, 0.014, 0.75, rng)
    with pytest.raises(ValueError):
        sgfs_step(pair, pair, frozen_ema(1.0), 1, 0.014, 0.75, rng)
    np.testing.assert_array_equal(pair, [1.0, 2.0])


def sgfs_chain_variance(eps: float, steps: int = 20000) -> float:
    """Stationary variance of the 1-d chain on loss 2*theta^2 (lambda = 4)."""
    ema = frozen_ema(1.0)
    rng = np.random.default_rng(0)
    theta = np.array([0.0])
    out = np.empty(steps)
    for i in range(steps):
        sgfs_step(theta, 4.0 * theta, ema, 1, eps, 1.0, rng)
        out[i] = theta[0]
    return float(np.var(out[steps // 5:]))


def test_sgfs_stationary_variance_tracks_step_size():
    # H = 2/(1+eps); Var = H / (lambda (2 - eps H lambda)) with lambda = 4:
    # eps 0.2 -> 0.625, eps 0.1 -> 5/14.
    v_big = sgfs_chain_variance(0.2)
    v_small = sgfs_chain_variance(0.1)
    assert v_big == pytest.approx(0.625, rel=0.1)
    assert v_small == pytest.approx(5.0 / 14.0, rel=0.1)
    assert v_small < v_big


def test_const_sgd_step_formula():
    theta = np.array([2.0])
    ema = frozen_ema(0.5)
    const_sgd_step(theta, np.array([3.0]), ema, batch_size=2, data_count=8)
    # eps = 2 * (2/8) / 0.5 = 1.0
    np.testing.assert_allclose(theta, [-1.0])
    with pytest.raises(ValueError):
        const_sgd_step(theta, theta, ema, 0, 8)
    with pytest.raises(ValueError):
        const_sgd_step(theta, theta, ema, 2, 8, noise_scale=0.5)
    # a length-1 gradient or EMA would broadcast over every parameter
    pair = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        const_sgd_step(pair, theta, FisherEMA(pair), 2, 8)
    with pytest.raises(ValueError):
        const_sgd_step(pair, pair, ema, 2, 8)
    np.testing.assert_array_equal(pair, [1.0, 2.0])


def test_const_sgd_contracts_convex_quadratic():
    # loss = theta^2 (lambda = 2); diag frozen at 4*lambda with S = N makes
    # eps*lambda = 1/2, an exact halving per step.
    lam = 2.0
    theta = np.array([1.0])
    ema = frozen_ema(4.0 * lam)
    const_sgd_step(theta, lam * theta.copy(), ema, batch_size=8, data_count=8)
    assert theta[0] == 0.5
    for _ in range(40):
        const_sgd_step(theta, lam * theta.copy(), ema, batch_size=8, data_count=8)
    assert abs(theta[0]) < 1e-6


def make_observations(n: int, dim: int, k: int, seed: int) -> list[Observation]:
    rng = np.random.default_rng(seed)
    return [
        Observation(
            context=rng.standard_normal(dim),
            action=int(rng.integers(k)),
            reward=float(rng.standard_normal()),
        )
        for _ in range(n)
    ]


def run_periods(agent, observations, periods: int, train_every: int):
    for obs in observations:
        agent.observe(obs)
    for p in range(periods):
        agent.maybe_train(p * train_every)


def test_sgfs_noise_disabled_is_bitwise_deterministic():
    obs = make_observations(30, 3, 2, seed=1)
    agents = [
        SGFSAgent(3, 2, TrainingSchedule(batch_size=16, batches_per_period=5), seed=7,
                  noise_scale=0.0, burn_in=0, hidden=(8,))
        for _ in range(2)
    ]
    for agent in agents:
        run_periods(agent, obs, periods=3, train_every=20)
    for pa, pb in zip(agents[0].net.parameters(), agents[1].net.parameters()):
        np.testing.assert_array_equal(pa, pb)


def test_sgfs_burn_in_matches_noise_free_then_diverges():
    obs = make_observations(30, 3, 2, seed=2)
    schedule = TrainingSchedule(batch_size=16, batches_per_period=5)
    noisy = SGFSAgent(3, 2, schedule, seed=9, noise_scale=0.75, burn_in=5, hidden=(8,))
    silent = SGFSAgent(3, 2, schedule, seed=9, noise_scale=0.0, burn_in=0, hidden=(8,))
    for agent in (noisy, silent):
        for o in obs:
            agent.observe(o)
    noisy.maybe_train(0)
    silent.maybe_train(0)
    for pa, pb in zip(noisy.net.parameters(), silent.net.parameters()):
        np.testing.assert_array_equal(pa, pb)
    noisy.maybe_train(20)
    silent.maybe_train(20)
    assert any(
        not np.array_equal(pa, pb)
        for pa, pb in zip(noisy.net.parameters(), silent.net.parameters())
    )


class CountingRNG:
    """A generator that records each mini-batch draw (``integers``)."""

    def __init__(self, rng: np.random.Generator, log: list):
        self.rng, self.log = rng, log

    def integers(self, *args, **kwargs):
        self.log.append(args)
        return self.rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_chain_agents_train_on_schedule():
    agent = ConstSGDAgent(2, 2, TrainingSchedule(train_every=10, batches_per_period=3,
                                                 batch_size=4), seed=0, hidden=(4,), burn_in=0)
    agent.observe(Observation(context=np.ones(2), action=0, reward=1.0))
    draws = []
    agent.train_rng = CountingRNG(agent.train_rng, draws)
    agent.maybe_train(-10)
    assert (agent.period, len(draws)) == (0, 0)
    agent.maybe_train(0)
    assert (agent.period, len(draws)) == (1, 3)
    agent.maybe_train(5)
    assert (agent.period, len(draws)) == (1, 3)
    agent.maybe_train(10)
    assert (agent.period, len(draws)) == (2, 6)
    assert "opt" not in vars(agent)  # a chain steps with its Fisher EMA, never RMSProp
    with pytest.raises(ValueError):
        SGFSAgent(2, 2, TrainingSchedule(train_every=0), seed=0)
    with pytest.raises(ValueError):
        SGFSAgent(2, 2, TrainingSchedule(), seed=0, burn_in=-1)


def test_softplus_pair():
    xs = np.array([-3.0, 0.0, 2.5])
    np.testing.assert_allclose(softplus(xs), np.log1p(np.exp(xs)))
    for y in (0.05, 1.0, 7.0):
        assert softplus(np.array([softplus_inverse(y)]))[0] == pytest.approx(y)
    with pytest.raises(ValueError):
        softplus_inverse(0.0)


def test_gaussian_kl_zero_at_prior_and_half_case():
    zero = gaussian_kl(np.zeros(5), np.full(5, 0.7), 0.7)
    assert zero == pytest.approx(0.0, abs=1e-12)
    # one weight, mu 1, sigma_q = sigma_p = 1: KL = mu^2 / 2 = 0.5
    assert gaussian_kl(np.array([1.0]), np.array([1.0]), 1.0) == pytest.approx(0.5)


def test_variational_net_kl_and_sampling():
    vnet = VariationalNet([2, 3], prior_sigma=1.0, rng=np.random.default_rng(0))
    for s in vnet.stddevs():
        np.testing.assert_allclose(s, 0.05)
    half = vnet.flat.size // 2
    assert vnet.mu.flat.shape == vnet.rho.shape == (half,)
    assert np.shares_memory(vnet.mu.flat, vnet.flat[:half])
    assert np.shares_memory(vnet.rho, vnet.flat[half:])
    for m in vnet.mu.parameters():
        m[:] = 0.0
    r0 = softplus_inverse(1.0)
    vnet.rho[:] = r0
    np.testing.assert_array_equal(vnet.flat[half:], r0)
    assert vnet.kl_to_prior() == pytest.approx(0.0, abs=1e-12)
    noise = np.full_like(vnet.rho, 2.0)
    sampled, used = vnet.sample(noise=noise)
    assert used is noise
    assert not np.shares_memory(sampled.flat, vnet.flat)
    for p, m in zip(sampled.parameters(), vnet.mu.parameters()):
        np.testing.assert_allclose(p, m + 1.0 * 2.0)
    with pytest.raises(ValueError):
        vnet.sample()
    # a length-1 noise vector would broadcast over every parameter
    for bad in (np.ones(1), np.ones(half + 1), np.ones((half, 1))):
        with pytest.raises(ValueError):
            vnet.sample(noise=bad)
    for dup in (vnet.astype(np.float32), copy.deepcopy(vnet), pickle.loads(pickle.dumps(vnet))):
        assert not np.shares_memory(dup.flat, vnet.flat)
        assert np.shares_memory(dup.mu.flat, dup.flat) and np.shares_memory(dup.rho, dup.flat)
        assert (dup.sizes, dup.prior_sigma) == (vnet.sizes, vnet.prior_sigma)
        np.testing.assert_array_equal(dup.flat, vnet.flat.astype(dup.flat.dtype))
    with pytest.raises(ValueError):
        VariationalNet([2, 3], prior_sigma=0.0, rng=np.random.default_rng(0))


def test_bbb_works_out_softplus_once_per_batch_on_views_built_once(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x.size)
        return softplus(x)

    agent = BayesByBackpropAgent(2, 2, TrainingSchedule(10, 3, 8), 5, hidden=(4,))
    for o in make_observations(20, 2, 2, seed=6):
        agent.observe(o)
    vnet = agent.net
    assert vnet.mu is vnet.mu and vnet.rho is vnet.rho
    mu_before, rho_before = vnet.mu.flat.copy(), vnet.rho.copy()
    monkeypatch.setattr(samplers, "softplus", counted)
    agent.train_period(agent.buffer.contexts, agent.buffer.actions, agent.buffer.rewards)
    assert calls == [vnet.rho.size] * 3
    # the optimizer steps flat, and the stored views show the step
    assert not np.array_equal(vnet.mu.flat, mu_before)
    assert not np.array_equal(vnet.rho, rho_before)
    np.testing.assert_array_equal(vnet.flat, np.concatenate([vnet.mu.flat, vnet.rho]))


def test_bbb_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    vnet = VariationalNet([2, 4, 3], prior_sigma=1.0, rng=rng)
    X = rng.standard_normal((6, 2))
    actions = rng.integers(0, 3, size=6)
    rewards = rng.standard_normal(6)
    noise = rng.standard_normal(vnet.rho.size)

    def loss_at():
        loss, _, _ = bbb_loss_and_grads(
            vnet, X, actions, rewards, total_count=50, noise_sigma=0.5, noise=noise
        )
        return loss

    _, _, analytic = bbb_loss_and_grads(
        vnet, X, actions, rewards, total_count=50, noise_sigma=0.5, noise=noise
    )
    h = 1e-6
    worst = 0.0
    assert analytic.shape == vnet.flat.shape
    for p, g in zip(vnet.split(vnet.flat), vnet.split(analytic)):
        fp, fg = p.ravel(), np.zeros(p.size)
        for i in range(fp.size):
            keep = fp[i]
            fp[i] = keep + h
            hi = loss_at()
            fp[i] = keep - h
            lo = loss_at()
            fp[i] = keep
            fg[i] = (hi - lo) / (2.0 * h)
        denom = max(1.0, np.linalg.norm(g), np.linalg.norm(fg))
        worst = max(worst, np.linalg.norm(g.ravel() - fg) / denom)
    assert worst < 1e-6


def test_bbb_loss_terms_and_validation():
    rng = np.random.default_rng(4)
    vnet = VariationalNet([2, 2], prior_sigma=1.0, rng=rng)
    X = np.array([[1.0, 0.0]])
    noise = np.zeros_like(vnet.rho)
    loss, kl, _ = bbb_loss_and_grads(
        vnet, X, [0], [2.0], total_count=10, noise_sigma=1.0, noise=noise
    )
    pred = float((X @ vnet.mu.weights[0] + vnet.mu.biases[0])[0, 0])
    assert kl == pytest.approx(vnet.kl_to_prior())
    assert loss == pytest.approx(kl / 10 + (pred - 2.0) ** 2 / 2.0)
    with pytest.raises(ValueError):
        bbb_loss_and_grads(vnet, X, [0], [2.0], total_count=0, noise_sigma=1.0, noise=noise)
    with pytest.raises(ValueError):
        bbb_loss_and_grads(vnet, X, [0], [2.0], total_count=10, noise_sigma=0.0, noise=noise)
    for noise_sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match="noise_sigma must be positive"):
            BayesByBackpropAgent(2, 2, TrainingSchedule(), seed=0, noise_sigma=noise_sigma,
                                 hidden=(4,))
    with pytest.raises(ValueError):
        bbb_loss_and_grads(vnet, X, [0], [2.0], total_count=10, noise_sigma=1.0,
                           noise=np.zeros(1))


def test_bbb_ramp_schedule():
    ramp = TrainingSchedule(batches_per_period=100, ramp_initial=10000, ramp_periods=100)
    expected = {0: 10000, 50: 5050, 99: 199, 100: 100, 500: 100}
    for period, count in expected.items():
        assert ramp.batches(period) == count
    assert TrainingSchedule(batches_per_period=7).batches(0) == 7
    rising = TrainingSchedule(batches_per_period=100, ramp_initial=10, ramp_periods=100)
    for period, count in {0: 10, 50: 55, 99: 99, 100: 100, 500: 100}.items():
        assert rising.batches(period) == count
    assert TrainingSchedule(batches_per_period=7, ramp_initial=30, ramp_periods=0).batches(0) == 7
    for bad, message in [({"ramp_periods": -3}, "ramp_periods must be >= 0, got -3"),
                         ({"ramp_initial": 0}, "ramp_initial must be >= 1, got 0"),
                         ({"lr_init": 0.0}, "lr_init must be positive, got 0.0")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainingSchedule(**bad)


@pytest.mark.parametrize("preset", ["BBB", "SGFS"])
def test_the_schedules_plan_is_what_runs(preset):
    # pinned-chains.cfg's BBB ramps from 40 batches to 5 over 5 periods and its
    # SGFS runs 7 a period (ConstSGD shares SGFS's loop and burn-in)
    config = load_config(str(CONFIGS / "pinned-chains.cfg"))
    (spec,) = [spec for spec in config.agents if spec.preset == preset]
    env = setup_run(config)[0](0)
    agent = get_preset(preset).make(env.dim, env.num_actions, 120, 0, spec.overrides)
    run_trial(env, agent, seed=0, horizon=120)
    assert agent.period == 6
    assert agent.batches_run == sum(agent.schedule.batches(p) for p in range(agent.period))
    if preset == "BBB":
        assert agent.batches_run == 40 + 33 + 26 + 19 + 12 + 5


def test_bbb_default_plan_on_the_long_wheel():
    # ROADMAP item 6's figure, from the schedule alone: no net trains
    horizon, k, warmup = 2000, 5, 3
    schedule = get_preset("BBB").make(3, k, horizon, 0).schedule
    periods = sum(schedule.due(step, 1) for step in range(horizon - k * warmup))
    assert periods == 100
    assert sum(schedule.batches(p) for p in range(periods)) == 509_950


def test_bbb_agent_trains_and_chooses():
    agent = BayesByBackpropAgent(
        2, 2, TrainingSchedule(train_every=5, batches_per_period=2, batch_size=8), seed=1,
        hidden=(4,),
    )
    rng = np.random.default_rng(0)
    for obs in make_observations(12, 2, 2, seed=5):
        agent.observe(obs)
    before = [p.copy() for p in agent.net.split(agent.net.flat)]
    agent.maybe_train(0)
    assert agent.period == 1
    assert any(
        not np.array_equal(b, p) for b, p in zip(before, agent.net.split(agent.net.flat))
    )
    a = agent.choose(np.array([0.5, -0.5]), rng)
    assert a in (0, 1)


# The references below train a copy of the agent's initial net through the
# per-array ``parameters()`` views, with the update rules written out one array
# at a time and the noise drawn one array at a time, as the optimizers and
# chains did before a net's parameters became one vector.


class ReferenceRMSProp:
    def __init__(self, params, rho=0.9, eps=1e-8):
        self.rho, self.eps = rho, eps
        self.acc = [np.zeros_like(p) for p in params]

    def step(self, params, grads, lr):
        for p, g, a in zip(params, grads, self.acc, strict=True):
            a *= self.rho
            a += (1.0 - self.rho) * g * g
            p -= lr * g / np.sqrt(a + self.eps)


def reference_sgfs_step(step_size, noise_scale):
    def step(params, grads, diags, n, rng, skip):
        eps = step_size
        for p, g, d in zip(params, grads, diags, strict=True):
            diag = np.maximum(d, DIAG_FLOOR)
            h = (2.0 / n) / ((1.0 + eps) * diag)
            p -= eps * h * g
            if not skip:
                nu = rng.standard_normal(p.shape, dtype=p.dtype)
                p += noise_scale * math.sqrt(eps) * h * np.sqrt(diag) * nu
    return step


def reference_const_sgd_step(noise_scale, batch_size):
    def step(params, grads, diags, n, rng, skip):
        ratio = 2.0 * batch_size / n
        for p, g, d in zip(params, grads, diags, strict=True):
            eps = ratio / np.maximum(d, DIAG_FLOOR)
            p -= eps * g
            if not skip:
                p += noise_scale * np.sqrt(eps) * rng.standard_normal(p.shape, dtype=p.dtype)
    return step


class ReferenceChain:
    """The SGFS/ConstSGD training loop written out on its own: a lifetime
    batch counter for burn-in, and one uniform batch, Fisher EMA update and
    chain step per iteration."""

    def __init__(self, net, seed, ema_decay, batch_size, batches, burn_in, step):
        (net_ss,) = np.random.SeedSequence(seed).spawn(1)
        _, train_ss = net_ss.spawn(2)
        self.net = net.copy()
        self.params = self.net.parameters()
        self.decay = ema_decay
        self.diag = [np.zeros_like(p) for p in self.params]
        self.rng = np.random.default_rng(train_ss)
        self.batch_size, self.batches, self.burn_in, self.step = batch_size, batches, burn_in, step
        self.done = 0

    def train(self, X, A, R):
        n = len(R)
        for _ in range(self.batches):
            idx = self.rng.integers(0, n, size=self.batch_size)
            out, cache = mlp_forward(self.net, X[idx])
            _, dout = masked_mse(out, A[idx], R[idx])
            grads = self.net.split(mlp_backward(self.net, cache, dout))
            for d, g in zip(self.diag, grads, strict=True):
                d *= self.decay
                d += (1.0 - self.decay) * g * g
            self.step(self.params, grads, self.diag, n, self.rng, self.done < self.burn_in)
            self.done += 1
        return self.params


class ReferenceDropout:
    """The reward-net training loop with dropout written out on its own: one
    uniform batch, fresh dropout masks and one RMSProp step per iteration, at
    the schedule's learning rate."""

    def __init__(self, net, seed, schedule, p_keep):
        (net_ss,) = np.random.SeedSequence(seed).spawn(1)
        _, train_ss = net_ss.spawn(2)
        self.net = net.copy()
        self.params = self.net.parameters()
        self.opt = ReferenceRMSProp(self.params)
        self.rng = np.random.default_rng(train_ss)
        self.schedule, self.p_keep = schedule, p_keep
        self.period = 0

    def train(self, X, A, R):
        n = len(R)
        for j in range(self.schedule.batches_per_period):
            idx = self.rng.integers(0, n, size=self.schedule.batch_size)
            masks = make_dropout_masks(self.net, len(idx), self.p_keep, self.rng)
            out, cache = mlp_forward(self.net, X[idx], masks, self.p_keep)
            _, dout = masked_mse(out, A[idx], R[idx])
            grads = self.net.split(mlp_backward(self.net, cache, dout))
            self.opt.step(self.params, grads, self.schedule.learning_rate(self.period, j))
        self.period += 1
        return self.params


class ReferenceBBB:
    """The Bayes-by-backprop training loop written out on its own, with the
    linear ramp of batches per period, a fixed RMSProp rate, and the
    variational gradient formulas applied per array."""

    def __init__(self, vnet, seed, noise_sigma, lr, batch_size, batches, ramp_initial,
                 ramp_periods):
        (net_ss,) = np.random.SeedSequence(seed).spawn(1)
        _, train_ss = net_ss.spawn(2)
        self.vnet = vnet.astype(vnet.flat.dtype)
        self.mus = self.vnet.mu.parameters()
        self.rhos = self.vnet.mu.split(self.vnet.rho)
        self.opt = ReferenceRMSProp(self.mus + self.rhos)
        self.rng = np.random.default_rng(train_ss)
        self.noise_sigma, self.lr, self.batch_size = noise_sigma, lr, batch_size
        self.batches, self.ramp_initial, self.ramp_periods = batches, ramp_initial, ramp_periods
        self.period = 0

    def period_batches(self):
        if self.period >= self.ramp_periods:
            return self.batches
        ramped = round(self.ramp_initial
                       - self.period * (self.ramp_initial - self.batches) / self.ramp_periods)
        return max(self.batches, int(ramped))

    def grads(self, X, A, R, n):
        noise = [self.rng.standard_normal(m.shape, dtype=m.dtype) for m in self.mus]
        sigmas = [softplus(r) for r in self.rhos]
        sampled = self.vnet.mu.copy()
        for p, m, s, nu in zip(sampled.parameters(), self.mus, sigmas, noise, strict=True):
            p[...] = m + s * nu
        out, cache = mlp_forward(sampled, X)
        _, dmse = masked_mse(out, A, R)
        scale = 1.0 / (2.0 * self.noise_sigma * self.noise_sigma)
        dw = sampled.split(mlp_backward(sampled, cache, dmse * scale))
        pvar = self.vnet.prior_sigma * self.vnet.prior_sigma
        dmu, drho = [], []
        for m, r, s, g, nu in zip(self.mus, self.rhos, sigmas, dw, noise, strict=True):
            gate = 1.0 / (1.0 + np.exp(-r))
            dmu.append(g + (m / pvar) / n)
            dkl_dsigma = (-1.0 / s + s / pvar) / n
            drho.append((g * nu + dkl_dsigma) * gate)
        return dmu + drho

    def train(self, X, A, R):
        n = len(R)
        params = self.mus + self.rhos
        for _ in range(self.period_batches()):
            idx = self.rng.integers(0, n, size=self.batch_size)
            self.opt.step(params, self.grads(X[idx], A[idx], R[idx], n), self.lr)
        self.period += 1
        return params


@pytest.mark.parametrize("kind", ["SGFS", "ConstSGD", "BBB", "Dropout"])
def test_training_matches_the_reference_loops_bitwise(kind):
    # SGFS leaves burn-in inside its second period (4 is not a multiple of 3);
    # ConstSGD injects noise after burn-in; BBB's ramp runs 6, 5, 3 batches and
    # then settles at 2; Dropout draws masks for two hidden layers and decays
    # its rate inside each period.  The references start from the agent's
    # float32 nets.
    dim, k, seed, hidden, bs = 3, 2, 11, (8,), 16
    if kind == "SGFS":
        agent = SGFSAgent(dim, k, TrainingSchedule(10, 3, bs), seed, noise_scale=0.75,
                          burn_in=4, hidden=hidden)
        ref = ReferenceChain(agent.net, seed, 0.9, bs, 3, 4,
                             reference_sgfs_step(0.014, 0.75))
    elif kind == "ConstSGD":
        agent = ConstSGDAgent(dim, k, TrainingSchedule(10, 3, bs), seed, noise_scale=0.3,
                              burn_in=2, hidden=hidden)
        ref = ReferenceChain(agent.net, seed, 0.9, bs, 3, 2,
                             reference_const_sgd_step(0.3, bs))
    elif kind == "BBB":
        schedule = TrainingSchedule(10, 2, bs, lr_init=0.02, ramp_initial=6, ramp_periods=3)
        agent = BayesByBackpropAgent(dim, k, schedule, seed, hidden=hidden)
        ref = ReferenceBBB(agent.net, seed, 0.1, 0.02, bs, 2, 6, 3)
    else:
        schedule = TrainingSchedule(10, 3, bs, lr_init=0.01, lr_decay=0.55,
                                    reset_policy="reset-each-period")
        agent = NeuralGreedyAgent(dim, k, schedule, seed, p_keep=0.7, hidden=(8, 6))
        ref = ReferenceDropout(agent.net, seed, schedule, 0.7)
    obs = make_observations(60, dim, k, seed=12)
    for period in range(6):
        for o in obs[10 * period: 10 * (period + 1)]:
            agent.observe(o)
        agent.maybe_train(10 * period)
        buf = agent.buffer
        want = ref.train(buf.contexts, buf.actions, buf.rewards)
        got = agent.net.split(agent.net.flat)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype == np.float32
            np.testing.assert_array_equal(g, w)
    assert agent.period == 6
