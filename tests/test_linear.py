"""Conjugate linear posteriors: exact math, projections, and the agents."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditbench import (
    Agent,
    FixedNoiseLinearPosterior,
    LinearConfig,
    LinearGreedyAgent,
    LinearThompsonAgent,
    NIGLinearPosterior,
    Observation,
    SampledLinearBandit,
    core,
    linear,
    run_trial,
)
from banditbench.presets import get_preset


def direct_stats(X, Y, ridge, a0, b0):
    """Batch evaluation of the closed-form posterior, no incremental tricks."""
    d = X.shape[1]
    P = X.T @ X + ridge * np.eye(d)
    mu = np.linalg.solve(P, X.T @ Y)
    a = a0 + len(Y) / 2.0
    b = b0 + 0.5 * (Y @ Y - mu @ P @ mu)
    return P, mu, a, b


def diag_gaussian_kl(cov_p, diag_q):
    """KL(N(0, cov_p) || N(0, diag(diag_q)))."""
    d = cov_p.shape[0]
    inv_q = 1.0 / diag_q
    trace = float(np.sum(inv_q * np.diag(cov_p)))
    logdet = float(np.sum(np.log(diag_q)) - np.linalg.slogdet(cov_p)[1])
    return 0.5 * (trace - d + logdet)


def test_prior_state():
    post = NIGLinearPosterior(dim=3, ridge=0.25, a0=6.0, b0=6.0)
    assert post.a == 6.0 and post.b == 6.0 and post.count == 0
    np.testing.assert_array_equal(post.mean, np.zeros(3))
    np.testing.assert_array_equal(post.precision, 0.25 * np.eye(3))


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        NIGLinearPosterior(dim=2, a0=1.0)
    with pytest.raises(ValueError):
        NIGLinearPosterior(dim=2, b0=0.0)
    with pytest.raises(ValueError):
        NIGLinearPosterior(dim=2, ridge=0.0)
    with pytest.raises(ValueError):
        FixedNoiseLinearPosterior(dim=2, sigma_sq=-0.1)
    with pytest.raises(ValueError):
        NIGLinearPosterior(dim=0)
    with pytest.raises(ValueError):
        NIGLinearPosterior(dim=2, arms=(0,))


def test_online_updates_match_direct_formulas():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        n = int(rng.integers(1, 60))
        X = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        Y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        post = NIGLinearPosterior(d, ridge=0.5, a0=2.0, b0=1.5)
        for x, y in zip(X, Y):
            post.update(x, float(y))
        P, mu, a, b = direct_stats(X, Y, 0.5, 2.0, 1.5)
        np.testing.assert_allclose(post.precision, P, rtol=1e-10)
        np.testing.assert_allclose(post.mean, mu, rtol=1e-9, atol=1e-12)
        assert post.a == pytest.approx(a)
        assert post.b == pytest.approx(b, rel=1e-9)


def test_online_matches_batch_update():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 4))
    Y = rng.standard_normal(40)
    online = NIGLinearPosterior(4)
    for x, y in zip(X, Y):
        online.update(x, float(y))
    batch = NIGLinearPosterior(4)
    batch.batch_update(X, Y)
    np.testing.assert_allclose(online.precision, batch.precision, rtol=1e-12)
    np.testing.assert_allclose(online.mean, batch.mean, rtol=1e-10)
    assert online.b == pytest.approx(batch.b, rel=1e-10)
    assert online.count == batch.count == 40


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    arms=st.integers(1, 4),
    online=st.integers(0, 40),
    batched=st.integers(0, 200),
    scale=st.floats(1e-2, 1e3),
    read_each=st.booleans(),
)
def test_stacked_arm_equals_a_single_posterior(seed, dim, arms, online, batched, scale,
                                               read_each):
    rng = np.random.default_rng(seed)
    n = online + batched
    X = rng.standard_normal((n, dim)) + 2.0
    Y = scale * rng.standard_normal(n)
    actions = rng.integers(0, arms, size=n)
    stacked = NIGLinearPosterior(dim, arms=(arms,))
    singles = [NIGLinearPosterior(dim) for _ in range(arms)]
    for x, y, a in zip(X[:online], Y[:online], actions[:online]):
        stacked.update(x, float(y), a)
        singles[a].update(x, float(y))
        if read_each:  # a read refreshes every arm; later rows take the root update
            for b, single in enumerate(singles):
                np.testing.assert_array_equal(stacked.mean[b], single.mean)
                np.testing.assert_array_equal(stacked.covariance_diagonal("diag")[b],
                                              single.covariance_diagonal("diag"))
    for a, single in enumerate(singles):
        rows = online + np.flatnonzero(actions[online:] == a)
        stacked.batch_update(X[rows], Y[rows], a)
        single.batch_update(X[rows], Y[rows])
    # one stacked draw consumes the stream as the arms' draws one after another
    betas, sigma_sq = stacked.sample(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for a, single in enumerate(singles):
        for name in ("precision", "bvec", "yy", "count", "mean"):
            np.testing.assert_array_equal(getattr(stacked, name)[a], getattr(single, name))
        assert stacked.b[a] == pytest.approx(single.b, rel=1e-10)
        beta, s2 = single.sample(rng)
        assert sigma_sq[a] == pytest.approx(s2, rel=1e-10)
        np.testing.assert_allclose(betas[a], beta, rtol=1e-9, atol=1e-9 * np.abs(beta).max())


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 10),
    n=st.integers(1, 100_000),
    scale=st.floats(1e-2, 1e3),
    noise=st.sampled_from([0.0, 1e-3, 1.0]),
    shift=st.floats(0.0, 3.0),
)
def test_b_matches_the_stable_residual_form(seed, dim, n, scale, noise, shift):
    # yy - mu.bvec cancels catastrophically as n and the reward scale grow;
    # b0 + (|Y - X mu|^2 + ridge |mu|^2) / 2 is the same quantity without it.
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim)) + shift
    Y = scale * (X @ rng.standard_normal(dim) + noise * rng.standard_normal(n))
    post = NIGLinearPosterior(dim, ridge=0.25, a0=6.0, b0=6.0)
    head = min(n, 50)
    for x, y in zip(X[:head], Y[:head]):
        post.update(x, float(y))
    post.batch_update(X[head:], Y[head:])
    mu = post.mean
    stable = 6.0 + 0.5 * (np.sum((Y - X @ mu) ** 2) + 0.25 * mu @ mu)
    assert post.b == pytest.approx(stable, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    n=st.integers(1, 20_000),
    scale=st.floats(1e-2, 1e3),
    shift=st.floats(0.0, 10.0),
)
@example(seed=3, dim=5, n=100_000, scale=1e3, shift=10.0)
def test_root_updates_match_a_refactor(seed, dim, n, scale, shift):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim)) + shift
    Y = scale * (X @ rng.standard_normal(dim) + rng.standard_normal(n))
    online = NIGLinearPosterior(dim)
    for x, y in zip(X, Y):
        online.update(x, float(y))
        online.mean  # the arm is fresh from here on: each row updates its root
    batch = NIGLinearPosterior(dim)
    batch.batch_update(X, Y)
    for got, want in (
        (online.mean, batch.mean),
        (online.covariance(), batch.covariance()),
        (online.covariance_diagonal("diag"), batch.covariance_diagonal("diag")),
        (online.b, batch.b),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


def test_a_trial_refactors_each_arm_once(monkeypatch):
    calls = []
    cholesky = linear.cholesky

    def counted(*args, **kwargs):
        calls.append(args)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(linear, "cholesky", counted)
    env = SampledLinearBandit(LinearConfig(dim=5, num_actions=4, horizon=300), seed=0)
    run_trial(env, get_preset("LinPost").make(5, 4, 300, 0), seed=0)
    # all four arms are stale at the first decision, and never again
    assert len(calls) == 4


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("x, y", [(np.full(3, 1e200), 1.0), (np.ones(3), np.nan)],
                         ids=["overflowing-context", "nan-reward"])
def test_a_non_finite_root_update_raises_before_writing(x, y):
    post = FixedNoiseLinearPosterior(3, arms=(2,))
    rng = np.random.default_rng(0)
    post.batch_update(rng.standard_normal((5, 3)), rng.standard_normal(5), 0)
    post.mean  # both arms fresh
    before = [post.precision.copy(), post.bvec.copy(), post.yy.copy(), post.count.copy(),
              post.mean.copy(), post._cov_root.copy()]
    with pytest.raises(ValueError, match="arm 0 is not finite"):
        post.update(x, y, 0)
    after = [post.precision, post.bvec, post.yy, post.count, post.mean, post._cov_root]
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)
    # a stale arm takes the row and raises at its next read
    post.batch_update(np.zeros((0, 3)), np.zeros(0), 1)
    post.update(x, y, 1)
    with pytest.raises(ValueError, match="infs or NaNs"):
        post.mean


def test_b_stays_positive_on_exactly_linear_data():
    # y = x . w with huge magnitudes: the residual term cancels to the ridge
    # penalty, which float arithmetic can push slightly negative.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(3) * 1e6
        post = NIGLinearPosterior(3, ridge=0.25, a0=6.0, b0=6.0)
        for _ in range(50):
            x = rng.standard_normal(3)
            post.update(x, float(x @ w))
        assert np.isfinite(post.b)
        assert post.b >= 6.0


class EagerRidge:
    """The ridge statistics updated eagerly, written out on its own: every
    row is added to the dense precision at once, a read refactors the stale
    arms, and the marginal variances of every changed arm are refreshed in
    one masked gather.  The Normal-Inverse-Gamma ``b`` uses prior b0."""

    def __init__(self, dim, ridge, arms, b0):
        self.precision = np.broadcast_to(np.eye(dim) * ridge, arms + (dim, dim)).copy()
        self.bvec, self.yy = np.zeros(arms + (dim,)), np.zeros(arms)
        self.count = np.zeros(arms, dtype=np.int64)
        self.stale, self.var_stale = np.ones(arms, dtype=bool), np.ones(arms, dtype=bool)
        self._mean, self.root = np.empty(arms + (dim,)), np.empty(arms + (dim, dim))
        self.var, self.b0 = np.empty(arms + (dim,)), b0

    def update(self, x, y, arm):
        fresh = np.ndim(self.stale[arm]) == 0 and not self.stale[arm]
        if fresh:
            root = self.root[arm]
            v = x @ root
            s = v @ v
            innovation = y - x @ self._mean[arm]
        self.precision[arm] += x[:, None] * x
        self.bvec[arm] += x * y
        self.yy[arm] += y * y
        self.count[arm] += 1
        if fresh:
            w = root @ v
            r = math.sqrt(1.0 + s)
            root -= (w / (r * (r + 1.0)))[:, None] * v
            self._mean[arm] += w * (innovation / (1.0 + s))
            self.var_stale[arm] = True
        else:
            self.stale[arm] = True

    def batch_update(self, X, Y, arm):
        self.precision[arm] += X.T @ X
        self.bvec[arm] += X.T @ Y
        self.yy[arm] += float(Y @ Y)
        self.count[arm] += X.shape[0]
        self.stale[arm] = True

    @property
    def mean(self):
        for arm in map(tuple, np.argwhere(self.stale)):
            R = scipy.linalg.cholesky(self.precision[arm], lower=False)
            self._mean[arm] = scipy.linalg.cho_solve((R, False), self.bvec[arm])
            self.root[arm] = scipy.linalg.lapack.dtrtri(R, lower=0)[0]
            self.stale[arm] = False
            self.var_stale[arm] = True
        return self._mean

    def diagonal(self, approximation):
        if approximation == "precision_diag":
            return 1.0 / np.diagonal(self.precision, axis1=-2, axis2=-1)
        self.mean
        changed = self.var_stale
        if changed.any():
            self.var[changed] = np.sum(self.root[changed] ** 2, axis=-1)
            changed[...] = False
        return self.var

    @property
    def b(self):
        quad = self.yy - np.einsum("...i,...i->...", self.mean, self.bvec)
        return self.b0 + 0.5 * np.maximum(quad, 0.0)


def _assert_same_posterior(post, ref):
    """Every statistic and read of ``post`` equals ``ref``'s bit for bit."""
    for approximation in ("diag", "precision_diag"):
        np.testing.assert_array_equal(post.covariance_diagonal(approximation),
                                      ref.diagonal(approximation), strict=True)
    for got, want in ((post.precision, ref.precision), (post.mean, ref.mean),
                      (post._cov_root, ref.root), (post.b, ref.b), (post.bvec, ref.bvec),
                      (post.yy, ref.yy), (post.count, ref.count)):
        np.testing.assert_array_equal(got, want, strict=True)


POSTERIOR_OPS = ("row", "row", "row", "row", "all-arms row", "batch", "mean", "diag",
                 "precision_diag", "precision")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    arms=st.integers(1, 4),
    ops=st.lists(st.sampled_from(POSTERIOR_OPS), max_size=60),
)
def test_recorded_rows_leave_every_read_as_eager_updates_do(seed, dim, arms, ops):
    # A fresh arm's single rows are recorded and reach the dense precision
    # only when something reads it; no read may see a bit of difference.
    rng = np.random.default_rng(seed)
    post = NIGLinearPosterior(dim, arms=(arms,))
    ref = EagerRidge(dim, 0.25, (arms,), post.b0)
    for op in ops:
        arm = int(rng.integers(arms))
        if op in ("row", "all-arms row"):
            x, y = rng.standard_normal(dim) + 2.0, float(rng.standard_normal())
            arm = slice(None) if op == "all-arms row" else arm
            post.update(x, y, arm)
            ref.update(x, y, arm)
        elif op == "batch":
            X = rng.standard_normal((int(rng.integers(4)), dim)) + 2.0
            Y = rng.standard_normal(len(X))
            post.batch_update(X, Y, arm)
            ref.batch_update(X, Y, arm)
        elif op == "mean":
            np.testing.assert_array_equal(post.mean, ref.mean, strict=True)
        elif op == "precision":
            np.testing.assert_array_equal(post.precision, ref.precision, strict=True)
        else:
            np.testing.assert_array_equal(post.covariance_diagonal(op), ref.diagonal(op),
                                          strict=True)
    _assert_same_posterior(post, ref)


def test_recorded_rows_stay_within_k_times_d_over_a_long_run():
    # A full block of recorded rows is folded in, so a long run never holds
    # more than k*d of them, and the precision keeps the eager bits.
    rng = np.random.default_rng(3)
    post = NIGLinearPosterior(5, arms=(8,))
    ref = EagerRidge(5, 0.25, (8,), post.b0)
    np.testing.assert_array_equal(post.mean, ref.mean)
    for _ in range(500):
        x, y, arm = rng.standard_normal(5) + 2.0, float(rng.standard_normal()), int(rng.integers(8))
        post.update(x, y, arm)
        ref.update(x, y, arm)
        assert len(post._rows) <= 40 and 1 <= len(post._row_arms) <= 40
    np.testing.assert_array_equal(post._precision_diag,
                                  np.diagonal(ref.precision, axis1=-2, axis2=-1), strict=True)
    _assert_same_posterior(post, ref)


def _read_root_posterior(family):
    """Four arms at d=5 on shifted (so correlated) contexts: every arm is
    refactored once, then takes 60 single-row root updates, then arm 2 takes
    a batch update and is refactored again at its next read.  The arms share
    one reward law, so their scores compete."""
    rng = np.random.default_rng(41)
    k, d = 4, 5
    post = (NIGLinearPosterior(d, arms=(k,)) if family == "nig"
            else FixedNoiseLinearPosterior(d, sigma_sq=0.25, arms=(k,)))
    w = rng.standard_normal(d)

    def rows(n):
        X = rng.standard_normal((n, d)) + 2.0
        return X, X @ w + 0.5 * rng.standard_normal(n)

    for a in range(k):
        post.batch_update(*rows(3), a)
    post.mean  # every arm fresh: the single rows below update roots
    X, Y = rows(60)
    for i, (x, y) in enumerate(zip(X, Y)):
        post.update(x, float(y), i % k)
    assert not post._stale.any()
    post.batch_update(*rows(4), 2)
    return post, rng.standard_normal(d) + 2.0


SCORE_DRAWS = 20_000


@pytest.mark.parametrize("family", ["fixed", "nig"])
@pytest.mark.parametrize("approximation", linear.APPROXIMATIONS)
def test_score_draws_follow_the_coefficient_draws_at_one_row(family, approximation):
    post, x = _read_root_posterior(family)
    rng = np.random.default_rng(5)
    scores = np.stack([post.sample(rng, approximation, at=x)[0] for _ in range(SCORE_DRAWS)])
    betas = np.stack([post.sample(rng, approximation)[0] @ x for _ in range(SCORE_DRAWS)])
    assert post._stale.sum() == 0  # arm 2 was refactored by the reads
    if approximation == "exact":
        var = np.einsum("i,aij,j->a", x, post.covariance(), x)
    else:
        var = post.covariance_diagonal(approximation) @ (x * x)
    # Mean: within 4 standard errors of x'mu.
    se = scores.std(axis=0) / np.sqrt(SCORE_DRAWS)
    assert np.all(np.abs(scores.mean(axis=0) - post.mean @ x) < 4 * se)
    # Variance: a sample variance of 2e4 normals has a relative standard error
    # of 1% (1.2% for the NIG scale mixture at a >= 7), so 6% is 5 of them.
    # Fixed noise: sigma^2 x'Cx; NIG: the variance of the beta draws at x.
    want = 0.25 * var if family == "fixed" else betas.var(axis=0)
    np.testing.assert_allclose(scores.var(axis=0), want, rtol=0.06)
    if family == "nig":  # and both match E[sigma^2] x'Cx
        np.testing.assert_allclose(scores.var(axis=0), post.b / (post.a - 1) * var, rtol=0.06)
    # Actions: each arm's argmax frequency agrees within 4 binomial SEs.
    k = post.arms[0]
    p_score = np.bincount(scores.argmax(axis=1), minlength=k) / SCORE_DRAWS
    p_beta = np.bincount(betas.argmax(axis=1), minlength=k) / SCORE_DRAWS
    assert np.sum(p_beta > 0.05) >= 2  # the arms compete, so the check can fail
    pooled = (p_score + p_beta) / 2
    assert np.all(np.abs(p_score - p_beta) <= 4 * np.sqrt(2 * pooled * (1 - pooled) / SCORE_DRAWS))


@pytest.mark.parametrize("approximation", linear.APPROXIMATIONS)
def test_score_draw_order_is_pinned(approximation):
    for family in ("fixed", "nig"):
        post, x = _read_root_posterior(family)
        if approximation == "exact":
            var = np.einsum("i,aij,j->a", x, post.covariance(), x)
        else:
            var = post.covariance_diagonal(approximation) @ (x * x)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            scores, sigma_sq = post.sample(rng, approximation, at=x)
            by_hand = np.random.default_rng(seed)
            if family == "nig":  # every arm's gamma in one call, then k normals
                want_sigma_sq = post.b / by_hand.gamma(post.a)
            else:
                want_sigma_sq = np.full(4, 0.25)
            want = post.mean @ x + np.sqrt(want_sigma_sq * var) * by_hand.standard_normal(4)
            np.testing.assert_array_equal(sigma_sq, want_sigma_sq)
            np.testing.assert_allclose(scores, want, rtol=1e-12)
            assert rng.random() == by_hand.random()  # nothing more was drawn


@pytest.mark.parametrize("arms", [(4,), ()])
def test_beta_draw_order_is_pinned(arms):
    rng = np.random.default_rng(43)
    d = 5
    post = NIGLinearPosterior(d, arms=arms)
    for i in range(40):  # refactors at the first read, then root updates
        arm = i % 4 if arms else ()
        post.update(rng.standard_normal(d) + 2.0, float(rng.standard_normal()), arm)
        post.mean
    for seed in range(3):
        rng = np.random.default_rng(seed)
        beta, sigma_sq = post.sample(rng)
        by_hand = np.random.default_rng(seed)
        gamma, z = np.empty(arms), np.empty(arms + (d,))
        for i in np.ndindex(arms):  # per arm, its gamma, then its d normals
            gamma[i] = by_hand.gamma(post.a[i])
            z[i] = by_hand.standard_normal(d)
        np.testing.assert_array_equal(sigma_sq, post.b / gamma)
        noise = np.einsum("...ij,...j->...i", post._cov_root, z)
        np.testing.assert_allclose(beta, post.mean + np.sqrt(sigma_sq)[..., None] * noise,
                                   rtol=1e-12)
        assert rng.random() == by_hand.random()  # nothing more was drawn


def test_a_score_draw_takes_one_row():
    post, x = _read_root_posterior("fixed")
    with pytest.raises(ValueError, match="context of shape"):
        post.sample(np.random.default_rng(0), at=np.stack([x, x]))
    point_mass = FixedNoiseLinearPosterior(5, sigma_sq=0.0, arms=(4,))
    for bad in (np.stack([x, x]), x[:4]):
        with pytest.raises(ValueError, match="context of shape"):
            point_mass.sample(np.random.default_rng(0), at=bad)


def test_thompson_decides_on_the_score_draw():
    post, x = _read_root_posterior("nig")
    agent = LinearThompsonAgent(5, 4, approximation="diag")
    agent.posterior = post
    for seed in range(5):
        scores, _ = post.sample(np.random.default_rng(seed), "diag", at=x)
        assert agent.choose(x, np.random.default_rng(seed)) == int(np.argmax(scores))


def test_noise_variance_sampling_mean():
    rng = np.random.default_rng(3)
    post = NIGLinearPosterior(2, ridge=0.25, a0=6.0, b0=6.0)
    X = rng.standard_normal((50, 2))
    Y = X @ np.array([1.0, -2.0]) + 0.5 * rng.standard_normal(50)
    post.batch_update(X, Y)
    draws = np.array([post.sample(rng)[1] for _ in range(20000)])
    assert np.mean(draws) == pytest.approx(post.b / (post.a - 1), rel=0.03)


def test_the_fixed_noise_variances_are_built_once_and_read_only():
    post = FixedNoiseLinearPosterior(3, sigma_sq=0.25, arms=(4,))
    rng, x = np.random.default_rng(0), np.ones(3)
    first = post.sample(rng)[1]
    np.testing.assert_array_equal(first, np.full(4, 0.25))
    assert post.sample(rng, at=x)[1] is first
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0


def test_point_mass_posterior_returns_mean_bitwise():
    rng = np.random.default_rng(0)
    post = FixedNoiseLinearPosterior(3, ridge=0.25, sigma_sq=0.0)
    X = rng.standard_normal((20, 3))
    post.batch_update(X, rng.standard_normal(20))
    for _ in range(5):
        beta, sigma_sq = post.sample(rng)
        np.testing.assert_array_equal(beta, post.mean)
        assert sigma_sq == 0.0


def test_diag_projection_values_on_crafted_precision():
    # One update with x = (1, 1) on ridge 1 gives precision [[2,1],[1,2]]:
    # covariance [[2/3,-1/3],[-1/3,2/3]], so diag -> 2/3 and precision_diag -> 1/2.
    post = FixedNoiseLinearPosterior(2, ridge=1.0, sigma_sq=1.0)
    post.update(np.array([1.0, 1.0]), 0.0)
    np.testing.assert_allclose(post.covariance_diagonal("diag"), [2 / 3, 2 / 3])
    np.testing.assert_allclose(post.covariance_diagonal("precision_diag"), [0.5, 0.5])
    with pytest.raises(ValueError):
        post.covariance_diagonal("banana")


def test_precision_diag_variances_never_exceed_marginals():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        post = FixedNoiseLinearPosterior(d, ridge=0.3, sigma_sq=1.0)
        post.batch_update(rng.standard_normal((15, d)), rng.standard_normal(15))
        marginal = post.covariance_diagonal("diag")
        shrunk = post.covariance_diagonal("precision_diag")
        assert np.all(shrunk <= marginal + 1e-12)


def test_diagonal_projections_minimize_their_kls():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        cov = A @ A.T + 0.1 * np.eye(3)
        prec = np.linalg.inv(cov)
        best_diag = np.diag(cov).copy()
        best_prec = 1.0 / np.diag(prec)
        for i in range(3):
            for c in (0.9, 1.1):
                worse = best_diag.copy()
                worse[i] *= c
                assert diag_gaussian_kl(cov, worse) > diag_gaussian_kl(cov, best_diag)
                # reverse KL: swap the roles via KL(N(0,D) || N(0,cov))
                worse_p = best_prec.copy()
                worse_p[i] *= c
                def reverse_kl(diag_q):
                    trace = float(np.trace(prec @ np.diag(diag_q)))
                    logdet = float(
                        np.linalg.slogdet(cov)[1] - np.sum(np.log(diag_q))
                    )
                    return 0.5 * (trace - 3 + logdet)
                assert reverse_kl(worse_p) > reverse_kl(best_prec)


def test_sampled_covariance_follows_projection():
    # diag sampling keeps marginal variances but drops correlations.
    post = FixedNoiseLinearPosterior(2, ridge=1.0, sigma_sq=1.0)
    post.update(np.array([1.0, 1.0]), 0.0)
    rng = np.random.default_rng(17)
    draws = np.stack([post.sample(rng, "diag")[0] - post.mean for _ in range(40000)])
    cov = np.cov(draws.T)
    np.testing.assert_allclose(np.diag(cov), [2 / 3, 2 / 3], rtol=0.05)
    assert abs(cov[0, 1]) < 0.02
    exact = np.stack([post.sample(rng, "exact")[0] - post.mean for _ in range(40000)])
    np.testing.assert_allclose(
        np.cov(exact.T), [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=0.02
    )


def test_update_touches_only_the_chosen_action():
    agent = LinearThompsonAgent(2, 3, sigma_sq=0.25)
    agent.observe(Observation(context=np.array([1.0, 0.0]), action=1, reward=2.0))
    post = agent.posterior
    assert post.count.tolist() == [0, 1, 0]
    np.testing.assert_array_equal(post.precision[[0, 2]], np.broadcast_to(0.25 * np.eye(2), (2, 2, 2)))
    np.testing.assert_array_equal(post.mean[[0, 2]], 0.0)
    assert post.mean[1, 0] > 0.0


def test_ts_tie_breaks_to_lowest_index():
    agent = LinearThompsonAgent(2, 4, sigma_sq=0.0)
    rng = np.random.default_rng(0)
    # all posteriors are point masses at zero: scores tie at 0.0
    assert agent.choose(np.array([1.0, 1.0]), rng) == 0


class ReferenceGreedy(Agent):
    """The greedy rule written out on its own: a bare ridge posterior, the
    argmax of its means at the context, and epsilon through ``Agent.choose``."""

    name = "ReferenceGreedy"

    def __init__(self, dim, num_actions, epsilon=0.0):
        self.posterior = linear._RidgePosterior(dim, 0.25, arms=(num_actions,))
        self.num_actions, self.epsilon = num_actions, epsilon

    def sample_scores(self, context, rng):
        return self.posterior.mean @ context

    def observe(self, obs):
        self.posterior.update(obs.context, obs.reward, obs.action)


def test_point_mass_thompson_equals_greedy_choices():
    rng = np.random.default_rng(21)
    ts = LinearThompsonAgent(3, 4, sigma_sq=0.0, name="pm")
    greedy = ReferenceGreedy(3, 4)
    for t in range(60):
        x = rng.standard_normal(3)
        a_ts = ts.choose(x, np.random.default_rng(t))
        a_gr = greedy.choose(x, np.random.default_rng(t))
        assert a_ts == a_gr
        r = float(rng.standard_normal())
        obs = Observation(context=x, action=a_ts, reward=r)
        ts.observe(obs)
        greedy.observe(obs)


def test_the_point_mass_draws_nothing(monkeypatch):
    # LinGreedy(eps=0.05) and the reference take the same epsilon draws from
    # the decision generator and nothing else, so it ends in the same state
    decision_rngs = []
    rng_at = core.rng_at

    def recording_rng_at(seed, *path):
        rng = rng_at(seed, *path)
        if path == (1,):
            decision_rngs.append(rng)
        return rng

    monkeypatch.setattr(core, "rng_at", recording_rng_at)
    cfg = LinearConfig(dim=5, num_actions=4, horizon=300)
    greedy = get_preset("LinGreedy(eps=0.05)").make(5, 4, 300, 0)
    t1 = run_trial(SampledLinearBandit(cfg, 3), greedy, 3)
    t2 = run_trial(SampledLinearBandit(cfg, 3), ReferenceGreedy(5, 4, epsilon=0.05), 3)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.realized_rewards, t2.realized_rewards)
    ended = [rng.bit_generator.state for rng in decision_rngs]
    assert ended[0] == ended[1] != rng_at(3, 1).bit_generator.state


def test_epsilon_one_explores_uniformly():
    # both epsilon users, the linear and the neural greedy agent, decide
    # through Agent.choose
    eps_rms = get_preset("EpsGreedyRMS").make(1, 5, 5000, 0,
                                               {"epsilon": 1.0, "epsilon_decay": 1.0})
    for agent in (LinearGreedyAgent(1, 5, epsilon=1.0), eps_rms):
        rng = np.random.default_rng(2)
        draws = np.array([agent.choose(np.ones(1), rng) for _ in range(5000)])
        freq = np.bincount(draws, minlength=5) / 5000
        assert np.all(np.abs(freq - 0.2) < 3 * np.sqrt(0.2 * 0.8 / 5000)), agent.name


def test_agent_constructor_validation():
    with pytest.raises(ValueError):
        LinearThompsonAgent(2, 2, approximation="full")
    with pytest.raises(ValueError):
        LinearGreedyAgent(2, 2, epsilon=1.5)
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\]$"):
        LinearThompsonAgent(2, 2, epsilon=1.5)
    with pytest.raises(ValueError):
        LinearThompsonAgent(2, 0)
    with pytest.raises(TypeError):
        LinearGreedyAgent(2, 2, sigma_sq=0.25)
