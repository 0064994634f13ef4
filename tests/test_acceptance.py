"""Acceptance suite: the package-level guarantees, one test per criterion.

Each test prints one ACCEPTANCE line with PASS/FAIL, the key measured
numbers, and its runtime against the stated bound.  Tolerances are pinned
here and nowhere else.
"""

import time

import numpy as np

from banditbench import (
    ConstantFeatureEnv,
    LinearConfig,
    LinearThompsonAgent,
    NIGLinearPosterior,
    Observation,
    SampledLinearBandit,
    WheelBandit,
    WheelConfig,
    bbb_loss_and_grads,
    const_sgd_step,
    mushroom_env,
    run_experiment,
    run_trial,
)
from banditbench.bench import run_benchmark
from banditbench.cli import main as cli_main
from banditbench.config import parse_config
from banditbench.mlp import (
    TrainingSchedule,
    make_dropout_masks,
    masked_mse,
    mlp_backward,
    mlp_forward,
    mlp_init,
)
from banditbench.presets import get_preset
from banditbench.samplers import (
    FisherEMA,
    SGFSAgent,
    VariationalNet,
    gaussian_kl,
    softplus_inverse,
)
from test_linear import ReferenceGreedy


def report(num: int, slug: str, ok: bool, detail: str, elapsed: float, bound: float):
    status = "PASS" if ok and elapsed <= bound else "FAIL"
    print(f"ACCEPTANCE {num:02d} {slug}: {status} ({detail}; {elapsed:.1f}s <= {bound:.0f}s)")
    assert ok, detail
    assert elapsed <= bound, f"took {elapsed:.1f}s, bound {bound:.0f}s"


def test_criterion_01_online_updates_match_batch_formulas():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(1, 1001))
        X = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
        Y = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        post = NIGLinearPosterior(d, ridge=0.25, a0=6.0, b0=6.0)
        for x, y in zip(X, Y):
            post.update(x, float(y))
        P = X.T @ X + 0.25 * np.eye(d)
        mu = np.linalg.solve(P, X.T @ Y)
        a = 6.0 + n / 2.0
        b = 6.0 + 0.5 * (Y @ Y - mu @ P @ mu)
        for got, want in (
            (post.precision, P),
            (post.mean, mu),
            (np.array([post.a]), np.array([a])),
            (np.array([post.b]), np.array([b])),
        ):
            err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12))
            worst = max(worst, float(err))
        assert worst < 1e-8
    report(
        1, "online-equals-batch", worst < 1e-8,
        f"100 sequences, max rel err {worst:.2e} < 1e-8",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_02_joint_posterior_sampling_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    post = NIGLinearPosterior(5, ridge=0.25, a0=6.0, b0=6.0)
    X = rng.standard_normal((200, 5))
    post.batch_update(X, X @ rng.standard_normal(5) + 0.5 * rng.standard_normal(200))
    draws = 100_000
    betas = np.empty((draws, 5))
    sig = np.empty(draws)
    for i in range(draws):
        betas[i], sig[i] = post.sample(rng)
    ev = post.b / (post.a - 1)
    sig_err = abs(sig.mean() - ev) / ev
    target = ev * post.covariance()
    cov_err = np.linalg.norm(np.cov(betas.T) - target) / np.linalg.norm(target)
    report(
        2, "nig-sampling-moments", sig_err < 0.02 and cov_err < 0.05,
        f"1e5 draws: E[s2] rel err {sig_err:.4f} < 0.02, "
        f"cov Frobenius rel err {cov_err:.4f} < 0.05",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_03_diagonal_projections_optimize_their_divergences():
    start = time.perf_counter()
    rng = np.random.default_rng(303)

    def kl_p_to_diag(cov, diag_q):
        d = cov.shape[0]
        return 0.5 * (
            float(np.sum(np.diag(cov) / diag_q)) - d
            + float(np.sum(np.log(diag_q)) - np.linalg.slogdet(cov)[1])
        )

    def kl_diag_to_p(diag_q, cov, prec):
        d = cov.shape[0]
        return 0.5 * (
            float(np.sum(np.diag(prec) * diag_q)) - d
            + float(np.linalg.slogdet(cov)[1] - np.sum(np.log(diag_q)))
        )

    checked = 0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        A = rng.standard_normal((d, d))
        cov = A @ A.T + 0.1 * np.eye(d)
        prec = np.linalg.inv(cov)
        marginal = np.diag(cov).copy()
        shrunk = 1.0 / np.diag(prec)
        base_m = kl_p_to_diag(cov, marginal)
        base_s = kl_diag_to_p(shrunk, cov, prec)
        perturbations = [(i, c) for i in range(d) for c in (0.9, 1.1)]
        perturbations += [(None, 0.9), (None, 1.1)]
        for i, c in perturbations:
            worse_m = marginal * c if i is None else marginal.copy()
            worse_s = shrunk * c if i is None else shrunk.copy()
            if i is not None:
                worse_m[i] *= c
                worse_s[i] *= c
            assert kl_p_to_diag(cov, worse_m) > base_m
            assert kl_diag_to_p(worse_s, cov, prec) > base_s
            checked += 2
    report(
        3, "kl-optimal-diagonals", True,
        f"50 SPD matrices, {checked} perturbed objectives all strictly worse",
        time.perf_counter() - start, 10.0,
    )


def _mlp_grad_error(rng) -> float:
    sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(2, 4)))
    layer_norm = bool(rng.integers(2))
    net = mlp_init(sizes, rng, layer_norm=layer_norm)
    n = 5
    X = rng.standard_normal((n, sizes[0]))
    actions = rng.integers(0, sizes[-1], size=n)
    rewards = rng.standard_normal(n)
    p_keep = 0.8 if (not layer_norm and rng.integers(2)) else 1.0
    masks = None
    if p_keep < 1.0:
        masks = make_dropout_masks(net, n, p_keep, rng)

    def loss():
        out, _ = mlp_forward(net, X, masks, p_keep)
        return masked_mse(out, actions, rewards)[0]

    out, cache = mlp_forward(net, X, masks, p_keep)
    _, dout = masked_mse(out, actions, rewards)
    analytic = mlp_backward(net, cache, dout)
    return _numeric_vs(net.parameters(), net.split(analytic), loss)


def _bbb_grad_error(rng) -> float:
    sizes = (int(rng.integers(2, 4)), int(rng.integers(3, 6)), int(rng.integers(2, 4)))
    vnet = VariationalNet(sizes, prior_sigma=1.0, rng=rng)
    n = 5
    X = rng.standard_normal((n, sizes[0]))
    actions = rng.integers(0, sizes[-1], size=n)
    rewards = rng.standard_normal(n)
    noise = rng.standard_normal(vnet.rho.size)

    def loss():
        value, _, _ = bbb_loss_and_grads(
            vnet, X, actions, rewards, total_count=40, noise_sigma=0.5, noise=noise
        )
        return value

    _, _, analytic = bbb_loss_and_grads(
        vnet, X, actions, rewards, total_count=40, noise_sigma=0.5, noise=noise
    )
    return _numeric_vs(vnet.split(vnet.flat), vnet.split(analytic), loss)


def _numeric_vs(params, analytic, loss, h: float = 1e-6) -> float:
    worst = 0.0
    for p, g in zip(params, analytic):
        fp = p.ravel()
        num = np.zeros(fp.size)
        for i in range(fp.size):
            keep = fp[i]
            fp[i] = keep + h
            hi = loss()
            fp[i] = keep - h
            lo = loss()
            fp[i] = keep
            num[i] = (hi - lo) / (2.0 * h)
        denom = max(1.0, np.linalg.norm(g), np.linalg.norm(num))
        worst = max(worst, float(np.linalg.norm(g.ravel() - num) / denom))
    return worst


def test_criterion_04_gradients_match_central_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(10):
        worst = max(worst, _mlp_grad_error(rng))
    for _ in range(10):
        worst = max(worst, _bbb_grad_error(rng))
    report(
        4, "gradcheck", worst < 1e-4,
        f"20 random nets, worst rel grad err {worst:.2e} < 1e-4",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_05_diagonal_approximation_gap_on_correlated_linear():
    start = time.perf_counter()
    cfg = LinearConfig(dim=30, num_actions=20, horizon=2000, context_mean=2.0)
    means = {}
    for name in ("LinPost", "LinDiagPost", "LinDiagPrecPost"):
        preset = get_preset(name)
        rep = run_experiment(
            lambda seed: SampledLinearBandit(cfg, seed),
            lambda seed: preset.make(30, 20, 2000, seed),
            trials=20,
            base_seed=0,
        )
        means[name] = rep.mean_cum_regret
    ratio_dp = means["LinDiagPost"] / means["LinDiagPrecPost"]
    ratio_pe = means["LinDiagPrecPost"] / means["LinPost"]
    ok = ratio_dp > 1.5 and ratio_pe <= 1.25
    report(
        5, "diag-vs-precision-diag", ok,
        f"d=30 k=20 n=2000, 20 trials: diag/prec {ratio_dp:.2f} > 1.5, "
        f"prec/exact {ratio_pe:.2f} <= 1.25",
        time.perf_counter() - start, 180.0,
    )


def test_criterion_06_wheel_separates_posterior_and_greedy_agents():
    start = time.perf_counter()
    cfg = WheelConfig(delta=0.95, horizon=2000)
    means = {}
    for name in ("LinFullPost", "LinGreedy", "NeuralLinear", "RMS"):
        preset = get_preset(name)
        rep = run_experiment(
            lambda seed: ConstantFeatureEnv(WheelBandit(cfg, seed)),
            lambda seed: preset.make(3, 5, 2000, seed),
            trials=10,
            base_seed=0,
        )
        means[name] = rep.mean_cum_regret
    lin_ratio = means["LinFullPost"] / means["LinGreedy"]
    net_ratio = means["NeuralLinear"] / means["RMS"]
    ok = lin_ratio < 0.4 and net_ratio < 0.5
    report(
        6, "wheel-delta-0.95", ok,
        f"10 trials: LinFullPost/LinGreedy {lin_ratio:.3f} < 0.4, "
        f"NeuralLinear/RMS {net_ratio:.3f} < 0.5",
        time.perf_counter() - start, 600.0,
    )


def test_criterion_07_point_mass_posterior_replays_greedy_actions():
    start = time.perf_counter()
    cfg = LinearConfig(dim=5, num_actions=4, horizon=300)
    for seed in range(5):
        env = SampledLinearBandit(cfg, seed)
        ts = LinearThompsonAgent(5, 4, sigma_sq=0.0)
        greedy = ReferenceGreedy(5, 4)
        t1 = run_trial(env, ts, seed)
        t2 = run_trial(SampledLinearBandit(cfg, seed), greedy, seed)
        assert np.array_equal(t1.actions, t2.actions)
        assert np.array_equal(t1.realized_rewards, t2.realized_rewards)
    report(
        7, "point-mass-greedy-equivalence", True,
        "5 seeds, 300-step action streams identical",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_08_uniform_normalizes_to_exactly_100():
    start = time.perf_counter()
    cfg = parse_config(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=50\n"
        '[agent "LinGreedy"]\n[run]\ntrials=3\n'
    )
    result = run_benchmark(cfg)
    uniform = next(r for r in result.normalized if r.agent == "Uniform")
    ok = uniform.mean_cum_regret == 100.0
    report(
        8, "uniform-baseline-100", ok,
        f"normalized Uniform cumulative regret == {uniform.mean_cum_regret!r}",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_09_environment_statistics(tmp_path):
    start = time.perf_counter()
    n = 100_000
    delta = 0.95
    env = WheelBandit(WheelConfig(delta=delta, horizon=n), seed=909)
    freq = float(env._inside.mean())
    sigma_w = np.sqrt(delta**2 * (1 - delta**2) / n)
    wheel_ok = abs(freq - delta**2) < 3 * sigma_w

    csv = tmp_path / "shrooms.csv"
    csv.write_text("e,cap\np,cap\n", encoding="utf-8")
    shroom = mushroom_env(str(csv), header=False)
    rng = np.random.default_rng(910)
    draws = np.array([shroom.realize_reward(1, 0, rng) for _ in range(n)])
    sigma_m = 20.0 / np.sqrt(n)  # outcomes are +/-5/-35, sd 20
    shroom_ok = abs(draws.mean() + 15.0) < 3 * sigma_m
    report(
        9, "environment-statistics", wheel_ok and shroom_ok,
        f"wheel inside freq {freq:.4f} vs {delta**2:.4f} (3s={3*sigma_w:.4f}); "
        f"poisonous-eat mean {draws.mean():.3f} vs -15 (3s={3*sigma_m:.3f})",
        time.perf_counter() - start, 30.0,
    )


def test_criterion_10_benchmark_rerun_is_byte_identical(tmp_path, capsys):
    start = time.perf_counter()
    template = (
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=80\nconstant_feature=true\n"
        '[agent "LinFullPost"]\n[agent "NeuralLinear"]\n'
        "[run]\ntrials=2\nseed=0\nout={out}\n"
    )
    outs = []
    for sub in ("first", "second"):
        cfg = tmp_path / f"{sub}.cfg"
        out = tmp_path / sub
        cfg.write_text(template.format(out=out), encoding="utf-8")
        assert cli_main(["run", str(cfg)]) == 0
        outs.append(sorted(out.iterdir()))
    capsys.readouterr()
    assert [p.name for p in outs[0]] == [p.name for p in outs[1]]
    mismatches = []
    for pa, pb in zip(outs[0], outs[1]):
        if pa.name == "summary.csv":
            # wall time is the one legitimately run-dependent column
            strip = lambda p: [
                ",".join(ln.split(",")[:-1])
                for ln in p.read_text(encoding="utf-8").splitlines()
            ]
            if strip(pa) != strip(pb):
                mismatches.append(pa.name)
        elif pa.read_bytes() != pb.read_bytes():
            mismatches.append(pa.name)
    report(
        10, "rerun-byte-identical", not mismatches,
        f"{len(outs[0])} files compared, mismatches: {mismatches or 'none'}",
        time.perf_counter() - start, 60.0,
    )


def test_criterion_11_sampler_guarantees():
    start = time.perf_counter()
    obs_rng = np.random.default_rng(111)
    chains = []
    for _ in range(2):
        agent = SGFSAgent(3, 2, TrainingSchedule(batch_size=32, batches_per_period=10), seed=5,
                          noise_scale=0.0, burn_in=0, hidden=(16,))
        chains.append(agent)
    contexts = obs_rng.standard_normal((60, 3))
    rewards = obs_rng.standard_normal(60)
    actions = obs_rng.integers(0, 2, size=60)
    for agent in chains:
        for x, a, r in zip(contexts, actions, rewards):
            agent.observe(Observation(context=x, action=int(a), reward=float(r)))
        for step in (0, 20, 40):
            agent.maybe_train(step)
    sgfs_ok = all(
        np.array_equal(pa, pb)
        for pa, pb in zip(chains[0].net.parameters(), chains[1].net.parameters())
    )

    # constant SGD on loss theta^2: frozen curvature diag 4*lambda with S = N
    # halves theta each step, a geometric path to the optimum
    lam = 2.0
    theta = np.array([1.0])
    ema = FisherEMA(theta)
    ema.diag = np.array([4.0 * lam])
    for _ in range(40):
        const_sgd_step(theta, lam * theta.copy(), ema, 8, 8)
    const_ok = abs(theta[0]) < 1e-6

    kl_zero = gaussian_kl(np.zeros(7), np.full(7, 0.3), 0.3)
    kl_half = gaussian_kl(np.array([1.0]), np.array([1.0]), 1.0)
    vnet = VariationalNet([2, 3], prior_sigma=0.8, rng=np.random.default_rng(0))
    for m in vnet.mu.parameters():
        m[:] = 0.0
    vnet.rho[:] = softplus_inverse(0.8)
    bbb_ok = (
        abs(kl_zero) < 1e-12
        and abs(kl_half - 0.5) < 1e-12
        and abs(vnet.kl_to_prior()) < 1e-9
    )
    report(
        11, "sampler-guarantees", sgfs_ok and const_ok and bbb_ok,
        f"SGFS chains bitwise equal: {sgfs_ok}; ConstSGD |theta| {abs(theta[0]):.1e} < 1e-6; "
        f"KL at prior {kl_zero:.1e}, unit-mean KL {kl_half:.3f}",
        time.perf_counter() - start, 30.0,
    )
