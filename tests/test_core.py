"""Decision-loop harness, regret metrics, and report plumbing."""

import dataclasses

import numpy as np
import pytest

from banditbench import (
    Agent,
    ContractViolation,
    HistoryBuffer,
    Observation,
    RegretTrace,
    UniformAgent,
    cumulative_regret,
    normalize_report,
    regret_curve,
    run_experiment,
    run_trial,
    simple_regret,
    standard_error,
)
from banditbench.core import Environment, report_from_traces, rng_at, seed_at


class TableEnv(Environment):
    """Deterministic contexts from the seed, expected rewards x . w_a."""

    def __init__(self, seed: int, dim: int = 3, num_actions: int = 4,
                 horizon: int = 40, noise: float = 0.1):
        rng = np.random.default_rng(seed)
        self.name = "table"
        contexts = rng.standard_normal((horizon, dim))
        super().__init__(contexts, contexts @ rng.standard_normal((num_actions, dim)).T)
        self._noise = noise

    def realize_reward(self, t, action, rng):
        return self.expected_reward(t, action) + self._noise * rng.standard_normal()


class RecordingAgent(Agent):
    """Plays a fixed action and logs every harness call."""

    def __init__(self, action: int = 0, extra_draws: int = 0):
        self.name = "recorder"
        self.action = action
        self.extra_draws = extra_draws
        self.chosen_at = []
        self.observed = []
        self.train_steps = []

    def choose(self, context, rng):
        for _ in range(self.extra_draws):
            rng.random()
        self.chosen_at.append(context.copy())
        return self.action

    def observe(self, obs):
        self.observed.append(obs)

    def maybe_train(self, step):
        self.train_steps.append(step)


def make_trace(optimal, expected, agent="a", env="e"):
    optimal = np.asarray(optimal, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return RegretTrace(
        agent=agent,
        environment=env,
        actions=np.zeros(len(optimal), dtype=np.int64),
        realized_rewards=expected.copy(),
        expected_rewards=expected,
        optimal_rewards=optimal,
        context_digest="",
    )


def test_history_buffer_append_views_and_growth():
    buf = HistoryBuffer(dim=2, num_actions=3)
    rng = np.random.default_rng(0)
    rows = []
    for i in range(200):  # forces two capacity doublings past 64
        x = rng.standard_normal(2)
        a = i % 3
        idx = buf.append(Observation(context=x, action=a, reward=float(i)))
        assert idx == i
        rows.append((x, a, float(i)))
    assert len(buf) == 200
    assert buf.contexts.shape == (200, 2)
    np.testing.assert_array_equal(buf.rewards, np.arange(200.0))
    np.testing.assert_array_equal(buf.actions, np.arange(200) % 3)
    np.testing.assert_allclose(buf.contexts[5], rows[5][0])


def test_history_buffer_rejects_out_of_range_action():
    buf = HistoryBuffer(dim=1, num_actions=2)
    with pytest.raises(ValueError):
        buf.append(Observation(context=np.zeros(1), action=2, reward=0.0))


@pytest.mark.parametrize("context", [np.array([5.0]), 5.0, np.zeros(4), np.zeros((1, 3))],
                         ids=["(1,)", "scalar", "(4,)", "(1, 3)"])
def test_history_buffer_rejects_a_context_of_the_wrong_shape(context):
    buf = HistoryBuffer(dim=3, num_actions=2)
    with pytest.raises(ValueError, match=r"context has shape .*, expected \(3,\)"):
        buf.append(Observation(context=context, action=0, reward=0.0))
    assert len(buf) == 0
    buf.append(Observation(context=[1.0, 2.0, 3.0], action=0, reward=0.0))
    np.testing.assert_array_equal(buf.contexts, [[1.0, 2.0, 3.0]])


def test_observation_is_immutable():
    obs = Observation(context=np.zeros(1), action=0, reward=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.action = 1


def test_warmup_is_round_robin_and_skips_choose():
    env = TableEnv(seed=3, num_actions=4, horizon=40)
    agent = RecordingAgent(action=2)
    trace = run_trial(env, agent, seed=0, warmup_pulls=3)
    warmup = 4 * 3
    np.testing.assert_array_equal(trace.actions[:warmup], np.arange(warmup) % 4)
    assert np.all(trace.actions[warmup:] == 2)
    # choose was called exactly once per post-warmup step
    assert len(agent.chosen_at) == 40 - warmup


def test_agent_sees_every_step_in_order():
    env = TableEnv(seed=5, num_actions=2, horizon=20)
    agent = RecordingAgent(action=1)
    trace = run_trial(env, agent, seed=1, warmup_pulls=2)
    assert len(agent.observed) == 20
    for t, obs in enumerate(agent.observed):
        np.testing.assert_allclose(obs.context, env.context_at(t))
        assert obs.action == trace.actions[t]
        assert obs.reward == trace.realized_rewards[t]
    # maybe_train ticks every step with the post-warmup counter
    assert agent.train_steps == list(range(-4, 16))


def test_zero_warmup_lets_agent_choose_from_start():
    env = TableEnv(seed=2, horizon=10)
    agent = RecordingAgent(action=3)
    trace = run_trial(env, agent, seed=0, warmup_pulls=0)
    assert np.all(trace.actions == 3)
    assert agent.train_steps == list(range(10))


def test_invalid_actions_are_contract_violations():
    env = TableEnv(seed=1, num_actions=3, horizon=9)

    class Bad(RecordingAgent):
        def choose(self, context, rng):
            return 3

    with pytest.raises(ContractViolation):
        run_trial(env, Bad(), seed=0, warmup_pulls=0)

    class BadType(RecordingAgent):
        def choose(self, context, rng):
            return 0.5

    with pytest.raises(ContractViolation):
        run_trial(env, BadType(), seed=0, warmup_pulls=0)


def test_invalid_context_is_a_contract_violation():
    env = TableEnv(seed=1, horizon=5)
    env.contexts[3, 0] = np.nan
    agent = RecordingAgent()
    with pytest.raises(ContractViolation, match="'table' produced an invalid context at step 3$"):
        run_trial(env, agent, seed=0, warmup_pulls=0)
    assert agent.observed == []  # checked before the first step


def test_environment_base_holds_two_arrays():
    contexts = np.arange(12.0).reshape(4, 3)
    expected = np.array([[1.0, 2.0], [4.0, 3.0], [0.0, 0.0], [-1.0, -2.0]])
    env = Environment(contexts, expected, horizon=3)
    assert (env.dim, env.num_actions, env.horizon) == (3, 2, 3)
    np.testing.assert_array_equal(env.context_at(1), [3.0, 4.0, 5.0])
    assert env.expected_reward(1, 1) == 3.0
    assert [env.optimal_expected_reward(t) for t in range(4)] == [2.0, 4.0, 0.0, -1.0]
    assert env.realize_reward(0, 1, np.random.default_rng(0)) == 2.0  # noiseless
    with pytest.raises(ValueError, match=r"horizon must lie in \[1, 4\]"):
        Environment(contexts, expected, horizon=5)
    with pytest.raises(ValueError, match="contexts must be"):
        Environment(contexts[0], expected)
    with pytest.raises(ValueError, match="contexts must be"):
        Environment(contexts, expected[:3])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="contexts must be finite: row 2"):
            Environment(np.where(contexts == 7.0, bad, contexts), expected)
        with pytest.raises(ValueError, match="expected rewards must be finite: row 3"):
            Environment(contexts, np.where(expected == -2.0, -bad, expected))


@pytest.mark.parametrize("method", ["realize_reward", "optimal_expected_reward"])
def test_non_finite_reward_is_a_contract_violation(method):
    env = TableEnv(seed=1, horizon=8)
    inner = getattr(env, method)
    setattr(env, method, lambda t, *rest: float("nan") if t == 5 else inner(t, *rest))
    agent = RecordingAgent()
    with pytest.raises(ContractViolation, match=r"'table'.*'recorder' at step 5$"):
        run_trial(env, agent, seed=0, warmup_pulls=0)
    if method == "realize_reward":
        assert len(agent.observed) == 5  # the agent never saw the NaN


def test_horizon_validation_and_truncation():
    env = TableEnv(seed=0, horizon=30)
    with pytest.raises(ValueError):
        run_trial(env, RecordingAgent(), seed=0, horizon=31)
    trace = run_trial(env, RecordingAgent(), seed=0, horizon=7, warmup_pulls=0)
    assert len(trace) == 7


def test_same_seed_same_trace():
    def one():
        env = TableEnv(seed=9, horizon=25)
        return run_trial(env, UniformAgent(env.num_actions), seed=123)

    t1, t2 = one(), one()
    np.testing.assert_array_equal(t1.actions, t2.actions)
    np.testing.assert_array_equal(t1.realized_rewards, t2.realized_rewards)
    assert t1.context_digest == t2.context_digest


def test_context_digest_pairs_agents_and_separates_seeds():
    def digest(agent, seed):
        env = TableEnv(seed=seed, horizon=15)
        return run_trial(env, agent, seed=seed).context_digest

    a = digest(UniformAgent(4), seed=7)
    b = digest(RecordingAgent(action=1), seed=7)
    c = digest(UniformAgent(4), seed=8)
    assert a == b
    assert a != c


def test_agent_draws_do_not_perturb_reward_stream():
    # Two agents playing identical actions see bitwise-identical rewards even
    # though one burns many extra generator draws while choosing.
    quiet = RecordingAgent(action=0, extra_draws=0)
    noisy = RecordingAgent(action=0, extra_draws=5)
    t1 = run_trial(TableEnv(seed=4, horizon=30), quiet, seed=11)
    t2 = run_trial(TableEnv(seed=4, horizon=30), noisy, seed=11)
    np.testing.assert_array_equal(t1.realized_rewards, t2.realized_rewards)


def test_seed_at_is_the_node_a_spawn_chain_reaches():
    for root in (7, np.random.SeedSequence(7, spawn_key=(3,))):
        parent = root if isinstance(root, np.random.SeedSequence) else np.random.SeedSequence(root)
        _, child = parent.spawn(2)
        _, _, grandchild = child.spawn(3)
        node = seed_at(root, 1, 2)
        assert node.spawn_key == grandchild.spawn_key
        np.testing.assert_array_equal(node.generate_state(8), grandchild.generate_state(8))
        assert rng_at(root, 1, 2).random() == np.random.default_rng(grandchild).random()
        # building a node spawns nothing
        assert parent.n_children_spawned == 2
    # no path is the seed itself
    assert rng_at(5).random() == np.random.default_rng(5).random()


def test_cumulative_regret_sums_expected_gaps():
    trace = make_trace(optimal=[3.0, 2.0, 5.0], expected=[1.0, 2.0, 4.5])
    assert cumulative_regret(trace) == pytest.approx(2.0 + 0.0 + 0.5)
    np.testing.assert_allclose(trace.instantaneous_regret(), [2.0, 0.0, 0.5])


def test_simple_regret_windows():
    rng = np.random.default_rng(0)
    gaps = rng.random(700)
    trace = make_trace(optimal=gaps, expected=np.zeros(700))
    assert simple_regret(trace) == pytest.approx(np.mean(gaps[-500:]))
    short = make_trace(optimal=gaps[:300], expected=np.zeros(300))
    assert simple_regret(short) == pytest.approx(np.mean(gaps[:300]))
    assert simple_regret(trace, window=10) == pytest.approx(np.mean(gaps[-10:]))
    with pytest.raises(ValueError):
        simple_regret(trace, window=0)


def test_standard_error_matches_formula():
    values = np.array([1.0, 4.0, 2.5, 3.5, 0.5])
    expect = np.std(values, ddof=1) / np.sqrt(5)
    assert standard_error(values) == pytest.approx(expect)
    assert standard_error(np.array([2.0])) == 0.0


def test_uniform_agent_is_uniform():
    agent = UniformAgent(5)
    rng = np.random.default_rng(42)
    draws = np.array([agent.choose(np.zeros(1), rng) for _ in range(20000)])
    freq = np.bincount(draws, minlength=5) / 20000
    sigma = np.sqrt(0.2 * 0.8 / 20000)
    assert np.all(np.abs(freq - 0.2) < 3 * sigma)


def test_run_experiment_aggregates_trials():
    report = run_experiment(
        lambda s: TableEnv(seed=s, horizon=30),
        lambda s: UniformAgent(4),
        trials=5,
        base_seed=100,
    )
    assert report.trials == 5
    assert report.cum_regrets.shape == (5,)
    assert report.mean_cum_regret == pytest.approx(np.mean(report.cum_regrets))
    assert report.stderr_cum == pytest.approx(standard_error(report.cum_regrets))
    single = run_experiment(
        lambda s: TableEnv(seed=s, horizon=30),
        lambda s: UniformAgent(4),
        trials=1,
    )
    assert single.trials == 1 and single.stderr_cum == 0.0


def test_normalization_is_exactly_100_for_the_baseline():
    uniform = run_experiment(
        lambda s: TableEnv(seed=s, horizon=40),
        lambda s: UniformAgent(4),
        trials=3,
    )
    scaled = normalize_report(uniform, uniform)
    assert scaled.mean_cum_regret == 100.0
    assert scaled.mean_simple_regret == 100.0
    assert scaled.normalized

    other = run_experiment(
        lambda s: TableEnv(seed=s, horizon=40),
        lambda s: RecordingAgent(action=0),
        trials=3,
    )
    norm = normalize_report(other, uniform)
    assert norm.mean_cum_regret == pytest.approx(
        other.mean_cum_regret / uniform.mean_cum_regret * 100.0
    )


def test_normalization_rejects_zero_baseline():
    trace = make_trace(optimal=[1.0, 1.0], expected=[1.0, 1.0])
    zero = report_from_traces([trace], base_seed=0)
    with pytest.raises(ValueError):
        normalize_report(zero, zero)


def test_regret_curve_mean_and_stderr():
    t1 = make_trace(optimal=[1.0, 2.0, 3.0], expected=[0.0, 0.0, 0.0])
    t2 = make_trace(optimal=[3.0, 2.0, 1.0], expected=[0.0, 0.0, 0.0])
    mean, err = regret_curve([t1, t2])
    np.testing.assert_allclose(mean, [2.0, 4.0, 6.0])
    expect = np.std(
        np.stack([np.cumsum([1.0, 2.0, 3.0]), np.cumsum([3.0, 2.0, 1.0])]),
        axis=0, ddof=1,
    ) / np.sqrt(2)
    np.testing.assert_allclose(err, expect)
    _, solo = regret_curve([t1])
    np.testing.assert_array_equal(solo, np.zeros(3))
