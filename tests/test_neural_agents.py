"""Neural agents: determinism, exploration mechanics, and the preset registry."""

import numpy as np
import pytest

from banditbench import (
    BootstrapAgent,
    DropoutAgent,
    LinearConfig,
    NeuralGreedyAgent,
    NeuralLinearAgent,
    Observation,
    ParameterNoiseAgent,
    PRESETS,
    SampledLinearBandit,
    TrainingSchedule,
    cumulative_regret,
    get_preset,
    list_presets,
    run_trial,
)
from banditbench.neural import TrainableNet

SMALL = TrainingSchedule(train_every=10, batches_per_period=3, batch_size=8)


def feed(agent, n, dim, k, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        agent.observe(
            Observation(
                context=rng.standard_normal(dim),
                action=int(rng.integers(k)),
                reward=float(rng.standard_normal()),
            )
        )


def drive(agent, steps, dim, k, data_seed, rng_seed):
    """Run choose/observe/train by hand; returns the action stream."""
    data = np.random.default_rng(data_seed)
    rng = np.random.default_rng(rng_seed)
    actions = []
    for t in range(steps):
        x = data.standard_normal(dim)
        a = agent.choose(x, rng)
        actions.append(a)
        agent.observe(Observation(context=x, action=a, reward=float(data.standard_normal())))
        agent.maybe_train(t)
    return actions


def test_trainable_net_is_seed_deterministic():
    nets = [TrainableNet(3, 2, SMALL, seed=5, hidden=(6,)) for _ in range(2)]
    for a, b in zip(nets[0].net.parameters(), nets[1].net.parameters()):
        np.testing.assert_array_equal(a, b)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    acts = rng.integers(0, 2, 20)
    rew = rng.standard_normal(20)
    for net in nets:
        net.train_period(X, acts, rew)
    for a, b in zip(nets[0].net.parameters(), nets[1].net.parameters()):
        np.testing.assert_array_equal(a, b)
    assert nets[0].period == 1


def test_training_fires_on_schedule_only():
    agent = NeuralGreedyAgent(2, 2, SMALL, seed=0, hidden=(4,))
    feed(agent, 1, 2, 2, seed=1)
    for step, periods in [(-10, 0), (0, 1), (3, 1), (10, 2), (11, 2), (20, 3)]:
        agent.maybe_train(step)
        assert agent.core.period == periods


def test_dropout_keep_one_matches_greedy_stream():
    greedy = NeuralGreedyAgent(3, 4, SMALL, seed=11, hidden=(6,))
    drop = DropoutAgent(3, 4, SMALL, seed=11, p_keep=1.0, hidden=(6,))
    a1 = drive(greedy, 50, 3, 4, data_seed=2, rng_seed=3)
    a2 = drive(drop, 50, 3, 4, data_seed=2, rng_seed=3)
    assert a1 == a2


def test_dropout_below_one_diverges_and_uses_decision_noise():
    drop = DropoutAgent(3, 4, SMALL, seed=11, p_keep=0.5, hidden=(6,))
    feed(drop, 20, 3, 4, seed=4)
    drop.maybe_train(0)
    x = np.full(3, 0.7)
    draws = {drop.choose(x, np.random.default_rng(s)) for s in range(40)}
    assert len(draws) > 1  # fresh masks randomize the decision


def test_bootstrap_single_member_matches_greedy_stream():
    greedy = NeuralGreedyAgent(3, 4, SMALL, seed=13, hidden=(6,))
    boot = BootstrapAgent(3, 4, SMALL, seed=13, q=1, p=1.0, hidden=(6,))
    a1 = drive(greedy, 50, 3, 4, data_seed=5, rng_seed=6)
    a2 = drive(boot, 50, 3, 4, data_seed=5, rng_seed=6)
    assert a1 == a2


def test_bootstrap_inclusion_probability():
    boot = BootstrapAgent(2, 2, SMALL, seed=1, q=3, p=0.5, hidden=(4,))
    feed(boot, 400, 2, 2, seed=7)
    sizes = [len(m) for m in boot.members]
    for size in sizes:
        assert abs(size - 200) < 3 * np.sqrt(400 * 0.25)
    assert len({tuple(m) for m in boot.members}) == 3  # members differ
    full = BootstrapAgent(2, 2, SMALL, seed=1, q=2, p=1.0, hidden=(4,))
    feed(full, 50, 2, 2, seed=8)
    assert all(len(m) == 50 for m in full.members)
    with pytest.raises(ValueError):
        BootstrapAgent(2, 2, SMALL, seed=1, q=0)
    with pytest.raises(ValueError):
        BootstrapAgent(2, 2, SMALL, seed=1, p=0.0)


def test_bootstrap_member_choice_uses_rng():
    boot = BootstrapAgent(2, 3, SMALL, seed=2, q=4, hidden=(4,))
    feed(boot, 30, 2, 3, seed=9)
    boot.maybe_train(0)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state["state"]["state"]
    boot.choose(np.zeros(2), rng)
    assert rng.bit_generator.state["state"]["state"] != before


def test_param_noise_uses_layer_norm_and_adapts_both_ways():
    agent = ParameterNoiseAgent(
        2, 3, SMALL, seed=3, horizon=1000, sigma_init=0.01, target_eps=0.5, hidden=(6,)
    )
    assert agent.core.net.layer_norm
    feed(agent, 40, 2, 3, seed=10)
    assert agent._target() == pytest.approx(0.5 * (1 - 40 / 1000))
    agent.sigma = 1e-12
    agent._adapt()
    assert agent.sigma == pytest.approx(1e-12 * 1.01)
    agent.sigma = 50.0
    agent._adapt()
    assert agent.sigma == pytest.approx(50.0 / 1.01)
    # past the horizon the target hits zero, so sigma can only shrink
    agent.steps_seen = 2000
    assert agent._target() == 0.0
    agent.sigma = 1e-12
    agent._adapt()
    assert agent.sigma == pytest.approx(1e-12 / 1.01)


def test_param_noise_validation():
    with pytest.raises(ValueError):
        ParameterNoiseAgent(2, 2, SMALL, seed=0, horizon=100, sigma_init=0.0)
    with pytest.raises(ValueError):
        ParameterNoiseAgent(2, 2, SMALL, seed=0, horizon=0)


def test_neural_linear_head_dimensions_and_online_updates():
    agent = NeuralLinearAgent(3, 2, SMALL, seed=4, hidden=(8, 4))
    assert agent.feature_dim == 5
    assert agent.heads.dim == 5 and agent.heads.mean.shape == (2, 5)
    plain = NeuralLinearAgent(3, 2, SMALL, seed=4, hidden=(8, 4), bias_feature=False)
    assert plain.feature_dim == 4
    agent.observe(Observation(context=np.ones(3), action=1, reward=2.0))
    assert agent.heads.count.tolist() == [0, 1]
    z = agent._featurize(np.ones((1, 3)))
    assert z.shape == (1, 5)
    assert z[0, -1] == 1.0


def test_neural_linear_refresh_rebuilds_heads_from_new_features():
    agent = NeuralLinearAgent(3, 2, SMALL, seed=5, hidden=(6,))
    feed(agent, 30, 3, 2, seed=11)
    old_heads = agent.heads
    old_means = agent.heads.mean.copy()
    agent.maybe_train(0)
    assert agent.heads is not old_heads
    assert agent.heads.count.tolist() == [
        len(agent.buffer.action_indices(0)),
        len(agent.buffer.action_indices(1)),
    ]
    assert any(not np.allclose(m, h) for m, h in zip(old_means, agent.heads.mean))
    a = agent.choose(np.ones(3), np.random.default_rng(0))
    assert a in (0, 1)


def test_preset_registry_contents():
    names = {name for name, _ in list_presets()}
    assert names == set(PRESETS)
    expected = {
        "Uniform", "LinGreedy", "LinGreedy(eps=0.01)", "LinGreedy(eps=0.05)",
        "LinPost", "LinDiagPost", "LinDiagPrecPost",
        "LinFullPost", "LinFullDiagPost", "LinFullDiagPrecPost",
        "RMS1", "RMS2", "RMS3", "RMS", "EpsGreedyRMS",
        "Dropout", "BootstrappedNN", "ParamNoise", "NeuralLinear",
        "SGFS", "ConstSGD", "BBB",
    }
    assert names == expected
    with pytest.raises(KeyError):
        get_preset("LinSuperPost")


def test_every_preset_builds_an_agent():
    for name, _ in list_presets():
        agent = get_preset(name).make(dim=3, num_actions=2, horizon=50, seed=0)
        assert agent.name == name
        assert agent.choose(np.zeros(3), np.random.default_rng(0)) in (0, 1)


def test_preset_overrides_apply_and_unknowns_rejected():
    lg = get_preset("LinGreedy").make(2, 2, 50, 0, {"epsilon": 0.1})
    assert lg.epsilon == 0.1
    with pytest.raises(ValueError):
        get_preset("LinGreedy").make(2, 2, 50, 0, {"wat": 1})
    with pytest.raises(ValueError):
        get_preset("LinPost").make(2, 2, 50, 0, {"lambda": 0.5, "ridge": 0.5})
    nl = get_preset("NeuralLinear").make(2, 2, 50, 0, {"lambda": 0.5, "a0": 4.0})
    assert nl._prior == (0.5, 4.0, 3.0)


def test_rms_preset_schedules():
    rms1 = get_preset("RMS1").make(2, 2, 50, 0)
    assert rms1.core.schedule.reset_policy == "fixed"
    assert rms1.core.schedule.lr_init == 0.01
    rms2 = get_preset("RMS2").make(2, 2, 50, 0)
    assert rms2.core.schedule.reset_policy == "reset-each-period"
    assert rms2.core.schedule.lr_decay == 0.55
    rms = get_preset("RMS").make(2, 2, 50, 0)
    assert rms.core.schedule.reset_policy == "decay-across-periods"
    assert rms.core.schedule.lr_init == 1.0
    assert rms.core.schedule.batches_per_period == 100
    eps = get_preset("EpsGreedyRMS").make(2, 2, 50, 0)
    assert eps.epsilon == 0.01 and eps.epsilon_decay == 0.999


def test_neural_agent_completes_a_trial():
    env = SampledLinearBandit(LinearConfig(dim=3, num_actions=3, horizon=120), seed=0)
    agent = NeuralGreedyAgent(
        3, 3, TrainingSchedule(train_every=20, batches_per_period=3, batch_size=16),
        seed=0, hidden=(8,),
    )
    trace = run_trial(env, agent, seed=0)
    assert len(trace) == 120
    assert np.isfinite(cumulative_regret(trace))
