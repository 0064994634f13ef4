"""Neural agents: determinism, exploration mechanics, and the preset registry."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from banditbench import (
    BayesByBackpropAgent,
    BootstrapAgent,
    ConstantFeatureEnv,
    ContractViolation,
    LinearConfig,
    NeuralGreedyAgent,
    NeuralLinearAgent,
    Observation,
    ParameterNoiseAgent,
    PRESETS,
    SGFSAgent,
    SampledLinearBandit,
    TrainingSchedule,
    WheelBandit,
    WheelConfig,
    cumulative_regret,
    get_preset,
    list_presets,
    run_trial,
)
from banditbench import neural
from banditbench.core import HistoryBuffer
from banditbench.mlp import mlp_predict
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


ONE_BATCH = TrainingSchedule(train_every=1, batches_per_period=1, batch_size=16)


@pytest.mark.parametrize("kind", ["plain", "dropout", "layer-norm", "SGFS", "BBB"])
def test_a_shared_workspace_carries_nothing_from_one_net_to_the_next(kind):
    def make(seed):
        if kind == "SGFS":
            return SGFSAgent(3, 2, ONE_BATCH, seed, burn_in=2, hidden=(8, 8))
        if kind == "BBB":
            return BayesByBackpropAgent(3, 2, ONE_BATCH, seed, hidden=(8, 8))
        return TrainableNet(3, 2, ONE_BATCH, seed, (8, 8), layer_norm=kind == "layer-norm",
                            p_keep=0.7 if kind == "dropout" else None)

    alone, paired = make(5), make(5)
    # a net of the same shape, with dropout unless the net under test uses it
    other = TrainableNet(3, 2, ONE_BATCH, 6, (8, 8), layer_norm=kind == "layer-norm",
                         p_keep=None if kind == "dropout" else 0.5)
    assert alone.workspace is paired.workspace is other.workspace
    rng = np.random.default_rng(7)
    X, A, R = rng.standard_normal((40, 3)), rng.integers(0, 2, 40), rng.standard_normal(40)
    for _ in range(6):
        alone.train_period(X, A, R)
    for _ in range(6):  # a period is one batch: the two nets take turns
        paired.train_period(X, A, R)
        other.train_period(X, A, R)
    assert alone.net.flat.dtype == np.float32
    assert alone.net.flat.tobytes() == paired.net.flat.tobytes()
    assert alone.net.flat.tobytes() != make(5).net.flat.tobytes()


@pytest.mark.parametrize("agent", [NeuralLinearAgent, SGFSAgent])
def test_a_second_training_period_allocates_less_than_one_activation(agent):
    # the wheel's nets: 3 -> 100 -> 100 -> 5 in float32 on 512-row batches,
    # where one hidden activation is 512 * 100 * 4 bytes
    net = agent(3, 5, TrainingSchedule(batches_per_period=3, batch_size=512), seed=0)
    assert net.net.sizes == (3, 100, 100, 5) and net.net.flat.dtype == np.float32
    rng = np.random.default_rng(0)
    X, A, R = rng.standard_normal((600, 3)), rng.integers(0, 5, 600), rng.standard_normal(600)
    net.train_period(X, A, R)  # builds the workspace and the optimizer state
    tracemalloc.start()
    try:
        net.train_period(X, A, R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.batches_run == 6
    assert peak < 512 * 100 * 4


def test_training_fires_on_schedule_only():
    agent = NeuralGreedyAgent(2, 2, SMALL, seed=0, hidden=(4,))
    feed(agent, 1, 2, 2, seed=1)
    for step, periods in [(-10, 0), (0, 1), (3, 1), (10, 2), (11, 2), (20, 3)]:
        agent.maybe_train(step)
        assert agent.period == periods


def test_dropout_keep_one_matches_greedy_stream():
    greedy = NeuralGreedyAgent(3, 4, SMALL, seed=11, hidden=(6,))
    drop = NeuralGreedyAgent(3, 4, SMALL, seed=11, p_keep=1.0, hidden=(6,))
    a1 = drive(greedy, 50, 3, 4, data_seed=2, rng_seed=3)
    a2 = drive(drop, 50, 3, 4, data_seed=2, rng_seed=3)
    assert a1 == a2


def test_dropout_below_one_diverges_and_uses_decision_noise():
    drop = NeuralGreedyAgent(3, 4, SMALL, seed=11, p_keep=0.5, hidden=(6,))
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


class ReferenceBootstrap:
    """The bootstrap written as one shared buffer and per-member row lists:
    each net trains on its rows of the buffer, all on the first net's
    schedule, and a member with no rows skips the period."""

    def __init__(self, dim, k, schedule, seed, q, p, hidden):
        children = np.random.SeedSequence(seed).spawn(q + 1)
        self.nets = [TrainableNet(dim, k, schedule, child, hidden) for child in children[:q]]
        (include,) = children[q].spawn(1)
        self.include_rng = np.random.default_rng(include)
        self.buffer = HistoryBuffer(dim, k)
        self.rows = [[] for _ in range(q)]
        self.q, self.p = q, p

    def choose(self, context, rng):
        j = int(rng.integers(self.q)) if self.q > 1 else 0
        return int(np.argmax(mlp_predict(self.nets[j].net, context)[0]))

    def observe(self, obs):
        i = self.buffer.append(obs)
        for rows in self.rows:
            if self.p >= 1.0 or self.include_rng.random() < self.p:
                rows.append(i)

    def maybe_train(self, step):
        if not self.nets[0].schedule.due(step, len(self.buffer)):
            return
        for net, rows in zip(self.nets, self.rows):
            if rows:
                idx = np.asarray(rows, dtype=np.int64)
                net.train_period(self.buffer.contexts[idx], self.buffer.actions[idx],
                                 self.buffer.rewards[idx])


def test_bootstrap_matches_the_shared_buffer_reference_bitwise():
    # p = 0.5 gives each member its own rows; the wheel presets run p = 1
    dim, k, q, p, hidden = 3, 4, 3, 0.5, (6,)
    boot = BootstrapAgent(dim, k, SMALL, seed=17, q=q, p=p, hidden=hidden)
    ref = ReferenceBootstrap(dim, k, SMALL, 17, q, p, hidden)
    assert drive(boot, 60, dim, k, data_seed=8, rng_seed=9) == drive(ref, 60, dim, k, 8, 9)
    assert len({len(member.buffer) for member in boot.members}) > 1
    for member, net, rows in zip(boot.members, ref.nets, ref.rows, strict=True):
        assert member.period == net.period >= 5  # a member may have no row at step 0
        np.testing.assert_array_equal(member.buffer.contexts, ref.buffer.contexts[rows])
        assert member.net.flat.dtype == net.net.flat.dtype == np.float32
        np.testing.assert_array_equal(member.net.flat, net.net.flat)


@pytest.mark.parametrize("name", [*PRESETS, "bootstrap(q=1, p=0.5)"])
def test_no_two_streams_of_a_trial_share_a_seed(name, monkeypatch):
    # every generator built while the environment and the agent are made and
    # a trial runs (step 0 is warm-up, so nothing trains) names its node
    built, original = [], np.random.default_rng

    def recording(seed=None):
        node = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        built.append((node.entropy, node.spawn_key))
        return original(node)

    monkeypatch.setattr(np.random, "default_rng", recording)
    seed = 3
    env = ConstantFeatureEnv(WheelBandit(WheelConfig(delta=0.95, horizon=50), seed))
    if name in PRESETS:
        agent = get_preset(name).make(env.dim, env.num_actions, 50, seed)
    else:
        agent = BootstrapAgent(env.dim, env.num_actions, SMALL, seed, q=1, p=0.5, hidden=(4,))
    run_trial(env, agent, seed, horizon=1)
    assert len(built) >= 3  # the contexts, the reward noise and the decisions
    repeated = sorted({node for node in built if built.count(node) > 1})
    assert repeated == []


def test_bootstrap_rejects_an_out_of_range_action_before_any_draw():
    # with p = 0.05 most rows enter no member, so no member's buffer sees them
    boot = BootstrapAgent(2, 3, SMALL, seed=0, q=2, p=0.05, hidden=(4,))
    state = boot._include_rng.bit_generator.state
    for _ in range(50):
        with pytest.raises(ValueError, match="action 7 out of range"):
            boot.observe(Observation(context=np.zeros(2), action=7, reward=0.0))
    assert boot._include_rng.bit_generator.state == state


def test_bootstrap_inclusion_probability():
    boot = BootstrapAgent(2, 2, SMALL, seed=1, q=3, p=0.5, hidden=(4,))
    feed(boot, 400, 2, 2, seed=7)
    sizes = [len(m.buffer) for m in boot.members]
    for size in sizes:
        assert abs(size - 200) < 3 * np.sqrt(400 * 0.25)
    assert len({tuple(m.buffer.rewards) for m in boot.members}) == 3  # members differ
    full = BootstrapAgent(2, 2, SMALL, seed=1, q=2, p=1.0, hidden=(4,))
    feed(full, 50, 2, 2, seed=8)
    assert all(len(m.buffer) == 50 for m in full.members)
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
    assert agent.net.layer_norm
    feed(agent, 40, 2, 3, seed=10)
    assert agent._target() == pytest.approx(0.5 * (1 - 40 / 1000))
    agent.sigma = 1e-12
    agent._adapt()
    assert agent.sigma == pytest.approx(1e-12 * 1.01)
    agent.sigma = 50.0
    agent._adapt()
    assert agent.sigma == pytest.approx(50.0 / 1.01)
    # past the horizon the target hits zero, so sigma can only shrink
    feed(agent, 2000 - 40, 2, 3, seed=11)
    assert agent._target() == 0.0
    agent.sigma = 1e-12
    agent._adapt()
    assert agent.sigma == pytest.approx(1e-12 / 1.01)


def test_param_noise_validation():
    with pytest.raises(ValueError):
        ParameterNoiseAgent(2, 2, SMALL, seed=0, horizon=100, sigma_init=0.0)
    with pytest.raises(ValueError):
        ParameterNoiseAgent(2, 2, SMALL, seed=0, horizon=0)
    # a target mismatch rate of 1 or more is never reached: sigma would only grow
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError, match=rf"^target_eps must lie in \[0, 1\), got {bad}$"):
            get_preset("ParamNoise").make(2, 2, 100, 0, {"target_eps": bad})
    assert get_preset("ParamNoise").make(2, 2, 100, 0, {"target_eps": 0.0}).target_eps == 0.0


def test_neural_linear_head_dimensions_and_online_updates():
    agent = NeuralLinearAgent(3, 2, SMALL, seed=4, hidden=(8, 4))
    assert agent.feature_dim == 5
    assert agent.heads.dim == 5 and agent.heads.mean.shape == (2, 5)
    agent.observe(Observation(context=np.ones(3), action=1, reward=2.0))
    assert agent.heads.count.tolist() == [0, 1]
    z = agent._featurize(np.ones((1, 3)))
    assert z.shape == (1, 5)
    assert z[0, -1] == 1.0


def test_neural_linear_without_a_hidden_layer_regresses_on_the_context():
    env = ConstantFeatureEnv(WheelBandit(WheelConfig(delta=0.95, horizon=60), 0))
    agent = NeuralLinearAgent(env.dim, env.num_actions, SMALL, seed=0, hidden=())
    assert agent.feature_dim == agent.heads.dim == env.dim + 1
    trace = run_trial(env, agent, seed=0)
    assert len(trace) == 60 and agent.period > 0
    assert np.isfinite(cumulative_regret(trace))


def test_neural_linear_refresh_rebuilds_heads_from_new_features():
    agent = NeuralLinearAgent(3, 2, SMALL, seed=5, hidden=(6,))
    feed(agent, 30, 3, 2, seed=11)
    old_heads = agent.heads
    old_means = agent.heads.mean.copy()
    agent.maybe_train(0)
    assert agent.heads is not old_heads
    assert agent.heads.count.tolist() == [
        np.count_nonzero(agent.buffer.actions == 0),
        np.count_nonzero(agent.buffer.actions == 1),
    ]
    assert any(not np.allclose(m, h) for m, h in zip(old_means, agent.heads.mean))
    a = agent.choose(np.ones(3), np.random.default_rng(0))
    assert a in (0, 1)


def test_neural_linear_featurizes_each_step_once(monkeypatch):
    calls = []
    original = neural.hidden_features
    monkeypatch.setattr(neural, "hidden_features",
                        lambda net, X: calls.append(np.ndim(X)) or original(net, X))
    horizon = 200
    env = ConstantFeatureEnv(WheelBandit(WheelConfig(delta=0.95, horizon=horizon), 0))
    agent = get_preset("NeuralLinear").make(env.dim, env.num_actions, horizon, 0)
    run_trial(env, agent, seed=0)
    # one single-row pass per step (choose's on a decision, observe's in the
    # warm-up) and one pass over the history per refit
    assert agent.period > 0
    assert calls.count(1) == horizon
    assert calls.count(2) == agent.period


def test_neural_linear_reuses_phi_only_for_the_chosen_context_and_net():
    rng = np.random.default_rng(3)
    reused = NeuralLinearAgent(3, 2, SMALL, seed=4, hidden=(8, 4))
    fresh = NeuralLinearAgent(3, 2, SMALL, seed=4, hidden=(8, 4))
    x, other = rng.standard_normal(3), rng.standard_normal(3)
    reused.choose(x, np.random.default_rng(0))
    for agent in (reused, fresh):
        agent.observe(Observation(context=other, action=1, reward=1.0))
    np.testing.assert_array_equal(reused.heads.bvec, fresh.heads.bvec)
    # nor one it chose on before the net trained and the heads were rebuilt
    feed(reused, 20, 3, 2, seed=5)
    reused.choose(x, np.random.default_rng(0))
    reused.maybe_train(0)
    before = reused.heads.bvec[0].copy()
    reused.observe(Observation(context=x, action=0, reward=1.0))
    np.testing.assert_array_equal(reused.heads.bvec[0],
                                  before + reused._featurize(x)[0].astype(np.float64))


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


@pytest.mark.parametrize("name", [name for name in PRESETS if name != "Uniform"])
def test_choose_is_the_argmax_of_one_draw_of_sample_scores(name):
    horizon = 60
    env = ConstantFeatureEnv(WheelBandit(WheelConfig(delta=0.95, horizon=horizon), 0))
    preset = get_preset(name)
    # small batches and no long BBB ramp keep the trial short
    small = {k: v for k, v in {"batch_size": 16, "ramp_initial": 20}.items()
             if k in preset.params}
    agent = preset.make(env.dim, env.num_actions, horizon, 0, small)
    run_trial(env, agent, seed=0)
    agent.epsilon = 0.0
    x = env.context_at(horizon - 1)
    for s in range(5):
        scores = agent.sample_scores(x, np.random.default_rng(s))
        assert scores.shape == (env.num_actions,)
        assert agent.choose(x, np.random.default_rng(s)) == int(np.argmax(scores))


def test_preset_overrides_apply_and_unknowns_rejected():
    lg = get_preset("LinGreedy").make(2, 2, 50, 0, {"epsilon": 0.1})
    assert lg.epsilon == 0.1
    with pytest.raises(ValueError):
        get_preset("LinGreedy").make(2, 2, 50, 0, {"wat": 1})
    with pytest.raises(ValueError):
        get_preset("LinPost").make(2, 2, 50, 0, {"lambda": 0.5, "ridge": 0.5})
    nl = get_preset("NeuralLinear").make(2, 2, 50, 0, {"lambda": 0.5, "a0": 4.0})
    assert nl._prior == (0.5, 4.0, 3.0)


# where an agent keeps a key's value under another name
_HELD_AS = {"lambda": "ridge", "sigma_init": "sigma", "ema_decay": "decay"}


def held_value(agent, key):
    """The value of a preset key as the built agent holds it."""
    trainer = agent.members[0] if isinstance(agent, BootstrapAgent) else agent
    holders = [agent, trainer, getattr(trainer, "schedule", None)]
    holders += [getattr(agent, part, None) for part in ("posterior", "heads", "cfg", "ema")]
    name = _HELD_AS.get(key, key)
    for holder in holders:
        if holder is not None and hasattr(holder, name):
            return getattr(holder, name)
    raise AssertionError(f"{agent.name} holds no {name!r}")


def other_value(default):
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    return default / 2 if default else 0.5


@pytest.mark.parametrize("name, key", [
    (name, key) for name, preset in PRESETS.items() for key in preset.params
])
def test_every_declared_key_builds(name, key):
    preset = get_preset(name)
    value = other_value(preset.defaults["ridge" if key == "lambda" else key])
    agent = preset.make(3, 2, 50, 0, {key: value})
    assert held_value(agent, key) == value


_SCHEDULE_KEYS = {f.name for f in fields(TrainingSchedule)}


def schedule_answers(agent):
    """What the agent's schedule tells its net: when periods fire, how many
    batches each runs, at what rates, on what batch size."""
    schedule = (agent.members[0] if isinstance(agent, BootstrapAgent) else agent).schedule
    return (
        [schedule.due(step, 1) for step in range(200)],
        [schedule.batches(period) for period in range(200)],
        [schedule.learning_rate(period, j) for period in range(5) for j in range(5)],
        schedule.batch_size,
    )


@pytest.mark.parametrize("name, key", [
    (name, key) for name, preset in PRESETS.items() for key in preset.params
    if key in _SCHEDULE_KEYS
])
def test_every_schedule_key_acts(name, key):
    # a key the schedule holds but never reads would pass test_every_declared_key_builds
    preset = get_preset(name)
    changed = preset.make(3, 2, 50, 0, {key: other_value(preset.defaults[key])})
    assert schedule_answers(changed) != schedule_answers(preset.make(3, 2, 50, 0))


def test_rms1_lr_decay_decays_and_its_default_rate_is_fixed():
    rates = {}
    for decay in (None, 0.5):
        overrides = {"train_every": 5, "batches_per_period": 2, "batch_size": 8}
        if decay is not None:
            overrides["lr_decay"] = decay
        agent = get_preset("RMS1").make(3, 2, 50, 0, overrides)
        seen, step = [], agent.opt.step
        agent.opt.step = lambda params, grads, lr: (seen.append(lr), step(params, grads, lr))
        feed(agent, 12, 3, 2, seed=1)
        for s in (0, 5, 10):
            agent.maybe_train(s)
        rates[decay] = seen
    assert rates[None] == [0.01] * 6
    assert rates[0.5] == [0.01 / (1.0 + 0.5 * p) for p in (0, 0, 1, 1, 2, 2)]


def test_rms_preset_schedules():
    rms1 = get_preset("RMS1").make(2, 2, 50, 0)
    assert rms1.schedule.reset_policy == "decay-across-periods"
    assert (rms1.schedule.lr_init, rms1.schedule.lr_decay) == (0.01, 0.0)
    rms2 = get_preset("RMS2").make(2, 2, 50, 0)
    assert rms2.schedule.reset_policy == "reset-each-period"
    assert rms2.schedule.lr_decay == 0.55
    rms = get_preset("RMS").make(2, 2, 50, 0)
    assert rms.schedule.reset_policy == "decay-across-periods"
    assert rms.schedule.lr_init == 1.0
    assert rms.schedule.batches_per_period == 100
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


TRAINABLE = ["RMS1", "RMS2", "RMS3", "RMS", "EpsGreedyRMS", "Dropout", "BootstrappedNN",
             "ParamNoise", "NeuralLinear", "SGFS", "ConstSGD", "BBB"]


@pytest.mark.parametrize("name", TRAINABLE)
def test_every_trainable_preset_trains_in_float32(name, monkeypatch):
    overrides = {"train_every": 5, "batches_per_period": 2, "batch_size": 8}
    if name in ("SGFS", "ConstSGD"):
        overrides["burn_in"] = 0  # so the period injects noise
    if name == "BBB":
        overrides["ramp_initial"] = 2
    agent = get_preset(name).make(3, 2, 50, 0, overrides)
    nets = agent.members if isinstance(agent, BootstrapAgent) else [agent]
    grads = []
    for net in nets:
        def recorded(*args, inner=net._loss_and_grads):
            loss, g = inner(*args)
            grads.append(g)
            return loss, g
        monkeypatch.setattr(net, "_loss_and_grads", recorded)
    feed(agent, 12, 3, 2, seed=1)
    agent.maybe_train(0)
    arrays = list(grads)
    for net in nets:
        assert net.period == 1
        # optimizer state: the chains' Fisher EMA, else RMSProp (BBB's rho is a parameter)
        state = net.ema.diag if hasattr(net, "ema") else net.opt.acc
        arrays += [net.net.flat, state]
    # one gradient vector per batch, laid out as the net's parameters
    assert len(grads) == 2 * len(nets)
    assert {g.shape for g in grads} == {nets[0].net.flat.shape}
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    if name == "NeuralLinear":
        assert agent.heads.precision.dtype == agent.heads.mean.dtype == np.float64
    assert agent.choose(np.ones(3), np.random.default_rng(0)) in (0, 1)


def test_non_finite_scores_raise_naming_the_agent():
    agent = get_preset("RMS").make(3, 2, 50, 0)
    agent.net.biases[-1][1] = np.nan
    with pytest.raises(ContractViolation, match=r"^agent 'RMS' produced non-finite scores"):
        agent.choose(np.ones(3), np.random.default_rng(0))
    env = SampledLinearBandit(LinearConfig(dim=3, num_actions=2, horizon=10), seed=0)
    with pytest.raises(ContractViolation, match=r"non-finite scores .* at step 6$"):
        run_trial(env, agent, seed=0)  # the first choice follows 6 warmup steps

    noisy = ParameterNoiseAgent(3, 2, SMALL, seed=0, horizon=50, hidden=(6,))
    feed(noisy, 5, 3, 2, seed=2)
    noisy.net.biases[-1][0] = np.inf
    with pytest.raises(ContractViolation, match=r"^agent 'ParamNoise'"):
        noisy._adapt()
