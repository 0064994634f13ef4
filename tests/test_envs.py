"""Environment behavior: wheel geometry, linear models, dataset loading."""

import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditbench import (
    ConstantFeatureEnv,
    DatasetBandit,
    DatasetSpec,
    LinearConfig,
    SampledLinearBandit,
    UniformAgent,
    WheelBandit,
    WheelConfig,
    dataset_load,
    jester_env,
    mushroom_env,
    run_trial,
)
from banditbench import envs
from banditbench.core import rng_at
from banditbench.envs import RULE_NEEDS, wheel_quadrant_actions


def test_wheel_config_validation():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            WheelConfig(delta=bad)
    with pytest.raises(ValueError):
        WheelConfig(delta=0.5, horizon=0)
    with pytest.raises(ValueError):
        WheelConfig(delta=0.5, noise_sigma=-1.0)


def test_wheel_contexts_fill_the_unit_disk():
    env = WheelBandit(WheelConfig(delta=0.5, horizon=4000), seed=0)
    radii = np.hypot(env.contexts[:, 0], env.contexts[:, 1])
    assert np.all(radii <= 1.0)
    assert radii.max() > 0.99     # uniform-area law reaches the rim
    assert np.mean(radii <= 0.5) == pytest.approx(0.25, abs=0.03)


def test_wheel_quadrant_assignment():
    rows = np.array([
        [0.3, 0.4], [0.3, -0.4], [-0.3, -0.4], [-0.3, 0.4],
        # zero coordinates count as positive
        [0.0, 0.0], [0.0, -1.0], [-1.0, 0.0],
    ])
    np.testing.assert_array_equal(wheel_quadrant_actions(rows), [1, 2, 3, 4, 1, 2, 4])


def test_wheel_reward_table():
    env = WheelBandit(WheelConfig(delta=0.6, horizon=500), seed=3)
    assert env.expected.shape == (500, 5)
    inside, outside = env.expected[env._inside], env.expected[~env._inside]
    assert len(inside) and len(outside)
    np.testing.assert_array_equal(inside, np.tile([1.2, 1.0, 1.0, 1.0, 1.0], (len(inside), 1)))
    # outside, only the action of the context's quadrant pays 50
    hot = wheel_quadrant_actions(env.contexts[~env._inside])
    want = np.tile([1.2, 1.0, 1.0, 1.0, 1.0], (len(outside), 1))
    want[np.arange(len(outside)), hot] = 50.0
    np.testing.assert_array_equal(outside, want)
    t_in, t_out = int(np.argmax(env._inside)), int(np.argmax(~env._inside))
    assert env.expected_reward(t_in, 0) == 1.2
    assert env.optimal_expected_reward(t_in) == 1.2
    assert env.expected_reward(t_out, int(hot[0])) == 50.0
    assert env.optimal_expected_reward(t_out) == 50.0


def test_wheel_regret_is_never_negative_when_the_inner_reward_is_best():
    # inner_reward 60 beats outer_reward 50: outside the radius the four
    # non-safe actions pay 60 but the quadrant's, so the best reward is 60
    env = WheelBandit(WheelConfig(delta=0.5, horizon=300, inner_reward=60.0), seed=0)
    np.testing.assert_array_equal(
        [env.optimal_expected_reward(t) for t in range(300)], np.full(300, 60.0)
    )
    trace = run_trial(env, UniformAgent(5), seed=0)
    assert trace.instantaneous_regret().min() >= 0.0


def test_wheel_noise_statistics():
    env = WheelBandit(WheelConfig(delta=0.5, horizon=10), seed=1)
    rng = np.random.default_rng(9)
    noise = np.array(
        [env.realize_reward(0, 2, rng) - env.expected_reward(0, 2) for _ in range(4000)]
    )
    assert abs(noise.mean()) < 3 * 0.01 / np.sqrt(4000)
    assert noise.std() == pytest.approx(0.01, rel=0.1)


def test_wheel_inside_frequency_tracks_delta_squared():
    delta = 0.8
    env = WheelBandit(WheelConfig(delta=delta, horizon=20000), seed=5)
    freq = env._inside.mean()
    sigma = np.sqrt(delta**2 * (1 - delta**2) / 20000)
    assert abs(freq - delta**2) < 3 * sigma


def test_wheel_same_seed_same_contexts():
    a = WheelBandit(WheelConfig(delta=0.5, horizon=100), seed=11)
    b = WheelBandit(WheelConfig(delta=0.5, horizon=100), seed=11)
    c = WheelBandit(WheelConfig(delta=0.5, horizon=100), seed=12)
    np.testing.assert_array_equal(a.contexts, b.contexts)
    np.testing.assert_array_equal(a.expected, b.expected)
    assert not np.array_equal(a.contexts, c.contexts)


def test_linear_env_expected_and_optimal():
    cfg = LinearConfig(dim=4, num_actions=3, horizon=50, noise_sigma=0.0)
    env = SampledLinearBandit(cfg, seed=2)
    for t in (0, 17, 49):
        x = env.context_at(t)
        scores = [x @ beta for beta in env.betas]
        for a in range(3):
            assert env.expected_reward(t, a) == pytest.approx(scores[a])
        assert env.optimal_expected_reward(t) == pytest.approx(max(scores))
        rng = np.random.default_rng(0)
        assert env.realize_reward(t, 1, rng) == pytest.approx(scores[1])


def test_linear_env_per_action_noise_vector():
    cfg = LinearConfig(dim=2, num_actions=3, horizon=10, noise_sigma=(0.0, 1.0, 2.0))
    np.testing.assert_array_equal(cfg.noise_vector(), [0.0, 1.0, 2.0])
    scalar = LinearConfig(dim=2, num_actions=3, horizon=10, noise_sigma=0.5)
    np.testing.assert_array_equal(scalar.noise_vector(), [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        LinearConfig(dim=2, num_actions=3, horizon=10, noise_sigma=-1.0).noise_vector()
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        LinearConfig(dim=2, num_actions=3, horizon=10, noise_sigma=(0.5, float("inf"), 0.5))
    with pytest.raises(ValueError):
        LinearConfig(dim=0, num_actions=3, horizon=10)


def test_linear_env_context_mean_shift():
    shifted = SampledLinearBandit(
        LinearConfig(dim=6, num_actions=2, horizon=5000, context_mean=2.0), seed=4
    )
    assert shifted.contexts.mean() == pytest.approx(2.0, abs=0.05)
    centered = SampledLinearBandit(
        LinearConfig(dim=6, num_actions=2, horizon=5000), seed=4
    )
    assert centered.contexts.mean() == pytest.approx(0.0, abs=0.05)


def test_constant_feature_wrapper():
    inner = WheelBandit(WheelConfig(delta=0.5, horizon=20), seed=0)
    env = ConstantFeatureEnv(inner)
    assert env.dim == 3
    assert env.num_actions == 5
    assert env.horizon == 20
    assert env.name.endswith("+const")
    np.testing.assert_array_equal(env.contexts[:, :2], inner.contexts)
    np.testing.assert_array_equal(env.contexts[:, 2], np.ones(20))
    np.testing.assert_array_equal(env.context_at(7), [*inner.context_at(7), 1.0])
    assert env.expected is inner.expected  # shared, not copied
    assert env.expected_reward(7, 3) == inner.expected_reward(7, 3)
    assert env.optimal_expected_reward(7) == inner.optimal_expected_reward(7)
    r1 = env.realize_reward(7, 3, np.random.default_rng(1))
    r2 = inner.realize_reward(7, 3, np.random.default_rng(1))
    assert r1 == r2


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_classification_rule_and_one_hot_order(tmp_path):
    path = write(
        tmp_path / "c.csv",
        "x,color,label\n"
        "1.0,red,cat\n"
        "2.0,blue,dog\n"
        "3.0,red,cat\n"
        "4.0,green,bird\n",
    )
    env = dataset_load(
        DatasetSpec(
            path=path,
            reward_rule="classification",
            label_column="label",
            numeric_columns=("x",),
            categorical_columns=("color",),
        )
    )
    assert env.dim == 4          # x + one-hot(red, blue, green)
    assert env.num_actions == 3  # cat, dog, bird in first-appearance order
    np.testing.assert_array_equal(env.context_at(0), [1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(env.context_at(1), [2.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(env.context_at(3), [4.0, 0.0, 0.0, 1.0])
    assert env.expected_reward(0, 0) == 1.0 and env.expected_reward(0, 1) == 0.0
    assert env.expected_reward(1, 1) == 1.0
    assert env.expected_reward(3, 2) == 1.0


def test_classification_num_actions_must_cover_labels(tmp_path):
    path = write(tmp_path / "c.csv", "label\na\nb\nc\n")
    with pytest.raises(ValueError):
        dataset_load(
            DatasetSpec(
                path=path,
                reward_rule="classification",
                label_column="label",
                categorical_columns=(),
                num_actions=2,
            )
        )


def test_mushroom_rule_rewards_and_realizations(tmp_path):
    path = write(
        tmp_path / "m.csv",
        "e,x,y\n"
        "p,z,y\n"
        "e,x,w\n",
    )
    env = mushroom_env(path, header=False)
    assert env.num_actions == 2
    # abstain always 0; edible eat +5; poisonous eat expected -15
    assert env.expected_reward(0, 1) == 0.0
    assert env.expected_reward(0, 0) == 5.0
    assert env.expected_reward(1, 0) == -15.0
    assert env.expected_reward(2, 0) == 5.0
    rng = np.random.default_rng(0)
    draws = np.array([env.realize_reward(1, 0, rng) for _ in range(4000)])
    assert set(np.unique(draws)) == {-35.0, 5.0}
    assert abs(draws.mean() + 15.0) < 3 * 20.0 / np.sqrt(4000)
    # edible rows and abstentions realize deterministically
    assert env.realize_reward(0, 0, rng) == 5.0
    assert env.realize_reward(1, 1, rng) == 0.0


def test_mushroom_rule_needs_binary_labels(tmp_path):
    path = write(tmp_path / "m.csv", "e,x\np,x\nq,x\n")
    with pytest.raises(ValueError):
        mushroom_env(path, header=False)


def test_direct_columns_via_jester_layout(tmp_path):
    path = write(
        tmp_path / "j.csv",
        "0.1,0.2,3.0,4.0\n"
        "0.3,0.4,5.0,6.0\n",
    )
    env = jester_env(path, context_columns=2, arm_columns=2)
    assert env.dim == 2 and env.num_actions == 2
    np.testing.assert_array_equal(env.context_at(0), [0.1, 0.2])
    assert env.expected_reward(0, 0) == 3.0
    assert env.expected_reward(1, 1) == 6.0
    rng = np.random.default_rng(0)
    assert env.realize_reward(1, 0, rng) == 5.0


def test_direct_columns_requires_reward_columns(tmp_path):
    path = write(tmp_path / "j.csv", "1.0,2.0\n")
    with pytest.raises(ValueError):
        dataset_load(
            DatasetSpec(
                path=path,
                reward_rule="direct_columns",
                header=False,
                numeric_columns=(0, 1),
                categorical_columns=(),
            )
        )


def test_song_gaussian_rule(tmp_path):
    path = write(tmp_path / "s.csv", "f,bucket\n0.5,0\n0.1,2\n")
    env = dataset_load(
        DatasetSpec(
            path=path,
            reward_rule="song_gaussian",
            label_column="bucket",
            numeric_columns=("f",),
            categorical_columns=(),
            num_actions=3,
        )
    )
    np.testing.assert_allclose(
        [env.expected_reward(0, a) for a in range(3)],
        [1.0, np.exp(-0.5), np.exp(-2.0)],
    )
    np.testing.assert_allclose(
        [env.expected_reward(1, a) for a in range(3)],
        [np.exp(-2.0), np.exp(-0.5), 1.0],
    )
    bad = write(tmp_path / "s2.csv", "f,bucket\n0.5,7\n")
    with pytest.raises(ValueError):
        dataset_load(
            DatasetSpec(
                path=bad,
                reward_rule="song_gaussian",
                label_column="bucket",
                numeric_columns=("f",),
                categorical_columns=(),
                num_actions=3,
            )
        )


def test_financial_synthetic_rule_is_seeded_linear(tmp_path):
    path = write(tmp_path / "f.csv", "1.0,2.0\n3.0,4.0\n")
    spec = DatasetSpec(
        path=path,
        reward_rule="financial_synthetic",
        header=False,
        numeric_columns=(0, 1),
        categorical_columns=(),
        num_actions=4,
        seed=123,
    )
    env = dataset_load(spec)
    M = np.random.default_rng(123).standard_normal((4, 2)) / np.sqrt(2)
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    expect = X @ M.T
    for t in range(2):
        for a in range(4):
            assert env.expected_reward(t, a) == pytest.approx(expect[t, a])
    again = dataset_load(spec)
    assert again.expected_reward(0, 0) == env.expected_reward(0, 0)


def test_missing_tokens_drop_rows(tmp_path):
    path = write(
        tmp_path / "d.csv",
        "x,label\n1.0,a\n?,b\n2.0,\n3.0,b\nNA,a\n",
    )
    env = dataset_load(
        DatasetSpec(
            path=path,
            reward_rule="classification",
            label_column="label",
            numeric_columns=("x",),
            categorical_columns=(),
        )
    )
    assert len(env.contexts) == 2
    assert env.dropped_rows == 3
    np.testing.assert_array_equal(env.contexts[:, 0], [1.0, 3.0])


def test_ragged_rows_rejected(tmp_path):
    path = write(tmp_path / "r.csv", "1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        dataset_load(
            DatasetSpec(
                path=path,
                reward_rule="financial_synthetic",
                header=False,
                numeric_columns=(0, 1),
                categorical_columns=(),
                num_actions=2,
            )
        )


def test_quoted_cell_keeps_its_delimiter(tmp_path):
    path = write(
        tmp_path / "q.csv",
        'x,label\n1.0,"cat,black"\n\n  \r\n2.0, "dog"\n3.0,"cat,black"\n',
    )
    env = dataset_load(
        DatasetSpec(
            path=path,
            reward_rule="classification",
            label_column="label",
            numeric_columns=("x",),
            categorical_columns=(),
        )
    )
    assert env.num_actions == 2  # "cat,black" and "dog"
    np.testing.assert_array_equal(env.contexts[:, 0], [1.0, 2.0, 3.0])
    assert [env.expected_reward(t, 0) for t in range(3)] == [1.0, 0.0, 1.0]


def test_unknown_column_name_rejected(tmp_path):
    path = write(tmp_path / "u.csv", "x,label\n1.0,a\n")
    with pytest.raises(ValueError, match="numeric"):
        dataset_load(
            DatasetSpec(
                path=path,
                reward_rule="classification",
                label_column="label",
                numeric_columns=("y",),
                categorical_columns=(),
            )
        )


def test_shuffle_is_deterministic_and_seed_sensitive(tmp_path):
    rows = "\n".join(f"{i}.0,{i % 2}" for i in range(30))
    path = write(tmp_path / "p.csv", rows + "\n")
    env = dataset_load(
        DatasetSpec(
            path=path,
            reward_rule="song_gaussian",
            header=False,
            label_column=1,
            numeric_columns=(0,),
            categorical_columns=(),
            num_actions=2,
        )
    )
    s1 = env.shuffled(7)
    s2 = env.shuffled(7)
    s3 = env.shuffled(8)
    np.testing.assert_array_equal(s1.contexts, s2.contexts)
    assert not np.array_equal(s1.contexts, s3.contexts)
    assert sorted(s1.contexts[:, 0]) == sorted(env.contexts[:, 0])
    # rewards travel with their contexts
    i = int(np.argmax(s1.contexts[:, 0] == 4.0))
    assert s1.expected_reward(i, 0) == env.expected_reward(4, 0)


def test_horizon_clamp(tmp_path):
    path = write(tmp_path / "h.csv", "1.0,0\n2.0,1\n3.0,0\n")
    spec = DatasetSpec(
        path=path,
        reward_rule="song_gaussian",
        header=False,
        label_column=1,
        numeric_columns=(0,),
        categorical_columns=(),
        num_actions=2,
        horizon=2,
    )
    assert dataset_load(spec).horizon == 2
    import dataclasses
    with pytest.raises(ValueError):
        dataset_load(dataclasses.replace(spec, horizon=9))


def test_empty_and_all_missing_files_rejected(tmp_path):
    empty = write(tmp_path / "e.csv", "\n\n")
    with pytest.raises(ValueError):
        dataset_load(
            DatasetSpec(path=empty, reward_rule="classification", header=False,
                        label_column=0, categorical_columns=())
        )
    gone = write(tmp_path / "g.csv", "?,a\n?,b\n")
    with pytest.raises(ValueError):
        dataset_load(
            DatasetSpec(path=gone, reward_rule="classification", header=False,
                        label_column=1, numeric_columns=(0,), categorical_columns=())
        )


def test_unknown_reward_rule_rejected(tmp_path):
    with pytest.raises(ValueError):
        DatasetSpec(path="x.csv", reward_rule="magic")


@pytest.mark.parametrize("delimiter", ["", ";;", '"', "\n"])
def test_delimiter_must_be_one_plain_character(delimiter):
    with pytest.raises(ValueError, match="delimiter"):
        DatasetSpec(path="x.csv", reward_rule="classification", delimiter=delimiter)


def _per_step_digest(env, horizon):
    """sha256 updated once per step with that step's context bytes."""
    digest = hashlib.sha256()
    for t in range(horizon):
        digest.update(np.asarray(env.context_at(t), dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_context_digest_is_one_update_per_step(tmp_path):
    rows = "".join(f"{i}.25,{i % 3},{i % 2}\n" for i in range(40))
    dataset = dataset_load(
        DatasetSpec(
            path=write(tmp_path / "d.csv", rows),
            reward_rule="song_gaussian",
            header=False,
            label_column=2,
            numeric_columns=(0, 1),
            categorical_columns=(),
            num_actions=2,
            horizon=25,
        )
    ).shuffled(5)
    assert dataset.horizon < 40
    envs = [
        ConstantFeatureEnv(WheelBandit(WheelConfig(delta=0.95, horizon=50), seed=1)),
        SampledLinearBandit(LinearConfig(dim=4, num_actions=3, horizon=50), seed=2),
        dataset,
    ]
    for env in envs:
        for horizon in (env.horizon, 7):
            trace = run_trial(env, UniformAgent(env.num_actions), seed=0, horizon=horizon)
            assert trace.context_digest == _per_step_digest(env, horizon)


def reference_dataset_load(spec):
    """The loader as it was written row by row, kept to pin the rebuilt one:
    the header read into a name -> last column dict, each categorical
    column's slots found by a scan of its own, the features filled cell by
    cell, and the classification rewards filled row by row."""
    with open(spec.path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if ln.strip()]
    reader = csv.reader(lines, delimiter=spec.delimiter, skipinitialspace=True)
    rows = [[cell.strip() for cell in row] for row in reader]
    if not rows:
        raise ValueError(f"{spec.path} is empty")
    names = {}
    if spec.header:
        names = {nm: i for i, nm in enumerate(rows[0])}
        rows = rows[1:]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{spec.path}: row {i + 1} has {len(row)} cells, expected {width}")

    def col_index(col, what):
        if isinstance(col, int):
            return col
        if col not in names:
            raise ValueError(f"unknown {what} column {col!r}")
        return names[col]

    def one_hot_order(rows, col):
        order = {}
        for row in rows:
            if row[col] not in order:
                order[row[col]] = len(order)
        return order

    numeric = [col_index(c, "numeric") for c in spec.numeric_columns]
    label = None if spec.label_column is None else col_index(spec.label_column, "label")
    reward_cols = [col_index(c, "reward") for c in spec.reward_columns]
    if spec.categorical_columns is None:
        used = set(numeric) | set(reward_cols) | ({label} if label is not None else set())
        categorical = [i for i in range(width) if i not in used]
    else:
        categorical = [col_index(c, "categorical") for c in spec.categorical_columns]
    watched = set(numeric) | set(categorical) | set(reward_cols)
    if label is not None:
        watched.add(label)
    kept, dropped = [], 0
    for row in rows:
        if any(row[c] in envs.MISSING_TOKENS for c in watched):
            dropped += 1
        else:
            kept.append(row)
    if not kept:
        raise ValueError(f"{spec.path}: no rows left after dropping missing values")

    slots = {c: one_hot_order(kept, c) for c in categorical}
    dim = len(numeric) + sum(len(s) for s in slots.values())
    X = np.zeros((len(kept), dim))
    for i, row in enumerate(kept):
        j = 0
        for c in numeric:
            X[i, j] = float(row[c])
            j += 1
        for c in categorical:
            X[i, j + slots[c][row[c]]] = 1.0
            j += len(slots[c])

    rule = spec.reward_rule
    poisonous = None
    if rule == "classification":
        labels = one_hot_order(kept, label)
        k = spec.num_actions or len(labels)
        if len(labels) > k:
            raise ValueError(f"{len(labels)} labels exceed num_actions={k}")
        R = np.zeros((len(kept), k))
        for i, row in enumerate(kept):
            R[i, labels[row[label]]] = 1.0
    elif rule == "mushroom":
        values = sorted({row[label] for row in kept})
        if len(values) != 2:
            raise ValueError("mushroom rule needs exactly two label values")
        poisonous = np.array([row[label] != values[0] for row in kept])
        R = np.zeros((len(kept), 2))
        R[:, envs.MUSHROOM_EAT] = np.where(
            poisonous, envs.MUSHROOM_POISON_EXPECTED, envs.MUSHROOM_SAFE_REWARD
        )
    elif rule == "direct_columns":
        R = np.array([[float(row[c]) for c in reward_cols] for row in kept])
    elif rule == "song_gaussian":
        k = spec.num_actions
        buckets = np.array([int(float(row[label])) for row in kept])
        if buckets.min() < 0 or buckets.max() >= k:
            raise ValueError("bucket labels must lie in [0, num_actions)")
        arms = np.arange(k)
        R = np.exp(-0.5 * (arms[None, :] - buckets[:, None]) ** 2)
    else:  # financial_synthetic
        M = rng_at(spec.seed).standard_normal((spec.num_actions, dim)) / math.sqrt(dim)
        R = X @ M.T
    if spec.num_actions is not None and spec.num_actions != R.shape[1]:
        raise ValueError(f"num_actions={spec.num_actions}, but reward_rule {rule!r} has "
                         f"{R.shape[1]} arms")
    name = rule if rule != "direct_columns" else "direct"
    return DatasetBandit(
        X, R, name=name, poisonous=poisonous, horizon=spec.horizon, dropped_rows=dropped
    )


NUMBERS = ("0", "1.5", "-0.0", "2", "-3.25", "1e-3", "7.0")
WORDS = ("a", "b", "c,d", "e f")
LABELS = {"classification": WORDS, "mushroom": ("e", "p"), "song_gaussian": ("0", "1", "2.0")}


@st.composite
def dataset_cases(draw):
    """A small file, and a spec over it whose columns each have one role."""
    rule = draw(st.sampled_from(tuple(RULE_NEEDS)))
    kinds = ["num"] * draw(st.integers(0, 3)) + ["cat"] * draw(st.integers(0, 2))
    if rule in LABELS:
        kinds.append("label")
    kinds += ["reward"] * (draw(st.integers(1, 3)) if rule == "direct_columns" else 0)
    kinds += ["cat"] * max(0, 2 - len(kinds))
    kinds = draw(st.permutations(kinds))
    values = {"num": NUMBERS, "cat": WORDS, "label": LABELS.get(rule), "reward": NUMBERS}
    missing = tuple(sorted(envs.MISSING_TOKENS))
    rows = draw(st.lists(
        st.tuples(*[st.sampled_from(values[kind] * 6 + missing) for kind in kinds]),
        min_size=1, max_size=10))
    header = draw(st.booleans())

    def ref(i):  # a header name or an index, at random where there is a header
        return f"h{i}" if header and draw(st.booleans()) else i

    numeric = [i for i, kind in enumerate(kinds) if kind == "num" and draw(st.booleans())]
    free = [i for i, kind in enumerate(kinds) if kind in ("num", "cat") and i not in numeric]
    categorical = tuple(ref(i) for i in free if draw(st.booleans()))
    num_actions = {
        "classification": st.none() | st.integers(1, 5), "mushroom": st.none() | st.just(2),
        "direct_columns": st.none() | st.just(kinds.count("reward")),
        "song_gaussian": st.integers(3, 4), "financial_synthetic": st.integers(1, 3),
    }[rule]
    spec = dict(
        reward_rule=rule, header=header,
        label_column=ref(kinds.index("label")) if "label" in kinds else None,
        numeric_columns=tuple(map(ref, numeric)),
        categorical_columns=draw(st.sampled_from([None, categorical])),
        reward_columns=tuple(ref(i) for i, kind in enumerate(kinds) if kind == "reward"),
        num_actions=draw(num_actions), horizon=draw(st.none() | st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    sep = draw(st.sampled_from([",", ", "]))

    def quote(cell):  # a cell holding the delimiter must be quoted; any other may be
        return f'"{cell}"' if "," in cell or draw(st.booleans()) else cell

    lines = [[f"h{i}" for i in range(len(kinds))]] if header else []
    text = "".join(sep.join(map(quote, line)) + "\n" for line in lines + rows)
    return text, spec


def _built(load, spec):
    """Every byte a dataset bandit is built from, or the ValueError's type."""
    try:
        env = load(spec)
    except ValueError:
        return ValueError
    poison = env._poisonous
    return (
        env.contexts.shape, env.contexts.tobytes(), env.expected.shape, env.expected.tobytes(),
        None if poison is None else (poison.dtype.str, poison.tobytes()),
        env.dropped_rows, env.name, env.horizon,
    )


@settings(max_examples=300, deadline=None)
@given(case=dataset_cases())
def test_the_loader_builds_what_the_row_by_row_loader_built(case, tmp_path_factory):
    text, fields = case
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    path.write_text(text, encoding="utf-8")
    spec = DatasetSpec(path=str(path), **fields)
    assert _built(dataset_load, spec) == _built(reference_dataset_load, spec)
