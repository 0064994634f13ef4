"""Network forward/backward math, the optimizer, and training schedules."""

import copy

import numpy as np
import pytest

from banditbench.mlp import (
    LAYER_NORM_EPS,
    MLP,
    RESET_POLICIES,
    RMSProp,
    TrainingSchedule,
    Workspace,
    hidden_features,
    make_dropout_masks,
    masked_mse,
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_predict,
    perturb,
)
from banditbench.samplers import VariationalNet


def tiny_net() -> MLP:
    # W0 = [[1, 0], [0, 1]], b0 = [0.5, -0.5], W1 = [[1], [2]], b1 = [0.1]
    return MLP((2, 2, 1), np.array([1.0, 0.0, 0.0, 1.0, 0.5, -0.5, 1.0, 2.0, 0.1]))


def batch_loss(net, X, actions, rewards, masks=None, p_keep=1.0):
    out, _ = mlp_forward(net, X, dropout_masks=masks, p_keep=p_keep)
    loss, _ = masked_mse(out, actions, rewards)
    return loss


def numeric_grads(net, X, actions, rewards, masks=None, p_keep=1.0, h=1e-6):
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        fp, fg = p.ravel(), g.ravel()
        for i in range(fp.size):
            keep = fp[i]
            fp[i] = keep + h
            hi = batch_loss(net, X, actions, rewards, masks, p_keep)
            fp[i] = keep - h
            lo = batch_loss(net, X, actions, rewards, masks, p_keep)
            fp[i] = keep
            fg[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def grad_rel_error(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        denom = max(1.0, np.linalg.norm(ga), np.linalg.norm(gn))
        worst = max(worst, np.linalg.norm(ga - gn) / denom)
    return worst


def test_forward_hand_computed():
    out = mlp_predict(tiny_net(), np.array([1.0, -2.0]))
    # z = [1.5, -2.5] -> relu [1.5, 0] -> 1.5 * 1 + 0 * 2 + 0.1
    np.testing.assert_allclose(out, [[1.6]])


def test_forward_promotes_single_context():
    net = tiny_net()
    single = mlp_predict(net, np.array([0.3, 0.4]))
    batch = mlp_predict(net, np.array([[0.3, 0.4], [0.3, 0.4]]))
    assert single.shape == (1, 1)
    np.testing.assert_array_equal(batch[0], single[0])


def test_masked_mse_values_and_gradient():
    out = np.array([[2.0, 5.0, 7.0], [1.0, 0.0, -3.0]])
    loss, dout = masked_mse(out, np.array([0, 2]), np.array([1.0, -1.0]))
    assert loss == pytest.approx(((2 - 1) ** 2 + (-3 + 1) ** 2) / 2)
    expect = np.zeros((2, 3))
    expect[0, 0] = 2 * (2 - 1) / 2
    expect[1, 2] = 2 * (-3 + 1) / 2
    np.testing.assert_array_equal(dout, expect)


def test_gradients_match_finite_differences_plain():
    rng = np.random.default_rng(0)
    for trial in range(5):
        net = mlp_init((3, 4, 2), rng)
        X = rng.standard_normal((6, 3))
        actions = rng.integers(0, 2, size=6)
        rewards = rng.standard_normal(6)
        out, cache = mlp_forward(net, X)
        _, dout = masked_mse(out, actions, rewards)
        analytic = net.split(mlp_backward(net, cache, dout))
        numeric = numeric_grads(net, X, actions, rewards)
        assert grad_rel_error(analytic, numeric) < 1e-6


def test_gradients_match_finite_differences_layer_norm():
    rng = np.random.default_rng(1)
    for trial in range(3):
        net = mlp_init((3, 4, 4, 2), rng, layer_norm=True)
        X = rng.standard_normal((5, 3))
        actions = rng.integers(0, 2, size=5)
        rewards = rng.standard_normal(5)
        out, cache = mlp_forward(net, X)
        _, dout = masked_mse(out, actions, rewards)
        analytic = net.split(mlp_backward(net, cache, dout))
        numeric = numeric_grads(net, X, actions, rewards)
        assert grad_rel_error(analytic, numeric) < 1e-6


def test_gradients_match_finite_differences_pinned_dropout():
    rng = np.random.default_rng(2)
    net = mlp_init((3, 5, 2), rng)
    X = rng.standard_normal((4, 3))
    actions = rng.integers(0, 2, size=4)
    rewards = rng.standard_normal(4)
    masks = make_dropout_masks(net, 4, 0.7, rng)
    out, cache = mlp_forward(net, X, dropout_masks=masks, p_keep=0.7)
    _, dout = masked_mse(out, actions, rewards)
    analytic = net.split(mlp_backward(net, cache, dout))
    numeric = numeric_grads(net, X, actions, rewards, masks, 0.7)
    assert grad_rel_error(analytic, numeric) < 1e-6


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_training_math_computes_in_the_parameters_dtype(dtype):
    rng = np.random.default_rng(3)
    built = mlp_init((3, 4, 2), rng, layer_norm=True)
    assert {p.dtype for p in built.parameters()} == {np.dtype(np.float64)}
    net = built.astype(dtype)
    X = rng.standard_normal((6, 3))
    masks = make_dropout_masks(net, 6, 0.8, rng)
    out, cache = mlp_forward(net, X, masks, 0.8)
    _, dout = masked_mse(out, rng.integers(0, 2, size=6), rng.standard_normal(6))
    grads = mlp_backward(net, cache, dout)
    opt = RMSProp(net.flat)
    opt.step(net.flat, grads, 0.01)
    arrays = [out, dout, *masks, grads, opt.acc, *net.parameters(),
              *perturb(net, 0.1, rng).parameters(), hidden_features(net, X)]
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}


def workspace_net(kind: str, dtype, rng: np.random.Generator) -> MLP:
    sizes = (3, 6, 5, 2)
    if kind == "bbb-sample":
        return VariationalNet(sizes, 1.0, rng).astype(dtype).sample(rng)[0]
    return mlp_init(sizes, rng, layer_norm=kind == "layer-norm").astype(dtype)


def batch_pass(net, X, actions, rewards, dropout, workspace):
    """Masks, outputs, loss, d(loss)/d(outputs) and gradient of one batch."""
    masks = None
    if dropout:
        masks = make_dropout_masks(net, len(X), 0.7, np.random.default_rng(1),
                                   workspace=workspace)
    out, cache = mlp_forward(net, X, masks, 0.7 if dropout else 1.0, workspace=workspace)
    loss, dout = masked_mse(out, actions, rewards, workspace=workspace)
    return masks or [], out, loss, dout, mlp_backward(net, cache, dout)


def reference_batch(net, X, actions, rewards, dropout):
    """``batch_pass`` written as expressions on fresh arrays, with no
    workspace: the same operations in the same order."""
    masks = []
    if dropout:
        rng = np.random.default_rng(1)
        masks = [(rng.random((len(X), h)) < 0.7).astype(net.dtype) for h in net.sizes[1:-1]]
    a, cache = np.asarray(X, dtype=net.dtype), []
    for l in range(net.num_layers - 1):
        z = a @ net.weights[l] + net.biases[l]
        step = {"inp": a}
        if net.layer_norm:
            mu = z.mean(axis=1, keepdims=True)
            xc = z - mu
            var = np.mean(xc * xc, axis=1, keepdims=True)
            inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
            xhat = xc * inv
            z = net.gains[l] * xhat + net.shifts[l]
            step["xhat"], step["inv"] = xhat, inv
        a = np.maximum(z, 0.0)
        if dropout:
            a = a * masks[l] / 0.7
            step["drop"] = masks[l] / 0.7
        step["relu"] = (z > 0).astype(net.dtype)
        cache.append(step)
    cache.append({"inp": a})
    out = a @ net.weights[-1] + net.biases[-1]
    rows = np.arange(len(X))
    diff = out[rows, actions] - np.asarray(rewards, dtype=out.dtype)
    loss = float(np.mean(diff * diff))
    dout = np.zeros_like(out)
    dout[rows, actions] = 2.0 * diff / len(X)
    grad = MLP(net.sizes, np.empty_like(net.flat), net.layer_norm)
    da = dout
    for l in range(net.num_layers - 1, -1, -1):
        step, dz = cache[l], da
        if l < net.num_layers - 1:
            if dropout:
                dz = dz * step["drop"]
            dz = dz * step["relu"]
            if net.layer_norm:
                xhat, inv = step["xhat"], step["inv"]
                np.sum(dz * xhat, axis=0, out=grad.gains[l])
                np.sum(dz, axis=0, out=grad.shifts[l])
                dxhat = dz * net.gains[l]
                h = xhat.shape[1]
                dz = (inv / h) * (
                    h * dxhat
                    - np.sum(dxhat, axis=1, keepdims=True)
                    - xhat * np.sum(dxhat * xhat, axis=1, keepdims=True)
                )
        np.matmul(step["inp"].T, dz, out=grad.weights[l])
        np.sum(dz, axis=0, out=grad.biases[l])
        if l > 0:
            da = dz @ net.weights[l].T
    return masks, out, loss, dout, grad.flat


def bits(arrays) -> list[tuple]:
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["plain", "dropout", "layer-norm", "bbb-sample"])
def test_a_workspace_changes_no_bit_of_a_batch(kind, dtype):
    rng = np.random.default_rng(9)
    net = workspace_net(kind, dtype, rng)
    rows = 7
    X = rng.standard_normal((rows, 3))
    actions, rewards = rng.integers(0, 2, rows), rng.standard_normal(rows)
    dropout = kind == "dropout"
    fresh = [batch_pass(net, X, actions, rewards, dropout, None) for _ in range(2)]
    fresh.append(reference_batch(net, X, actions, rewards, dropout))
    ws = Workspace(net.sizes, net.layer_norm, rows, net.dtype)
    # another net of the shape fills every buffer first, with dropout unless
    # the net under test uses it, so no stale value or flag may be read
    other = mlp_init(net.sizes, rng, net.layer_norm).astype(dtype)
    batch_pass(other, -X, actions, -rewards, not dropout, ws)
    masks, out, loss, dout, grads = batch_pass(net, X, actions, rewards, dropout, ws)
    for masks_, out_, loss_, dout_, grads_ in fresh:
        assert bits(masks) + bits([out, dout, grads]) == bits(masks_) + bits([out_, dout_, grads_])
        assert loss == loss_
    assert {a.dtype for a in [out, dout, grads, *masks]} == {np.dtype(dtype)}
    # with a workspace, the results are its buffers, which the next batch overwrites
    assert out is ws.out and dout is ws.loss[-1] and grads is ws.grad.flat
    if dropout:
        assert all(m is w for m, w in zip(masks, ws.masks, strict=True))
    # without one, every call gets arrays of its own, as the gradchecks assume
    (masks_a, out_a, _, dout_a, grads_a), (masks_b, out_b, _, dout_b, grads_b) = fresh[:2]
    for a, b in zip([*masks_a, out_a, dout_a, grads_a], [*masks_b, out_b, dout_b, grads_b],
                    strict=True):
        assert not np.shares_memory(a, b)
    with pytest.raises(ValueError, match="workspace"):
        mlp_forward(net, X[:-1], workspace=ws)


def test_a_workspace_builds_only_the_buffers_its_calls_touch():
    rng = np.random.default_rng(3)
    net = mlp_init((3, 6, 5, 2), rng).astype(np.float32)
    ws = Workspace(net.sizes, net.layer_norm, 1, net.dtype)
    masks = make_dropout_masks(net, 1, 0.7, rng, workspace=ws)
    assert {"uniforms", "masks"} <= vars(ws).keys()
    assert not {"X", "grad", "loss", "drop"} & vars(ws).keys()
    assert ws.out is None and ws.act == ws.delta == [None, None]
    out, _ = mlp_forward(net, rng.standard_normal(3), masks, 0.7, workspace=ws)
    assert out is ws.out and all(a.shape == (1, w) for a, w in zip(ws.act, (6, 5), strict=True))
    assert "drop" in vars(ws) and ws.delta == [None, None]
    assert not {"X", "grad", "loss", "xhat", "active"} & vars(ws).keys()


def test_init_shapes_and_glorot_bounds():
    net = mlp_init((3, 7, 2), np.random.default_rng(0))
    assert net.sizes == (3, 7, 2)
    assert not net.layer_norm
    np.testing.assert_array_equal(net.biases[0], np.zeros(7))
    assert np.all(np.abs(net.weights[0]) <= np.sqrt(6.0 / 10))
    assert np.all(np.abs(net.weights[1]) <= np.sqrt(6.0 / 9))
    ln = mlp_init((3, 7, 2), np.random.default_rng(0), layer_norm=True)
    assert ln.layer_norm and len(ln.gains) == 1
    np.testing.assert_array_equal(ln.gains[0], np.ones(7))
    np.testing.assert_array_equal(ln.shifts[0], np.zeros(7))
    with pytest.raises(ValueError):
        mlp_init((4,), np.random.default_rng(0))
    with pytest.raises(ValueError):
        mlp_init((4, 0, 2), np.random.default_rng(0))


def test_parameters_order_and_copy_isolation():
    rng = np.random.default_rng(3)
    net = mlp_init((2, 3, 3, 1), rng, layer_norm=True)
    params = net.parameters()
    # per hidden layer: W, b, gain, shift; output layer: W, b
    assert len(params) == 4 + 4 + 2
    expect = [net.weights[0], net.biases[0], net.gains[0], net.shifts[0],
              net.weights[1], net.biases[1], net.gains[1], net.shifts[1],
              net.weights[2], net.biases[2]]
    assert [p.shape for p in params] == [e.shape for e in expect]
    for p, e in zip(params, expect):
        np.testing.assert_array_equal(p, e)
    assert all(np.shares_memory(p, net.flat) for p in params)
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), net.flat)
    assert net.flat.shape == (sum(p.size for p in params),)
    # the parameters are views: a write to either side shows in the other
    net.flat[0] = 7.0
    assert net.weights[0][0, 0] == 7.0
    net.gains[0][1] = -3.0
    assert net.flat[2 * 3 + 3 + 1] == -3.0
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]
    X = rng.standard_normal((4, 2))
    out, cache = mlp_forward(net, X)
    _, dout = masked_mse(out, [0, 0, 0, 0], np.ones(4))
    grad = mlp_backward(net, cache, dout)
    assert grad.shape == net.flat.shape
    assert [g.shape for g in net.split(grad)] == [p.shape for p in params]
    for other in (net.copy(), net.astype(np.float32), perturb(net, 0.1, rng), copy.deepcopy(net)):
        assert not np.shares_memory(other.flat, net.flat)
        views = other.weights + other.biases + other.gains + other.shifts
        assert all(np.shares_memory(v, other.flat) for v in views)
    with pytest.raises(ValueError):
        MLP((2, 3, 3, 1), net.flat[:-1], layer_norm=True)


def reference_perturb(net: MLP, sigma: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Per-array parameter noise: one draw per parameter, in parameter order."""
    noisy = [p.copy() for p in net.parameters()]
    for p in noisy:
        p += sigma * rng.standard_normal(p.shape, dtype=p.dtype)
    return noisy


def test_perturb_touches_every_parameter():
    rng = np.random.default_rng(4)
    net = mlp_init((2, 3, 2), rng, layer_norm=True)
    noisy = perturb(net, 0.5, rng)
    for orig, new in zip(net.parameters(), noisy.parameters()):
        assert np.all(orig != new)
    same = perturb(net, 0.0, rng)
    for orig, new in zip(net.parameters(), same.parameters()):
        np.testing.assert_array_equal(orig, new)
    # one draw over the whole vector equals the per-array draws, in both dtypes
    for dtype in (np.float64, np.float32):
        deep = mlp_init((3, 5, 4, 2), rng, layer_norm=True).astype(dtype)
        got = perturb(deep, 0.3, np.random.default_rng(8))
        want = reference_perturb(deep, 0.3, np.random.default_rng(8))
        for g, w in zip(got.parameters(), want, strict=True):
            assert g.dtype == w.dtype == dtype
            np.testing.assert_array_equal(g, w)


def test_hidden_features_match_forward_activations():
    rng = np.random.default_rng(5)
    for layer_norm in (False, True):
        net = mlp_init((3, 6, 4, 2), rng, layer_norm=layer_norm)
        X = rng.standard_normal((8, 3))
        feats = hidden_features(net, X)
        assert feats.shape == (8, 4)
        head = feats @ net.weights[-1] + net.biases[-1]
        np.testing.assert_allclose(head, mlp_predict(net, X), rtol=1e-12)


def test_dropout_mask_statistics_and_validation():
    net = mlp_init((2, 50, 50, 1), np.random.default_rng(6))
    rng = np.random.default_rng(7)
    masks = make_dropout_masks(net, 40, 0.8, rng)
    assert [m.shape for m in masks] == [(40, 50), (40, 50)]
    for m in masks:
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert abs(m.mean() - 0.8) < 3 * np.sqrt(0.8 * 0.2 / m.size)
    ones = make_dropout_masks(net, 4, 1.0, rng)
    for m in ones:
        np.testing.assert_array_equal(m, np.ones_like(m))
    with pytest.raises(ValueError):
        make_dropout_masks(net, 4, 0.0, rng)
    with pytest.raises(ValueError):
        make_dropout_masks(net, 4, 1.2, rng)


def test_rmsprop_first_step_from_zero_accumulator():
    params = np.array([1.0, -1.0])
    grads = np.array([2.0, -0.5])
    opt = RMSProp(params, rho=0.9, eps=1e-8)
    opt.step(params, grads, lr=0.1)
    acc = 0.1 * np.array([4.0, 0.25])
    expect = np.array([1.0, -1.0]) - 0.1 * np.array([2.0, -0.5]) / np.sqrt(acc + 1e-8)
    np.testing.assert_allclose(params, expect, rtol=1e-12)
    np.testing.assert_allclose(opt.acc, acc, rtol=1e-12)
    # a length-1 vector would broadcast over every parameter
    for bad_params, bad_grads in ((params, np.array([])), (params, np.array([1.0])),
                                  (np.zeros(1), grads), (np.zeros(3), np.zeros(3))):
        with pytest.raises(ValueError):
            opt.step(bad_params, bad_grads, lr=0.1)
    np.testing.assert_allclose(params, expect, rtol=1e-12)
    with pytest.raises(ValueError):
        RMSProp(params, rho=1.0)


def test_schedule_due_logic():
    sched = TrainingSchedule(train_every=20)
    assert sched.due(0, 5)
    assert sched.due(40, 1)
    assert not sched.due(10, 5)
    assert not sched.due(-20, 5)   # still inside warmup
    assert not sched.due(0, 0)     # nothing to fit yet


def test_schedule_learning_rate_policies():
    assert RESET_POLICIES == ("reset-each-period", "decay-across-periods")
    assert TrainingSchedule().reset_policy == "decay-across-periods"
    for policy in RESET_POLICIES:  # lr_decay = 0 is a fixed rate under either index
        fixed = TrainingSchedule(lr_init=0.3, reset_policy=policy)
        assert fixed.learning_rate(period=9, batch_index=7) == 0.3
    with pytest.raises(ValueError):
        TrainingSchedule(reset_policy="fixed")
    inner = TrainingSchedule(lr_init=1.0, lr_decay=0.55, reset_policy="reset-each-period")
    assert inner.learning_rate(period=9, batch_index=0) == 1.0
    assert inner.learning_rate(period=9, batch_index=4) == pytest.approx(1.0 / (1 + 0.55 * 4))
    outer = TrainingSchedule(lr_init=1.0, lr_decay=0.55, reset_policy="decay-across-periods")
    assert outer.learning_rate(period=0, batch_index=4) == 1.0
    assert outer.learning_rate(period=6, batch_index=0) == pytest.approx(1.0 / (1 + 0.55 * 6))


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainingSchedule(train_every=0)
    with pytest.raises(ValueError):
        TrainingSchedule(lr_init=0.0)
    with pytest.raises(ValueError):
        TrainingSchedule(lr_decay=-0.1)
    with pytest.raises(ValueError):
        TrainingSchedule(reset_policy="sometimes")
