"""Small fully-connected networks with hand-rolled backprop.

Everything the neural agents need lives here: a feedforward net with ReLU
hidden layers and a linear head, optional layer normalization of the hidden
pre-activations, inverted dropout, the masked mean-squared-error loss used to
fit per-action reward heads, RMSProp, and the mini-batch training schedule.
Gradients are computed manually so they can be checked against finite
differences and reused by the reparameterized variational nets.

Every function computes in the dtype of the parameters it is given: inputs,
masks, targets and gradients are cast to it, and noise is drawn in it.
``mlp_init`` builds float64 nets, which the gradchecks use; the agents train
float32 copies (``neural.TRAIN_DTYPE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

LAYER_NORM_EPS = 1e-5

SeedLike = Union[int, np.random.SeedSequence]

RESET_POLICIES = ("fixed", "reset-each-period", "decay-across-periods")


def _seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass
class MLP:
    """Parameter container; ``weights[l]`` maps layer l inputs to outputs."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    gains: Optional[list[np.ndarray]] = None   # layer-norm scale, hidden layers
    shifts: Optional[list[np.ndarray]] = None  # layer-norm offset, hidden layers

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def layer_norm(self) -> bool:
        return self.gains is not None

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list in a fixed order (weights, biases, norms)."""
        params = []
        for l in range(self.num_layers):
            params.append(self.weights[l])
            params.append(self.biases[l])
            if self.layer_norm and l < self.num_layers - 1:
                params.append(self.gains[l])
                params.append(self.shifts[l])
        return params

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def astype(self, dtype) -> "MLP":
        """A copy with every parameter cast to ``dtype``."""
        def cast(arrays):
            return None if arrays is None else [a.astype(dtype) for a in arrays]

        return MLP(cast(self.weights), cast(self.biases), cast(self.gains), cast(self.shifts))

    def copy(self) -> "MLP":
        return self.astype(self.dtype)


def mlp_init(
    sizes: Sequence[int], rng: np.random.Generator, layer_norm: bool = False
) -> MLP:
    """Glorot-uniform weights, zero biases, identity layer-norm parameters."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("sizes must list at least input and output widths")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    gains = shifts = None
    if layer_norm:
        gains = [np.ones(s) for s in sizes[1:-1]]
        shifts = [np.zeros(s) for s in sizes[1:-1]]
    return MLP(weights, biases, gains, shifts)


def make_dropout_masks(
    net: MLP, batch: int, p_keep: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """One 0/1 mask per hidden layer; each unit survives with probability p_keep."""
    if not 0.0 < p_keep <= 1.0:
        raise ValueError("p_keep must lie in (0, 1]")
    sizes = net.sizes
    return [
        (rng.random((batch, sizes[l + 1])) < p_keep).astype(net.dtype)
        for l in range(net.num_layers - 1)
    ]


def _hidden_layers(
    net: MLP,
    X: np.ndarray,
    dropout_masks: Optional[list[np.ndarray]] = None,
    p_keep: float = 1.0,
    cache: Optional[list[dict]] = None,
) -> np.ndarray:
    """Post-activation output of the last hidden layer, appending each hidden
    layer's backprop values to ``cache`` when one is given."""
    a = np.atleast_2d(np.asarray(X, dtype=net.dtype))
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
        if dropout_masks is not None:
            a = a * dropout_masks[l] / p_keep
            step["drop"] = dropout_masks[l] / p_keep
        if cache is not None:
            step["relu"] = (z > 0).astype(net.dtype)
            cache.append(step)
    return a


def mlp_forward(
    net: MLP,
    X: np.ndarray,
    dropout_masks: Optional[list[np.ndarray]] = None,
    p_keep: float = 1.0,
) -> tuple[np.ndarray, list[dict]]:
    """Batched forward pass; returns outputs (B, k) and the backprop cache.

    Hidden layers compute relu(layer_norm(X W + b)) with layer norm skipped
    for plain nets; dropout masks, if given, zero hidden outputs and rescale
    the survivors by 1/p_keep (inverted dropout).
    """
    cache: list[dict] = []
    a = _hidden_layers(net, X, dropout_masks, p_keep, cache)
    cache.append({"inp": a})
    return a @ net.weights[-1] + net.biases[-1], cache


def mlp_predict(net: MLP, X: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(net, X)
    return out


def hidden_features(net: MLP, X: np.ndarray) -> np.ndarray:
    """Post-activation output of the last hidden layer (batched)."""
    return _hidden_layers(net, X)


def mlp_backward(net: MLP, cache: list[dict], dout: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(outputs).

    Returns arrays aligned with ``net.parameters()``.
    """
    grads: list[list[np.ndarray]] = [[] for _ in range(net.num_layers)]
    da = np.asarray(dout, dtype=net.dtype)
    for l in range(net.num_layers - 1, -1, -1):
        step = cache[l]
        dz = da
        if l < net.num_layers - 1:
            if "drop" in step:
                dz = dz * step["drop"]
            dz = dz * step["relu"]
            if net.layer_norm:
                xhat, inv = step["xhat"], step["inv"]
                dgain = np.sum(dz * xhat, axis=0)
                dshift = np.sum(dz, axis=0)
                dxhat = dz * net.gains[l]
                h = xhat.shape[1]
                dz = (inv / h) * (
                    h * dxhat
                    - np.sum(dxhat, axis=1, keepdims=True)
                    - xhat * np.sum(dxhat * xhat, axis=1, keepdims=True)
                )
        dW = step["inp"].T @ dz
        db = dz.sum(axis=0)
        entry = [dW, db]
        if net.layer_norm and l < net.num_layers - 1:
            entry.extend([dgain, dshift])
        grads[l] = entry
        if l > 0:
            da = dz @ net.weights[l].T
    flat: list[np.ndarray] = []
    for entry in grads:
        flat.extend(entry)
    return flat


def masked_mse(
    outputs: np.ndarray, actions: np.ndarray, rewards: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error on the observed action's output only.

    Returns the loss and d(loss)/d(outputs); gradients are zero for every
    output the batch gives no reward for.
    """
    outputs = np.atleast_2d(outputs)
    n = outputs.shape[0]
    rows = np.arange(n)
    actions = np.asarray(actions, dtype=np.int64)
    diff = outputs[rows, actions] - np.asarray(rewards, dtype=outputs.dtype)
    loss = float(np.mean(diff * diff))
    dout = np.zeros_like(outputs)
    dout[rows, actions] = 2.0 * diff / n
    return loss, dout


def perturb(net: MLP, sigma: float, rng: np.random.Generator) -> MLP:
    """Copy of the net with N(0, sigma^2) noise added to every parameter."""
    noisy = net.copy()
    for p in noisy.parameters():
        p += sigma * rng.standard_normal(p.shape, dtype=p.dtype)
    return noisy


class RMSProp:
    """Per-parameter RMSProp: acc = rho*acc + (1-rho)*g^2; step g/sqrt(acc+eps)."""

    def __init__(self, params: Sequence[np.ndarray], rho: float = 0.9, eps: float = 1e-8):
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        self.rho = rho
        self.eps = eps
        self.acc = [np.zeros_like(p) for p in params]

    def step(self, params: Sequence[np.ndarray], grads: Sequence[np.ndarray], lr: float) -> None:
        if len(params) != len(self.acc) or len(grads) != len(self.acc):
            raise ValueError("parameter/gradient structure mismatch")
        for p, g, a in zip(params, grads, self.acc):
            a *= self.rho
            a += (1.0 - self.rho) * g * g
            p -= lr * g / np.sqrt(a + self.eps)


@dataclass(frozen=True)
class TrainingSchedule:
    """When and how hard to train: a period of ``batches_per_period``
    mini-batches fires every ``train_every`` decision steps.

    ``reset_policy`` controls the inverse-time learning-rate law
    lr_init / (1 + lr_decay * i): "fixed" ignores it, "decay-across-periods"
    indexes i by the global period counter, and "reset-each-period" indexes i
    by the mini-batch position inside the period, starting over each period.
    """

    train_every: int = 20
    batches_per_period: int = 20
    batch_size: int = 512
    lr_init: float = 0.01
    lr_decay: float = 0.0
    reset_policy: str = "fixed"

    def __post_init__(self):
        if self.train_every < 1 or self.batches_per_period < 1 or self.batch_size < 1:
            raise ValueError("schedule counts must be positive")
        if self.lr_init <= 0 or self.lr_decay < 0:
            raise ValueError("lr_init must be positive and lr_decay >= 0")
        if self.reset_policy not in RESET_POLICIES:
            raise ValueError(f"reset_policy must be one of {RESET_POLICIES}")

    def due(self, step: int, buffer_len: int) -> bool:
        """True when the post-warmup step counter lands on a training period."""
        return step >= 0 and step % self.train_every == 0 and buffer_len > 0

    def learning_rate(self, period: int, batch_index: int) -> float:
        if self.reset_policy == "fixed":
            return self.lr_init
        if self.reset_policy == "reset-each-period":
            return self.lr_init / (1.0 + self.lr_decay * batch_index)
        return self.lr_init / (1.0 + self.lr_decay * period)
