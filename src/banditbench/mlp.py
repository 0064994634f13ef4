"""Small fully-connected networks with hand-rolled backprop.

Everything the neural agents need lives here: a feedforward net with ReLU
hidden layers and a linear head, optional layer normalization of the hidden
pre-activations, inverted dropout, the masked mean-squared-error loss used to
fit per-action reward heads, RMSProp, and the mini-batch training schedule:
``TrainingSchedule`` alone says when a period fires, how many batches it
runs (BBB's long early ramp included) and at what learning rate.
Gradients are computed manually so they can be checked against finite
differences and reused by the reparameterized variational nets.

A net's parameters are views into one vector, ``MLP.flat``, laid out by
``param_layout`` alone; gradients, RMSProp state and noise are whole vectors
of that layout.  Every function computes in the dtype of the parameters it is
given: inputs, masks, targets and gradients are cast to it, and noise is drawn
in it.  ``mlp_init`` builds float64 nets, which the gradchecks use; the agents
train float32 copies (``neural.TRAIN_DTYPE``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

LAYER_NORM_EPS = 1e-5

RESET_POLICIES = ("reset-each-period", "decay-across-periods")


@functools.lru_cache(maxsize=None)
def param_layout(sizes: tuple[int, ...], layer_norm: bool) -> tuple[tuple, ...]:
    """The one place a net's parameter layout is decided: (kind, shape, start,
    stop) of each parameter in ``MLP.flat``, per layer its weights and biases,
    then a hidden layer's gain and shift when the net uses layer norm."""
    layout, start = [], 0
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes = [("weights", (fan_in, fan_out)), ("biases", (fan_out,))]
        if layer_norm and l < len(sizes) - 2:
            shapes += [("gains", (fan_out,)), ("shifts", (fan_out,))]
        for kind, shape in shapes:
            stop = start + math.prod(shape)
            layout.append((kind, shape, start, stop))
            start = stop
    return tuple(layout)


def check_shape(what: str, vector: np.ndarray, shape: tuple[int, ...]) -> None:
    """Refuse a vector numpy would otherwise broadcast over every parameter."""
    if np.shape(vector) != shape:
        raise ValueError(f"{what} has shape {np.shape(vector)}, the parameters {shape}")


class MLP:
    """Parameters as views into one vector, ``flat``, laid out by ``param_layout``.

    ``weights[l]`` maps layer l inputs to outputs; ``gains`` and ``shifts``
    are empty unless the net uses layer norm."""

    def __init__(self, sizes: Sequence[int], flat: np.ndarray, layer_norm: bool = False):
        self.sizes = tuple(int(s) for s in sizes)
        self.layer_norm = layer_norm
        self._layout = param_layout(self.sizes, layer_norm)
        check_shape("flat", flat, (self._layout[-1][-1],))
        self.flat = flat
        self.weights, self.biases, self.gains, self.shifts = [], [], [], []
        for (kind, *_), view in zip(self._layout, self.split(flat)):
            getattr(self, kind).append(view)

    def __reduce__(self):
        # copy.deepcopy and pickle rebuild the views from the one vector
        return MLP, (self.sizes, self.flat, self.layer_norm)

    @property
    def num_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out as ``flat``, one per parameter."""
        return [vector[start:stop].reshape(shape) for _, shape, start, stop in self._layout]

    def parameters(self) -> list[np.ndarray]:
        """The parameter views in ``flat`` order (weights, biases, norms)."""
        return self.split(self.flat)

    def astype(self, dtype) -> "MLP":
        """A copy with every parameter cast to ``dtype``."""
        return MLP(self.sizes, self.flat.astype(dtype), self.layer_norm)

    def copy(self) -> "MLP":
        return self.astype(self.dtype)


def mlp_init(
    sizes: Sequence[int], rng: np.random.Generator, layer_norm: bool = False
) -> MLP:
    """Glorot-uniform weights, zero biases, identity layer-norm parameters."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("sizes must list at least input and output widths")
    net = MLP(sizes, np.zeros(param_layout(sizes, layer_norm)[-1][-1]), layer_norm)
    for W in net.weights:
        limit = np.sqrt(6.0 / sum(W.shape))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    for gain in net.gains:
        gain[...] = 1.0
    return net


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


def mlp_backward(net: MLP, cache: list[dict], dout: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss given d(loss)/d(outputs), laid out as ``net.flat``."""
    grad = MLP(net.sizes, np.empty_like(net.flat), net.layer_norm)
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
    return grad.flat


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
    noise = rng.standard_normal(net.flat.size, dtype=net.dtype)
    return MLP(net.sizes, net.flat + sigma * noise, net.layer_norm)


class RMSProp:
    """RMSProp on one parameter vector: acc = rho*acc + (1-rho)*g^2; step g/sqrt(acc+eps)."""

    def __init__(self, params: np.ndarray, rho: float = 0.9, eps: float = 1e-8):
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        self.rho = rho
        self.eps = eps
        self.acc = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        check_shape("parameter vector", params, self.acc.shape)
        check_shape("gradient", grads, self.acc.shape)
        self.acc *= self.rho
        self.acc += (1.0 - self.rho) * grads * grads
        params -= lr * grads / np.sqrt(self.acc + self.eps)


@dataclass(frozen=True)
class TrainingSchedule:
    """When and how hard to train: a period of ``batches(period)``
    mini-batches fires every ``train_every`` decision steps.

    A period runs ``batches_per_period`` batches, unless ``ramp_initial`` is
    set: then period 0 runs ``ramp_initial`` and the count falls linearly to
    ``batches_per_period`` over ``ramp_periods`` periods (BBB's ramp).

    ``reset_policy`` indexes i in the inverse-time learning-rate law
    lr_init / (1 + lr_decay * i): "decay-across-periods" by the global period
    counter, "reset-each-period" by the mini-batch position inside the period,
    starting over each period.  ``lr_decay = 0`` is a fixed rate under either.
    """

    train_every: int = 20
    batches_per_period: int = 20
    batch_size: int = 512
    lr_init: float = 0.01
    lr_decay: float = 0.0
    reset_policy: str = "decay-across-periods"
    ramp_initial: Optional[int] = None
    ramp_periods: int = 100

    def __post_init__(self):
        for key in ("train_every", "batches_per_period", "batch_size", "lr_init"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")
        if not self.lr_decay >= 0:
            raise ValueError(f"lr_decay must be >= 0, got {self.lr_decay!r}")
        if self.reset_policy not in RESET_POLICIES:
            raise ValueError(f"reset_policy must be one of {RESET_POLICIES}")
        if self.ramp_periods < 0:
            raise ValueError(f"ramp_periods must be >= 0, got {self.ramp_periods!r}")
        if self.ramp_initial is not None and self.ramp_initial < 1:
            raise ValueError(f"ramp_initial must be >= 1, got {self.ramp_initial!r}")

    def due(self, step: int, buffer_len: int) -> bool:
        """True when the post-warmup step counter lands on a training period."""
        return step >= 0 and step % self.train_every == 0 and buffer_len > 0

    def batches(self, period: int) -> int:
        """How many mini-batches period ``period`` (counted from 0) runs."""
        final = self.batches_per_period
        if self.ramp_initial is None or period >= self.ramp_periods:
            return final
        ramped = self.ramp_initial - period * (self.ramp_initial - final) / self.ramp_periods
        return max(final, round(ramped))

    def learning_rate(self, period: int, batch_index: int) -> float:
        i = batch_index if self.reset_policy == "reset-each-period" else period
        return self.lr_init / (1.0 + self.lr_decay * i)
