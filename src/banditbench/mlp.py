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

A batch's arrays live in a ``Workspace``, keyed by (sizes, layer_norm, rows,
dtype): the gathered batch, each layer's activations, the layer-norm
statistics, dropout masks, d(loss)/d(outputs), the backward's deltas and the
gradient vector.  ``mlp_forward``, ``mlp_backward``, ``masked_mse`` and
``make_dropout_masks`` take one as ``workspace`` and write into it with
``out=``; given none, each builds a fresh one for its row count and runs the
same lines, so the gradchecks allocate new arrays on every call.  A single
1-D context row with neither a workspace nor dropout masks, the greedy and
chain nets' decisions and NeuralLinear's features, builds no workspace: the
same layer loop runs on vectors (``ndarray.dot``, then the bias add and
ReLU in place), whose products are bitwise those of a one-row batch, and
keeps no backprop cache.  The one training workspace per key is
``shared_workspace``'s, which keeps the last ``SHARED_WORKSPACES`` keys',
and every ``neural.TrainableNet`` of that key trains on it (BootstrappedNN's
members and BBB's sampled nets too), which is safe because training runs
one batch at a time.  What a call returns with a workspace (outputs, masks,
d(loss)/d(outputs), the gradient) is the workspace's own buffers, and the
next batch of that key overwrites them.
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


class Workspace:
    """The buffers of one batch of ``rows`` rows through nets of one shape
    (``sizes``, a tuple, and ``layer_norm``) in ``dtype``; ``mlp_forward``
    returns it as the cache ``mlp_backward`` reads.

    A workspace holds only what its calls touched.  The products' buffers
    are None until the first product allocates them (``out=None``): each
    hidden layer's activation ``act[l]`` (its pre-activation worked out in
    place, then ReLU and dropout applied), the output ``out`` and the
    backward's ``delta[l]``.  The rest are built on first read: the
    layer-norm ``xhat[l]``, ``inv[l]`` and two row ``stats``, the gathered
    batch ``X``, dropout's uniforms, ``masks`` and ``drop``, the backward's
    ``active`` and ``scratch``, the gradient ``grad`` (an MLP of views over
    one vector) and ``masked_mse``'s ``loss`` buffers.  ``x`` is the input of
    the last forward pass and ``dropped`` says whether it applied dropout.
    """

    def __init__(self, sizes: tuple[int, ...], layer_norm: bool, rows: int, dtype: np.dtype):
        self.key = (sizes, layer_norm, rows, dtype)
        self.sizes, self.layer_norm, self.rows, self.dtype = self.key
        self.x: Optional[np.ndarray] = None
        self.dropped = False
        self.act: list[Optional[np.ndarray]] = [None] * (len(sizes) - 2)
        self.delta: list[Optional[np.ndarray]] = [None] * (len(sizes) - 2)
        self.out: Optional[np.ndarray] = None

    def _hidden(self, dtype=None) -> list[np.ndarray]:
        """One (rows, width) buffer per hidden layer."""
        return [np.empty((self.rows, w), dtype or self.dtype) for w in self.sizes[1:-1]]

    def _rows(self, width: int) -> np.ndarray:
        return np.empty((self.rows, width), self.dtype)

    xhat = functools.cached_property(_hidden)
    masks = functools.cached_property(_hidden)
    drop = functools.cached_property(_hidden)
    scratch = functools.cached_property(_hidden)
    uniforms = functools.cached_property(lambda ws: ws._hidden(np.float64))
    active = functools.cached_property(lambda ws: ws._hidden(np.bool_))
    inv = functools.cached_property(lambda ws: [ws._rows(1) for _ in ws.sizes[1:-1]])
    stats = functools.cached_property(lambda ws: (ws._rows(1), ws._rows(1)))
    X = functools.cached_property(lambda ws: ws._rows(ws.sizes[0]))
    loss = functools.cached_property(lambda ws: _loss_buffers(ws.rows, ws.sizes[-1], ws.dtype))

    @functools.cached_property
    def grad(self) -> MLP:
        size = param_layout(self.sizes, self.layer_norm)[-1][-1]
        return MLP(self.sizes, np.empty(size, self.dtype), self.layer_norm)


SHARED_WORKSPACES = 8


@functools.lru_cache(maxsize=SHARED_WORKSPACES)
def shared_workspace(sizes: tuple[int, ...], layer_norm: bool, rows: int,
                     dtype: np.dtype) -> Workspace:
    """The workspace of the process for this key, which every net that
    trains on it shares: training runs one batch at a time, and each batch
    writes every buffer it reads.  The last ``SHARED_WORKSPACES`` keys used
    keep theirs (about 1 MB for a 3-100-100-5 float32 net on 512 rows, 2.6 MB
    with dropout); an older key's is dropped and built afresh on its next
    use.  Threads that trained nets of one key at once would each need a
    ``Workspace`` of their own."""
    return Workspace(sizes, layer_norm, rows, dtype)


def _workspace(net: MLP, rows: int, workspace: Optional[Workspace]) -> Workspace:
    """``workspace`` once it is checked to fit, or a fresh one for ``rows`` rows."""
    if workspace is None:
        return Workspace(net.sizes, net.layer_norm, rows, net.dtype)
    key = (net.sizes, net.layer_norm, rows, net.dtype)
    if workspace.key != key:
        raise ValueError(f"a workspace for {workspace.key} cannot hold a batch of {key}")
    return workspace


def make_dropout_masks(
    net: MLP, batch: int, p_keep: float, rng: np.random.Generator,
    workspace: Optional[Workspace] = None,
) -> list[np.ndarray]:
    """One 0/1 mask per hidden layer; each unit survives with probability p_keep."""
    if not 0.0 < p_keep <= 1.0:
        raise ValueError("p_keep must lie in (0, 1]")
    ws = _workspace(net, batch, workspace)
    for uniform, mask in zip(ws.uniforms, ws.masks):
        rng.random(out=uniform)
        np.less(uniform, p_keep, out=mask)
    return ws.masks


def _hidden_layers(
    net: MLP,
    X: np.ndarray,
    dropout_masks: Optional[list[np.ndarray]],
    p_keep: float,
    workspace: Optional[Workspace],
) -> tuple[np.ndarray, Optional[Workspace]]:
    """Post-activation output of the last hidden layer, and the workspace
    holding every hidden layer's backprop values; for one 1-D row with no
    workspace and no masks, that output as a vector and no workspace."""
    a = np.asarray(X, dtype=net.dtype)
    ws = None
    if a.ndim != 1 or workspace is not None or dropout_masks is not None:
        a = np.atleast_2d(a)
        ws = _workspace(net, a.shape[0], workspace)
        ws.x = a
        ws.dropped = dropout_masks is not None
    for l in range(net.num_layers - 1):
        if ws is None:
            z = a.dot(net.weights[l])
        else:
            z = ws.act[l] = np.matmul(a, net.weights[l], out=ws.act[l])
        np.add(z, net.biases[l], out=z)
        if net.layer_norm:
            # a row's statistics are fresh arrays, a batch's the workspace's
            xhat, inv, stat = (None,) * 3 if ws is None else (ws.xhat[l], ws.inv[l], ws.stats[0])
            stat = np.mean(z, axis=-1, keepdims=True, out=stat)
            np.subtract(z, stat, out=z)
            xhat = np.multiply(z, z, out=xhat)
            np.mean(xhat, axis=-1, keepdims=True, out=stat)
            np.add(stat, LAYER_NORM_EPS, out=stat)
            np.sqrt(stat, out=stat)
            inv = np.divide(1.0, stat, out=inv)
            np.multiply(z, inv, out=xhat)
            np.multiply(net.gains[l], xhat, out=z)
            np.add(z, net.shifts[l], out=z)
        np.maximum(z, 0.0, out=z)
        if dropout_masks is not None:
            np.multiply(z, dropout_masks[l], out=z)
            np.divide(z, p_keep, out=z)
            np.divide(dropout_masks[l], p_keep, out=ws.drop[l])
        a = z
    return a, ws


def mlp_forward(
    net: MLP,
    X: np.ndarray,
    dropout_masks: Optional[list[np.ndarray]] = None,
    p_keep: float = 1.0,
    workspace: Optional[Workspace] = None,
) -> tuple[np.ndarray, Optional[Workspace]]:
    """Batched forward pass; returns outputs (B, k) and the backprop cache.

    Hidden layers compute relu(layer_norm(X W + b)) with layer norm skipped
    for plain nets; dropout masks, if given, zero hidden outputs and rescale
    the survivors by 1/p_keep (inverted dropout).  One 1-D row with no
    workspace and no masks gives outputs (1, k) and no cache (None).
    """
    a, ws = _hidden_layers(net, X, dropout_masks, p_keep, workspace)
    if ws is None:
        out = a.dot(net.weights[-1])
    else:
        out = ws.out = np.matmul(a, net.weights[-1], out=ws.out)
    np.add(out, net.biases[-1], out=out)
    return (out[None], None) if ws is None else (out, ws)


def mlp_predict(net: MLP, X: np.ndarray) -> np.ndarray:
    out, _ = mlp_forward(net, X)
    return out


def hidden_features(net: MLP, X: np.ndarray) -> np.ndarray:
    """Post-activation output of the last hidden layer (batched: one row
    gives shape (1, width))."""
    Z, _ = _hidden_layers(net, X, None, 1.0, None)
    return Z if Z.ndim == 2 else Z[None]


def _layer_norm_backward(net: MLP, ws: Workspace, l: int, dz: np.ndarray) -> None:
    """Turn d(loss)/d(normalized output) ``dz`` into d(loss)/d(pre-activation)
    in place, writing the gain and shift gradients on the way.  The order of
    operations is that of the expression

        (inv / h) * (h * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))

    with dxhat = dz * gain and row sums."""
    xhat, inv, dxhat = ws.xhat[l], ws.inv[l], ws.scratch[l]
    row_sum, row_dot = ws.stats
    np.multiply(dz, xhat, out=dxhat)
    np.sum(dxhat, axis=0, out=ws.grad.gains[l])
    np.sum(dz, axis=0, out=ws.grad.shifts[l])
    np.multiply(dz, net.gains[l], out=dxhat)
    h = xhat.shape[1]
    np.sum(dxhat, axis=1, keepdims=True, out=row_sum)
    np.multiply(dxhat, xhat, out=dz)
    np.sum(dz, axis=1, keepdims=True, out=row_dot)
    np.multiply(dxhat, h, out=dxhat)
    np.subtract(dxhat, row_sum, out=dxhat)
    np.multiply(xhat, row_dot, out=dz)
    np.subtract(dxhat, dz, out=dxhat)
    np.divide(inv, h, out=row_sum)
    np.multiply(row_sum, dxhat, out=dz)


def mlp_backward(net: MLP, cache: Workspace, dout: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss given d(loss)/d(outputs), laid out as ``net.flat``.

    ``cache`` is the workspace of the forward pass; the gradient is its
    ``grad.flat``."""
    ws, grad = cache, cache.grad
    dz = np.asarray(dout, dtype=net.dtype)
    for l in range(net.num_layers - 1, -1, -1):
        if l < net.num_layers - 1:
            dz = ws.delta[l]
            if ws.dropped:
                np.multiply(dz, ws.drop[l], out=dz)
            # relu(z) > 0 exactly where z > 0, and dropout has zeroed dz
            # wherever it zeroed the activation
            np.greater(ws.act[l], 0.0, out=ws.active[l])
            np.multiply(dz, ws.active[l], out=dz)
            if net.layer_norm:
                _layer_norm_backward(net, ws, l, dz)
        inp = ws.act[l - 1] if l else ws.x
        np.matmul(inp.T, dz, out=grad.weights[l])
        np.sum(dz, axis=0, out=grad.biases[l])
        if l > 0:
            ws.delta[l - 1] = np.matmul(dz, net.weights[l].T, out=ws.delta[l - 1])
    return grad.flat


def _loss_buffers(rows: int, k: int, dtype) -> tuple[np.ndarray, ...]:
    """``masked_mse``'s row index, per-row difference and scaled difference,
    and d(loss)/d(outputs)."""
    return (np.arange(rows), np.empty(rows, dtype), np.empty(rows, dtype),
            np.empty((rows, k), dtype))


def masked_mse(
    outputs: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
    workspace: Optional[Workspace] = None,
) -> tuple[float, np.ndarray]:
    """Mean squared error on the observed action's output only.

    Returns the loss and d(loss)/d(outputs); gradients are zero for every
    output the batch gives no reward for.
    """
    outputs = np.atleast_2d(outputs)
    n = outputs.shape[0]
    if workspace is None:
        rows, diff, scaled, dout = _loss_buffers(n, outputs.shape[1], outputs.dtype)
    else:
        rows, diff, scaled, dout = workspace.loss
    actions = np.asarray(actions, dtype=np.int64)
    # rewards are cast to the outputs' dtype before the subtraction
    np.subtract(outputs[rows, actions], rewards, out=diff, dtype=outputs.dtype)
    loss = float(np.mean(np.multiply(diff, diff, out=scaled)))
    np.multiply(diff, 2.0, out=scaled)
    np.divide(scaled, n, out=scaled)
    dout[...] = 0.0
    dout[rows, actions] = scaled
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
    set: then period 0 runs ``ramp_initial`` and the count moves linearly, down
    or up, to ``batches_per_period`` over ``ramp_periods`` periods (BBB's ramp).

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
        return round(ramped)

    def learning_rate(self, period: int, batch_index: int) -> float:
        i = batch_index if self.reset_policy == "reset-each-period" else period
        return self.lr_init / (1.0 + self.lr_decay * i)
