"""Metric names, percentiles, and the per-layer table derived from spans."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tracing import Tracer

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# (percentile, share of samples beyond it in units of 1e-5)
_TAIL_LADDER = ((50.0, 50_000), (90.0, 10_000), (99.0, 1_000), (99.9, 100), (99.99, 10))

_NS_PER = {"us": 1e3, "ms": 1e6, "s": 1e9}

# Per-call timings: metric base name -> span name.  The unit is the suffix.
SPAN_TIMINGS = {
    "core.reduce_ms": "core.reduce",
    "envs.build_ms": "envs.build",
    "linear.choose_us": "linear.choose",
    "linear.observe_us": "linear.observe",
    "linear.sample_us": "linear.sample",
    "linear.factor_us": "linear.cholesky",
    "linear.solve_us": "linear.solve",
    "linear.batch_update_ms": "linear.batch_update",
    "mlp.forward_batch_ms": "mlp.forward_batch",
    "mlp.forward_row_us": "mlp.forward_row",
    "mlp.backward_ms": "mlp.backward",
    "mlp.loss_us": "mlp.loss",
    "mlp.rmsprop_us": "mlp.rmsprop",
    "mlp.features_row_us": "mlp.features_row",
    "mlp.features_ms": "mlp.features",
    "neural.train_ms": "neural.train",
    "neural.refit_ms": "neural.refit",
    "neural.choose_us": "neural.choose",
    "neural.observe_us": "neural.observe",
    "samplers.step_us": "samplers.step",
    "samplers.fisher_us": "samplers.fisher",
    "samplers.choose_us": "samplers.choose",
    "config.parse_ms": "config.parse",
    "presets.make_ms": "presets.make",
    "bench.run_s": "bench.run",
    "bench.emit_s": "bench.emit",
}
# Timings that are not one span's duration; see layer_metrics.
DERIVED_TIMINGS = ("core.loop_us", "envs.step_us", "neural.train_self_ms", "samplers.train_ms")
TIMINGS = DERIVED_TIMINGS + tuple(SPAN_TIMINGS)

SCALARS = {
    "envs.calls": "calls/step",
    "linear.sample_calls": "count",
    "linear.factor_calls": "count",
    "linear.factor_reuse": "ratio",
    "linear.solve_calls": "count",
    "mlp.batches": "count",
    "mlp.flops_per_batch": "flop",
    "mlp.bytes_per_batch": "B",
    "mlp.gflops": "GFLOP/s",
    "neural.refit_rows": "count",
    "neural.refit_useful": "ratio",
    "process.import_s": "s",
    "bench.emit_mb": "MB",
    "bench.files": "count",
    "trace.overhead_frac": "ratio",
    "clock.overhead_frac": "ratio",
}

_ENV_CALLS = ("envs.context_at", "envs.realize_reward", "envs.expected_reward",
              "envs.optimal_expected_reward")


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    spec = []
    for base in TIMINGS:
        unit = unit_of(base)
        spec += [(f"{base}.p50", unit), (f"{base}.tail", unit), (f"{base}.n", "count")]
    return spec + list(SCALARS.items())


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not _NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def tail_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9/p99.99 with at least ten of ``n`` samples
    beyond it; p50 when fewer than 20 samples leave no tail to speak of."""
    best = _TAIL_LADDER[0][0]
    for pct, beyond in _TAIL_LADDER:
        if n * beyond >= 10 * 100_000:
            best = pct
    return best


def unit_of(base: str) -> str:
    return base.rsplit("_", 1)[1]


@dataclass
class Metric:
    value: float
    unit: str
    n: Optional[int] = None  # samples behind the value
    note: str = ""


class Table(dict):
    """Ordered metric name -> Metric, names validated on insert."""

    def add(self, name: str, value: float, unit: str, n: Optional[int] = None,
            note: str = "") -> None:
        self[check_name(name)] = Metric(float(value), unit, n, note)

    def timing(self, base: str, samples_ns: np.ndarray) -> None:
        """``<base>.p50``, ``<base>.tail`` and ``<base>.n`` from durations in ns.

        With no samples the layer did no work on this workload, and the
        three read 0.
        """
        unit = unit_of(base)
        n = len(samples_ns)
        p50 = tail = 0.0
        pct = tail_percentile(n)
        if n:
            samples = np.asarray(samples_ns, dtype=np.float64) / _NS_PER[unit]
            p50, tail = np.percentile(samples, [50.0, pct])
        self.add(f"{base}.p50", p50, unit, n)
        self.add(f"{base}.tail", tail, unit, n, note=f"p{pct:g}")
        self.add(f"{base}.n", n, "count")


def mlp_cost(sizes: tuple[int, ...], batch: int) -> tuple[int, int]:
    """Matmul flops and bytes of float64 operands one training batch moves.

    Forward computes X W per layer; backward computes dW for every layer and
    dA for all but the first.  Each product moves its two operands and result.
    """
    flops = bytes_ = 0
    for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        products = 3 if layer > 0 else 2
        flops += products * 2 * batch * fan_in * fan_out
        bytes_ += products * 8 * (batch * fan_in + fan_in * fan_out + batch * fan_out)
    return flops, bytes_


def layer_metrics(tracer: Tracer, shapes: list[tuple[tuple[int, ...], int]],
                  extras: dict[str, float]) -> tuple[Table, list[str]]:
    """Every per-layer metric from one traced round, and the problems found.

    ``shapes`` lists (layer sizes, batch rows) of each trained net; ``extras``
    carries the scalars measured outside the spans.
    """
    cols = tracer.arrays()
    kind, start, end, parent, size, self_ns = (
        cols["kind"], cols["start"], cols["end"], cols["parent"], cols["size"], cols["self"],
    )
    dur = end - start
    ids = {name: i for i, name in enumerate(tracer.kinds)}
    problems = []
    if np.any(self_ns < 0):
        problems.append(f"{int(np.sum(self_ns < 0))} spans' children outlast them")

    def where(*names: str) -> np.ndarray:
        return np.isin(kind, [ids[n] for n in names if n in ids])

    # Steps: the direct children of a run_trial span, cut at each context_at.
    trials = np.flatnonzero(where("core.run_trial"))
    children = np.flatnonzero(np.isin(parent, trials))
    is_ctx = where("envs.context_at")[children]
    step_of = np.cumsum(is_ctx) - 1
    ctx = children[is_ctx]
    steps = len(ctx)
    step_end = np.append(start[ctx][1:], 0)
    last = np.append(parent[ctx][1:] != parent[ctx][:-1], True)
    step_end[last] = end[parent[ctx][last]]
    covered = np.bincount(step_of, weights=dur[children], minlength=steps)
    is_env = where(*_ENV_CALLS)[children]
    env_ns = np.bincount(step_of[is_env], weights=dur[children][is_env], minlength=steps)

    has_children = np.bincount(parent[parent >= 0], minlength=len(kind)) > 0
    train = where("neural.train")
    table = Table()
    table.timing("core.loop_us", (step_end - start[ctx]) - covered)
    table.timing("envs.step_us", env_ns)
    table.timing("neural.train_self_ms", self_ns[train])
    table.timing("samplers.train_ms", dur[where("samplers.maybe_train") & has_children])
    for base, span in SPAN_TIMINGS.items():
        table.timing(base, dur[where(span)])

    def count(name: str) -> int:
        return int(np.sum(where(name)))

    requests = count("linear.factor_request")
    factors = count("linear.cholesky")
    batches = count("mlp.backward")
    refit_spans = np.flatnonzero(where("neural.refit"))
    refits = np.flatnonzero(where("mlp.features") & np.isin(parent, refit_spans))
    rows = size[refits]
    # each refit re-featurizes the whole history; rows new since the last
    # refit of the same cell are the useful part
    same_cell = np.append(False, cols["cell"][refits][1:] == cols["cell"][refits][:-1])
    new_rows = rows - np.where(same_cell, np.append(0, rows[:-1]), 0)
    costs = [mlp_cost(sizes, batch) for sizes, batch in shapes]
    flops, bytes_ = np.mean(costs, axis=0) if costs else (0.0, 0.0)
    mlp_ns = float(np.sum(dur[where("mlp.forward_batch", "mlp.backward")]))

    scalars = {
        "envs.calls": int(np.sum(is_env)) / steps if steps else 0.0,
        "linear.sample_calls": count("linear.sample"),
        "linear.factor_calls": factors,
        "linear.factor_reuse": 1.0 - factors / requests if requests else 0.0,
        "linear.solve_calls": count("linear.solve"),
        "mlp.batches": batches,
        "mlp.flops_per_batch": flops if batches else 0.0,
        "mlp.bytes_per_batch": bytes_ if batches else 0.0,
        "mlp.gflops": flops * batches / mlp_ns if mlp_ns else 0.0,
        "neural.refit_rows": int(np.sum(rows)),
        "neural.refit_useful": float(np.sum(new_rows) / np.sum(rows)) if len(rows) else 0.0,
    }
    scalars.update(extras)
    for name, unit in SCALARS.items():
        table.add(name, scalars[name], unit)
    return table, problems
