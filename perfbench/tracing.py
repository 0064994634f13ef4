"""In-memory spans around calls into banditbench, patched in from outside.

A span is one call: its name, start and end (``perf_counter_ns``), the span
that was open when it began (its parent), the trial cell it ran in, and an
optional size (rows of the array argument, for the row-aware wrappers).  The
library imports names directly (``from scipy.linalg import cholesky``), so
each function is wrapped where its caller looks it up; see
``install_layer_spans``.  ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

from banditbench import bench, config, core, linear, mlp, neural, presets, samplers


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.kinds: list[str] = []  # span name table; spans store an index
        self._kind_ids: dict[str, int] = {}
        self.kind = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.cell = array("q")
        self.size = array("q")
        self._stack = [-1]
        self._cell = -1
        self._cells = 0
        self._undo: list[tuple[object, str, object]] = []

    def _kind(self, name: str) -> int:
        if name not in self._kind_ids:
            self._kind_ids[name] = len(self.kinds)
            self.kinds.append(name)
        return self._kind_ids[name]

    def wrap(self, name: str, fn, row_name: str | None = None):
        """Return ``fn`` recording one span per call.

        With ``row_name``, the second positional argument is an array: calls
        on a single row are recorded under ``row_name``, and every span keeps
        the row count as its size.
        """
        kind, start, end, parent, cell, size, stack = (
            self.kind, self.start, self.end, self.parent, self.cell, self.size, self._stack,
        )
        now = time.perf_counter_ns
        tracer = self
        batch_id = self._kind(name)
        row_id = batch_id if row_name is None else self._kind(row_name)

        def traced(*args, **kwargs):
            i = len(start)
            if row_name is None:
                kind.append(batch_id)
                size.append(0)
            else:
                X = args[1]
                rows = X.shape[0] if getattr(X, "ndim", 1) == 2 else 1
                kind.append(row_id if rows == 1 else batch_id)
                size.append(rows)
            parent.append(stack[-1])
            cell.append(tracer._cell)
            end.append(0)
            stack.append(i)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()

        return traced

    def wrap_cell(self, name: str, fn):
        """Like ``wrap``, and every span under the call carries a new cell id."""
        traced = self.wrap(name, fn)

        def cell_scope(*args, **kwargs):
            self._cell = self._cells
            self._cells += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._cell = -1

        return cell_scope

    def patch(self, owner, attr: str, name: str, row_name: str | None = None,
              cell: bool = False) -> None:
        """Replace ``owner.attr`` (a module or class attribute the owner itself
        defines) with its traced wrapper until ``restore``."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        wrapped = self.wrap_cell(name, original) if cell else self.wrap(name, original, row_name)
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns as int64 arrays, plus each span's self time."""
        cols = {
            "kind": np.frombuffer(self.kind, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "cell": np.frombuffer(self.cell, dtype=np.int64),
            "size": np.frombuffer(self.size, dtype=np.int64),
        }
        cols["self"] = self_times(cols["start"], cols["end"], cols["parent"])
        return cols

    def write_csv(self, path: Path) -> None:
        cols = self.arrays()
        lines = ["name,start_ns,end_ns,parent,cell,rows,self_ns"]
        lines.extend(
            f"{self.kinds[k]},{s},{e},{p},{c},{z},{f}"
            for k, s, e, p, c, z, f in zip(
                cols["kind"].tolist(), cols["start"].tolist(), cols["end"].tolist(),
                cols["parent"].tolist(), cols["cell"].tolist(), cols["size"].tolist(),
                cols["self"].tolist(),
            )
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and children run one after another inside
    their parent, so the covered time is the sum of the children's durations.
    """
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered.astype(np.int64)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every call the per-layer metrics read, where its caller finds it.

    Environment calls are the exception: they are wrapped per instance by
    ``harness.EnvHook``, at the boundary ``run_trial`` sees.
    """
    p = tracer.patch
    p(bench, "run_trial", "core.run_trial", cell=True)
    p(bench, "report_from_traces", "core.reduce")
    p(bench, "normalize_report", "core.reduce")
    p(core.Agent, "maybe_train", "agent.maybe_train")
    p(core.UniformAgent, "choose", "agent.choose")
    p(core.UniformAgent, "observe", "agent.observe")

    p(config, "parse_config", "config.parse")
    p(presets.Preset, "make", "presets.make")
    p(bench, "run_benchmark", "bench.run")
    p(bench, "emit_results", "bench.emit")

    for cls in (linear.LinearThompsonAgent, linear.LinearGreedyAgent):
        p(cls, "choose", "linear.choose")
        p(cls, "observe", "linear.observe")
    p(linear.NIGLinearPosterior, "sample", "linear.sample")
    p(linear.FixedNoiseLinearPosterior, "sample", "linear.sample")
    p(linear._RidgePosterior, "_factor", "linear.factor_request")
    p(linear._RidgePosterior, "batch_update", "linear.batch_update")
    p(linear, "cholesky", "linear.cholesky")
    p(linear, "solve_triangular", "linear.solve")
    p(linear, "cho_solve", "linear.solve")

    # mlp_predict looks mlp_forward up in banditbench.mlp; the trainers use
    # their own module's binding.
    for module in (mlp, neural, samplers):
        p(module, "mlp_forward", "mlp.forward_batch", row_name="mlp.forward_row")
    for module in (neural, samplers):
        p(module, "mlp_backward", "mlp.backward")
        p(module, "masked_mse", "mlp.loss")
    p(mlp.RMSProp, "step", "mlp.rmsprop")
    p(neural, "hidden_features", "mlp.features", row_name="mlp.features_row")

    p(neural.TrainableNet, "train_period", "neural.train")
    p(neural.NeuralLinearAgent, "_refresh_heads", "neural.refit")
    p(neural.NeuralLinearAgent, "choose", "neural.choose")
    p(neural.NeuralLinearAgent, "observe", "neural.observe")
    p(neural.NeuralLinearAgent, "maybe_train", "neural.maybe_train")

    p(samplers._SGChainAgent, "maybe_train", "samplers.maybe_train")
    p(samplers._SGChainAgent, "choose", "samplers.choose")
    p(samplers._SGChainAgent, "observe", "samplers.observe")
    p(samplers, "sgfs_step", "samplers.step")
    p(samplers, "const_sgd_step", "samplers.step")
    p(samplers.FisherEMA, "update", "samplers.fisher")
