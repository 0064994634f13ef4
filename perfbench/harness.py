"""The benchmark's workloads: what one round runs and how its output is checked.

A round is the user's CLI path on one config: ``parse_config``, then
``run_benchmark`` (every agent of the workload plus the Uniform baseline it
appends, one trial each), then ``emit_results``.  A single caller runs it,
one step after another, and the library builds every environment and agent
from the round seed alone.  Each environment it builds passes through an
``EnvHook``, which is where the step clock, the setup probe and the
environment spans attach.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from banditbench import bench, config, presets

from .tracing import Tracer, install_layer_spans

# Warm-up rounds stop here: long enough to reach training on the neural
# agents, short next to a timed round.
WARMUP_HORIZON = 200

_ENVIRONMENT = {
    "linear-corr": "name=linear\ndim=30\nnum_actions=20\ncontext_mean=2.0\nhorizon=2000\n",
    "wheel": "name=wheel\ndelta=0.95\nhorizon=2000\nconstant_feature=true\n",
}


@dataclass(frozen=True)
class Workload:
    name: str
    environment: str
    agents: tuple[str, ...]  # run_benchmark appends Uniform
    check: Callable[[list["Round"]], Optional[str]]

    def config_text(self, run: str = "") -> str:
        blocks = "".join(f'[agent "{a}"]\n' for a in self.agents)
        return f"[environment]\n{self.environment}{blocks}{run}"

    @property
    def run_agents(self) -> tuple[str, ...]:
        """Agents in the order their cells run, one trial each."""
        return self.agents + ("Uniform",)


def round_seed(seed: int, index: int) -> int:
    """Trial seed of round ``index`` in a run started with ``seed``."""
    return seed * 1000 + index


@dataclass
class Round:
    seed: int
    steps: int = 0
    seconds: float = 0.0
    cells: int = 0
    failed: int = 0
    regret: dict[str, float] = field(default_factory=dict)
    fingerprint: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    files: int = 0
    file_bytes: int = 0
    step_ns: list[tuple[str, np.ndarray]] = field(default_factory=list)  # clocked cells


class FirstStep(BaseException):
    """Raised by the setup probe at the first step; not a cell failure."""

    def __init__(self, when_ns: int):
        super().__init__(when_ns)
        self.when_ns = when_ns


_ENV_CALLS = ("context_at", "realize_reward", "expected_reward", "optimal_expected_reward")


class EnvHook:
    """Applied to every environment the library's factory builds.

    ``clock`` reads ``perf_counter_ns`` once per step, as ``run_trial`` asks
    for the step's context; ``probe`` stops the process at the first step;
    ``tracer`` wraps construction and the four calls ``run_trial`` makes.
    """

    def __init__(self, clock: bool = False, probe: bool = False, tracer=None):
        self.clock = clock
        self.probe = probe
        self.tracer = tracer
        self.stamps: list[list[int]] = []
        self._envs: list = []

    def build(self, factory, seed: int):
        if self.tracer is not None:
            env = self.tracer.wrap("envs.build", factory)(seed)
            for call in _ENV_CALLS:
                setattr(env, call, self.tracer.wrap(f"envs.{call}", getattr(env, call)))
            self._envs.append(env)
            return env
        env = factory(seed)
        self._envs.append(env)
        if self.probe:
            def first_step(t):
                raise FirstStep(time.monotonic_ns())
            env.context_at = first_step
        elif self.clock:
            stamps: list[int] = []
            self.stamps.append(stamps)
            mark, now, inner = stamps.append, time.perf_counter_ns, env.context_at

            def context_at(t):
                mark(now())
                return inner(t)
            env.context_at = context_at
        return env

    def release(self) -> None:
        """Drop the wrappers set on each environment.  A wrapper holds its
        environment's bound method, a cycle that would keep every
        environment alive until the next full garbage collection."""
        for env in self._envs:
            for call in _ENV_CALLS:
                vars(env).pop(call, None)
        self._envs = []

    def take_cells(self) -> list[np.ndarray]:
        """Step wall times of each cell stepped since the last call, every
        step but the cell's last; cells come in the order they ran."""
        cells = [np.diff(np.asarray(s, dtype=np.int64)) for s in self.stamps if len(s) > 1]
        self.stamps = []
        return cells


@contextlib.contextmanager
def _hooked(hook: Optional[EnvHook]):
    """Route the library's environment factory through ``hook``."""
    if hook is None:
        yield
        return
    original = bench.build_env_factory

    def build_env_factory(cfg):
        factory = original(cfg)
        return lambda seed: hook.build(factory, seed)

    bench.build_env_factory = build_env_factory
    try:
        yield
    finally:
        bench.build_env_factory = original


def _finite(trace) -> bool:
    return all(
        bool(np.all(np.isfinite(a)))
        for a in (trace.realized_rewards, trace.expected_rewards, trace.optimal_rewards)
    )


def run_round(wl: Workload, seed: int, scratch: Path, horizon: Optional[int] = None,
              hook: Optional[EnvHook] = None) -> Round:
    """Run one round, its environments built through ``hook``.

    Timing covers set-up, trials, reduction and CSV output.
    """
    with _hooked(hook):
        rnd = _cli_round(wl, seed, scratch, horizon)
    if hook is None:
        return rnd
    hook.release()
    if hook.clock:
        cells = hook.take_cells()
        if len(cells) == rnd.cells:
            rnd.step_ns = list(zip(wl.run_agents, cells))
        else:
            rnd.problems.append(f"the clock saw {len(cells)} cells, the round ran {rnd.cells}")
    return rnd


def traced_round(wl: Workload, seed: int, scratch: Path, horizon: Optional[int] = None):
    """``run_round`` with every layer wrapped in spans; returns (Round, Tracer)."""
    tracer = Tracer()
    with tracer:
        install_layer_spans(tracer)
        rnd = run_round(wl, seed, scratch, horizon, EnvHook(tracer=tracer))
    return rnd, tracer


def _cli_round(wl: Workload, seed: int, scratch: Path, horizon: Optional[int]) -> Round:
    out = scratch / f"round-{seed}"
    run = f"[run]\ntrials=1\nseed={seed}\nout={out}\nworkers=1\n"
    if horizon is not None:
        run += f"horizon={horizon}\n"
    rnd = Round(seed, cells=len(wl.run_agents))
    start = time.perf_counter()
    try:
        cfg = config.parse_config(wl.config_text(run))
        result = bench.run_benchmark(cfg)
        written = bench.emit_results(result, cfg.run.out)
    except Exception:
        rnd.failed = rnd.cells
        rnd.problems.append(f"run_benchmark seed {seed}:\n{traceback.format_exc()}")
        shutil.rmtree(out, ignore_errors=True)
        return rnd
    rnd.seconds = time.perf_counter() - start

    try:
        for report in result.reports:
            rnd.regret[report.agent] = float(np.sum(report.cum_regrets))
            for i, trace in enumerate(report.traces):
                rnd.steps += len(trace)
                if not _finite(trace):
                    rnd.failed += 1
                    rnd.problems.append(f"{report.agent} trial {i}: non-finite rewards")
        on_disk = sorted(out.iterdir())
        rnd.files = len(on_disk)
        rnd.file_bytes = sum(p.stat().st_size for p in on_disk)
        want = 2 * rnd.cells + 1  # a trace per cell, a report per agent, the summary
        if rnd.files != want or len(written) != want:
            rnd.problems.append(f"wrote {len(written)} files ({rnd.files} on disk), expected {want}")
        for path in on_disk:
            rnd.fingerprint[path.name] = hashlib.sha256(_without_wall_time(path)).hexdigest()
        rnd.problems.extend(_summary_problems(out / "summary.csv"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rnd


def _without_wall_time(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "summary.csv":
        return data
    # wall time, the last column, is the one cell a rerun may change
    return b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())


def _summary_problems(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    # The environment column is written unquoted, and the linear bandit's
    # name, "linear(d=30,k=20)", holds a comma; the agent and the numeric
    # columns are read from the ends of the line instead.
    numeric = header[2:]
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append({"agent": fields[0], **dict(zip(numeric, fields[-len(numeric):]))})
    problems = []
    for row in rows:
        for key in ("mean_cum_regret", "normalized_cum", "normalized_simple"):
            if not np.isfinite(float(row[key])):
                problems.append(f"summary.csv: {row['agent']} {key} is {row[key]}")
    uniform = [r for r in rows if r["agent"] == "Uniform"]
    if len(uniform) != 1 or any(
        float(uniform[0][k]) != 100.0 for k in ("normalized_cum", "normalized_simple")
    ):
        problems.append("summary.csv: Uniform does not normalize to exactly 100.0")
    return problems


def _ratio(rounds: list[Round], num: str, den: str) -> float:
    """Summed cumulative regret of agent ``num`` over that of agent ``den``."""
    d = sum(r.regret[den] for r in rounds)
    return sum(r.regret[num] for r in rounds) / d if d else float("nan")


# Regret-quality checks, pooled over a run's distinct seeds.  Each threshold
# sits far outside the spread of single trials, so that a change that only
# reorders random draws cannot trip it.  The spreads below are of single
# trials on round seeds 1000 s + r, with s = 0-39 (10-39 on the wheel) and
# 42, 99, 123, 777, 1234, and r = 0-2 (0-1 on the wheel); the mean is
# geometric and log-sd the standard deviation of the log.
def _diag_gap(rounds: list[Round]) -> Optional[str]:
    # Criterion 5's direction: the diagonal covariance loses to the diagonal
    # precision.  135 trials: 1.42-4.21, mean 2.72, log-sd 0.21; 1.15 is
    # four log-sd below the mean for one trial.
    ratio = _ratio(rounds, "LinDiagPost", "LinDiagPrecPost")
    if not ratio > 1.15:
        return f"LinDiagPost/LinDiagPrecPost cumulative regret {ratio:.3f}, want > 1.15"
    return None


def _neural_linear_beats_uniform(rounds: list[Round]) -> Optional[str]:
    # The paper's normalization: below 100 beats Uniform.  70 trials:
    # 0.21-0.84, mean 0.44, log-sd 0.29; 1.0 is 2.8 log-sd above the mean
    # for one trial, and 4 for the two seeds a traced run pools at least.
    ratio = _ratio(rounds, "NeuralLinear", "Uniform")
    if not ratio < 1.0:
        return f"NeuralLinear regret is {ratio:.3f} of Uniform's, want < 1.0"
    return None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("linear-corr", _ENVIRONMENT["linear-corr"],
                 ("LinPost", "LinDiagPost", "LinDiagPrecPost"), _diag_gap),
        Workload("wheel-neural", _ENVIRONMENT["wheel"],
                 ("NeuralLinear", "SGFS"), _neural_linear_beats_uniform),
    )
}


def run_checks(wl: Workload, rounds: list[Round]) -> list[str]:
    """Every problem found in the rounds, then the workload's regret check."""
    problems = [p for r in rounds for p in r.problems]
    # rounds repeated on one seed (clock and trace checks) count once
    complete = list({
        r.seed: r for r in rounds if r.failed == 0 and all(a in r.regret for a in wl.agents)
    }.values())
    if complete:
        quality = wl.check(complete)
        if quality:
            problems.append(quality)
    else:
        problems.append("no round completed, so the regret check could not run")
    return problems


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def net_shapes(wl: Workload) -> list[tuple[tuple[int, ...], int]]:
    """Layer sizes and batch rows of every net the workload's agents train."""
    cfg = config.parse_config(wl.config_text())
    env = bench.build_env_factory(cfg)(0)
    shapes = []
    for spec in cfg.agents:
        agent = presets.get_preset(spec.preset).make(
            env.dim, env.num_actions, env.horizon, 0, spec.overrides
        )
        trainer = getattr(agent, "core", agent)  # NeuralLinear keeps its net in .core
        if hasattr(trainer, "net"):
            batch = trainer.schedule.batch_size if hasattr(trainer, "schedule") else trainer.batch_size
            shapes.append((trainer.net.sizes, batch))
    return shapes
