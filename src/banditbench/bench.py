"""Run a parsed benchmark config and emit CSV results.

Each agent preset runs ``trials`` paired trials (trial i uses seed
``run.seed + i`` for environment realization and agent randomness alike), a
Uniform baseline is appended when the config omits it, and every agent's
regret is reported raw and normalized to percent of Uniform's mean.  Output
files are a per-trial step trace, a per-agent mean regret curve, and one
summary table; all numeric cells use shortest round-trip float formatting so
reruns of the same config byte-match (wall time excepted).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import functools
import itertools
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .config import AgentSpec, BenchmarkConfig, ConfigError
from .core import (
    Environment,
    ExperimentReport,
    RegretTrace,
    normalize_report,
    regret_curve,
    report_from_traces,
    run_trial,
)
from .envs import (
    ConstantFeatureEnv,
    DatasetSpec,
    LinearConfig,
    SampledLinearBandit,
    WheelBandit,
    WheelConfig,
    dataset_load,
)
from .presets import get_preset

WARMUP_PULLS = 3

SUMMARY_HEADER = (
    "agent,environment,mean_cum_regret,stderr_cum,mean_simple_regret,"
    "stderr_simple,normalized_cum,normalized_simple,wall_time_seconds"
)


def build_env_factory(config: BenchmarkConfig) -> Callable[[int], Environment]:
    """Environment factory honoring the run horizon; raises ConfigError.

    The factory pickles, so worker processes get it as built here (a dataset
    is read once per run, not once per cell).
    """
    env = dict(config.environment)
    name = env.pop("name")
    constant = env.pop("constant_feature", False)
    run_horizon = config.run.horizon
    if run_horizon is not None and "horizon" not in env and name != "dataset":
        env["horizon"] = run_horizon
    try:
        if name == "wheel":
            factory = functools.partial(WheelBandit, WheelConfig(**env))
        elif name == "linear":
            factory = functools.partial(SampledLinearBandit, LinearConfig(**env))
        else:
            factory = dataset_load(DatasetSpec(**env)).shuffled
    except (ValueError, OSError) as exc:
        raise ConfigError(f"environment setup failed: {exc}") from exc
    if constant:
        return functools.partial(_with_constant_feature, factory)
    return factory


def _with_constant_feature(factory: Callable[[int], Environment], seed: int) -> Environment:
    return ConstantFeatureEnv(factory(seed))


def _agent_specs(config: BenchmarkConfig) -> list[AgentSpec]:
    specs = list(config.agents)
    if not any(s.preset == "Uniform" for s in specs):
        specs.append(AgentSpec(preset="Uniform", overrides={}, line=0))
    return specs


def _resolve_horizon(config: BenchmarkConfig, probe: Environment) -> int:
    horizon = config.run.horizon
    if horizon is None:
        return probe.horizon
    if horizon > probe.horizon:
        raise ConfigError(
            f"run horizon {horizon} exceeds the environment's {probe.horizon} steps"
        )
    return horizon


def _run_cell(
    config: BenchmarkConfig,
    horizon: int,
    env_factory: Callable[[int], Environment],
    cell: tuple[AgentSpec, int],
) -> tuple[RegretTrace, float]:
    """One (agent, trial) cell and its wall time; runs in a worker as is."""
    spec, trial = cell
    seed = config.run.seed + trial
    env = env_factory(seed)
    agent = get_preset(spec.preset).make(
        env.dim, env.num_actions, horizon, seed, spec.overrides
    )
    start = time.perf_counter()
    trace = run_trial(env, agent, seed, horizon, WARMUP_PULLS)
    return trace, time.perf_counter() - start


@dataclass
class BenchmarkResult:
    config: BenchmarkConfig
    horizon: int
    reports: list[ExperimentReport]
    normalized: list[ExperimentReport]

    def report_pairs(self) -> list[tuple[ExperimentReport, ExperimentReport]]:
        return list(zip(self.reports, self.normalized))


def run_benchmark(
    config: BenchmarkConfig, progress: Optional[Callable[[str], None]] = None
) -> BenchmarkResult:
    """Execute every agent block (plus Uniform) and normalize the reports."""
    say = progress or (lambda msg: None)
    specs = _agent_specs(config)
    env_factory = build_env_factory(config)
    probe = env_factory(config.run.seed)
    horizon = _resolve_horizon(config, probe)
    trials = config.run.trials

    cell = functools.partial(_run_cell, config, horizon, env_factory)
    cells = [(spec, t) for spec in specs for t in range(trials)]
    reports: list[ExperimentReport] = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if config.run.workers > 1:
            pool = concurrent.futures.ProcessPoolExecutor(config.run.workers)
            # on a failure, drop the queued cells instead of running them all
            stack.callback(pool.shutdown, cancel_futures=True)
            mapper = pool.map
        results = mapper(cell, cells)
        for spec in specs:
            traces, walls = zip(*itertools.islice(results, trials))
            wall = sum(walls)
            reports.append(report_from_traces(traces, config.run.seed, wall))
            say(f"{spec.preset}: mean cumulative regret "
                f"{reports[-1].mean_cum_regret:.4f} ({trials} trials, {wall:.1f}s)")

    uniform = next(r for r in reports if r.agent == "Uniform")
    normalized = [normalize_report(r, uniform) for r in reports]
    return BenchmarkResult(config, horizon, reports, normalized)


def _fmt(x) -> str:
    return repr(float(x))


def sanitize_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]+", "_", name).strip("_")


def emit_results(result: BenchmarkResult, out_dir) -> list[Path]:
    """Write trace, regret-curve, and summary CSVs; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    for report in result.reports:
        san = sanitize_name(report.agent)
        for i, trace in enumerate(report.traces):
            path = out / f"trace_{san}_{i}.csv"
            inst = trace.instantaneous_regret()
            lines = ["trial,step,action,realized_reward,optimal_expected_reward,instantaneous_regret"]
            for step in range(len(trace)):
                lines.append(
                    f"{i},{step},{trace.actions[step]},{_fmt(trace.realized_rewards[step])},"
                    f"{_fmt(trace.optimal_rewards[step])},{_fmt(inst[step])}"
                )
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)

        mean, err = regret_curve(report.traces)
        path = out / f"regret_curve_{san}.csv"
        lines = ["step,mean_cum_regret,stderr"]
        for step in range(len(mean)):
            lines.append(f"{step},{_fmt(mean[step])},{_fmt(err[step])}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    path = out / "summary.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        # QUOTE_MINIMAL quotes only cells holding a comma or a quote, such as
        # the linear bandit's "linear(d=30,k=20)".
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER.split(","))
        for raw, norm in result.report_pairs():
            numbers = (raw.mean_cum_regret, raw.stderr_cum, raw.mean_simple_regret,
                       raw.stderr_simple, norm.mean_cum_regret, norm.mean_simple_regret,
                       raw.wall_time_seconds)
            writer.writerow([raw.agent, raw.environment, *map(_fmt, numbers)])
    written.append(path)
    return written


def format_summary_table(result: BenchmarkResult) -> str:
    """Human-readable stdout table; wall time is normalized to the RMS preset
    when one is in the run."""
    rms = next((r for r in result.reports if r.agent == "RMS"), None)
    header = f"{'agent':<24}{'cum regret':>14}{'simple':>12}{'norm cum':>12}{'wall s':>10}"
    rows = [header]
    if rms is not None:
        rows[0] += f"{'wall/RMS':>10}"
    for raw, norm in result.report_pairs():
        row = (
            f"{raw.agent:<24}{raw.mean_cum_regret:>14.4f}{raw.mean_simple_regret:>12.4f}"
            f"{norm.mean_cum_regret:>12.2f}{raw.wall_time_seconds:>10.2f}"
        )
        if rms is not None and rms.wall_time_seconds > 0:
            row += f"{raw.wall_time_seconds / rms.wall_time_seconds:>10.2f}"
        rows.append(row)
    return "\n".join(rows)
