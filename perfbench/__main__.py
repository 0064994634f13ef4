"""Run one workload of the banditbench benchmark and print its metrics.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the library is imported from ``src/``.
Workloads are defined in ``perfbench/harness.py``.  One caller runs rounds
back to back (a closed loop, one worker, one BLAS thread) until ``--seconds``
have passed, after a short untimed warm-up round.

``--trace 0`` prints the end-to-end metrics; only the environment's
``context_at`` is clocked, once per step, and set-up is probed in a fresh
interpreter before each timed round.  ``--trace 1`` runs groups of three
rounds on one seed instead: clocked, plain, and with every layer wrapped in
spans, at least two groups.  It checks that the three write the same
output, and prints the per-layer metrics of the first group's spans.  Human
readable lines go first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 all outputs correct; 1 a check failed; 2 usage error or the
library cannot be imported from ``src/``.
"""

import os
import sys
import time

# Fixed before numpy is imported: OpenBLAS reads these once, at load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # spans, result records, round CSVs
SETUP_PROBES = 7  # at least: one before each timed round, the rest after the last
MIN_GROUPS = 2  # traced groups, so that the regret check pools two seeds at least
# Printed and recorded, but left out of the result line and BENCHMARK.json:
# on this host the run-to-run spread of a per-step p99 on the linear
# workloads (0.24-0.54 of its median) is wider than any bound allowed there.
PRINTED_ONLY = ("step_us_p99",)


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample, printed as the monotonic time of step one
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library() -> float:
    """Import banditbench from this checkout's src/; return the import time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import banditbench

    elapsed = time.perf_counter() - start
    where = Path(banditbench.__file__).resolve().parent
    if where != SRC / "banditbench":
        raise ImportError(f"banditbench was imported from {where}, not from {SRC}")
    return elapsed


def _conditions(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    for module in (numpy, scipy):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = f"{dep.get('name')} {dep.get('version')}"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "workers": 1,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _probe(harness, wl, seed: int) -> int:
    hook = harness.EnvHook(probe=True)
    try:
        harness.run_round(wl, harness.round_seed(seed, 0), OUT / wl.name, hook=hook)
    except harness.FirstStep as stop:
        print(stop.when_ns)
        return 0
    return 1


def _setup_seconds(wl, seed: int) -> float:
    """Process start to first step of one fresh interpreter."""
    cmd = [sys.executable, "-m", "perfbench", "--workload", wl.name, "--seed", str(seed),
           "--probe-setup"]
    began = time.monotonic_ns()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return (int(done.stdout.split()[-1]) - began) / 1e9


def _steps_per_s(rounds) -> float:
    """Median over rounds of each round's steps per second.

    The median shrugs off rounds that a busy neighbour on the host slowed.
    """
    return statistics.median(r.steps / r.seconds for r in rounds if r.seconds > 0)


def _step_percentile_us(rounds, agents, pct: float) -> float:
    """Percentile of step wall time, robust to agents' mixed costs and to a
    busy host.

    Agents differ in step cost by up to 20x, so a percentile of all steps
    pooled falls in the gap between two agents' modes and jumps with small
    shifts.  Each agent's steps in each round give one percentile; each agent
    takes the median over rounds; the geometric mean weighs agents alike.
    Only the workload's own ``agents`` count: the Uniform baseline that
    run_benchmark appends takes ~20 us a step, all interpreter overhead,
    which this host runs at two speeds 1.5x apart.
    """
    import numpy as np

    by_agent: dict[str, list[float]] = {}
    for rnd in rounds:
        cells: dict[str, list] = {}
        for agent, step_ns in rnd.step_ns:
            if agent in agents:
                cells.setdefault(agent, []).append(step_ns)
        for agent, parts in cells.items():
            by_agent.setdefault(agent, []).append(np.percentile(np.concatenate(parts), pct) / 1e3)
    return statistics.geometric_mean(statistics.median(v) for v in by_agent.values())


def _end_to_end(harness, metrics, wl, seed: int, seconds: float):
    harness.run_round(wl, harness.round_seed(seed, 0), OUT / wl.name, harness.WARMUP_HORIZON)
    # Set-up is probed before each timed round rather than all at once, so a
    # minute in which the host runs slow moves few of its samples.  Probes
    # are not counted in the ``seconds`` the rounds run for.
    setup, rounds, spent = [], [], 0.0
    while not rounds or spent < seconds:
        setup.append(_setup_seconds(wl, seed))
        began = time.perf_counter()
        rounds.append(harness.run_round(wl, harness.round_seed(seed, len(rounds)), OUT / wl.name,
                                        hook=harness.EnvHook(clock=True)))
        spent += time.perf_counter() - began
        harness.log(f"round {len(rounds) - 1}: {rounds[-1].steps} steps "
                    f"in {rounds[-1].seconds:.2f} s, set-up {setup[-1]:.3f} s")
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_seconds(wl, seed))
    steps = sum(len(ns) for rnd in rounds for agent, ns in rnd.step_ns if agent in wl.agents)
    table = metrics.Table()
    table.add("setup_s", statistics.median(setup), "s", len(setup))
    table.add("steps_per_s", _steps_per_s(rounds), "steps/s", sum(r.steps for r in rounds),
              note=f"median over {len(rounds)} rounds")
    for pct in (50, 99) if steps else ():
        table.add(f"step_us_p{pct}", _step_percentile_us(rounds, wl.agents, pct), "us", steps,
                  note=f"per agent and round, median over {len(rounds)} rounds, "
                       "geometric mean over agents")
    table.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return table, rounds, []


def _same_seed_rounds(harness, wl, seed_r: int, reverse: bool):
    """A clocked, a plain and a traced round on one seed, back to back.

    Returns ({variant: Round}, Tracer).  ``reverse`` runs them in the
    opposite order, so that a host speeding up or slowing down across
    successive groups biases the overheads both ways.
    """
    out = OUT / wl.name
    order = ("clocked", "plain", "traced")
    rounds, tracer = {}, None
    for name in order[::-1] if reverse else order:
        if name == "traced":
            rounds[name], tracer = harness.traced_round(wl, seed_r, out)
        else:
            hook = harness.EnvHook(clock=True) if name == "clocked" else None
            rounds[name] = harness.run_round(wl, seed_r, out, hook=hook)
        harness.log(f"seed {seed_r} {name}: {rounds[name].steps} steps "
                    f"in {rounds[name].seconds:.2f} s")
    return rounds, tracer


def _overhead(groups, variant: str) -> float:
    """Median over same-seed groups of 1 - (variant's steps/s) / (plain steps/s)."""
    ratios = [1.0 - g["plain"].seconds / g[variant].seconds
              for g in groups if g["plain"].seconds > 0 and g[variant].seconds > 0]
    return statistics.median(ratios) if ratios else float("nan")


def _per_layer(harness, metrics, wl, seed: int, seconds: float, import_s: float):
    harness.run_round(wl, harness.round_seed(seed, 0), OUT / wl.name, harness.WARMUP_HORIZON)
    groups, tracer, spent = [], None, 0.0
    while len(groups) < MIN_GROUPS or spent < seconds:
        began = time.perf_counter()
        group, spans = _same_seed_rounds(harness, wl, harness.round_seed(seed, len(groups)),
                                         reverse=len(groups) % 2 == 1)
        spent += time.perf_counter() - began
        groups.append(group)
        if tracer is None:  # the per-layer figures come from the first group alone
            tracer = spans
    problems = []
    for g in groups:
        for name in ("clocked", "traced"):
            if g[name].fingerprint != g["plain"].fingerprint or g[name].regret != g["plain"].regret:
                problems.append(f"the {name} round's output differs from the plain round's "
                                f"at seed {g['plain'].seed}")
    traced = groups[0]["traced"]
    extras = {
        "process.import_s": import_s,
        "clock.overhead_frac": _overhead(groups, "clocked"),
        "trace.overhead_frac": _overhead(groups, "traced"),
        "bench.emit_mb": traced.file_bytes / 1e6,
        "bench.files": traced.files,
    }
    table, span_problems = metrics.layer_metrics(tracer, harness.net_shapes(wl), extras)
    table["clock.overhead_frac"].n = table["trace.overhead_frac"].n = len(groups)
    tracer.write_csv(OUT / f"spans-{wl.name}.csv")
    rounds = [rnd for g in groups for rnd in g.values()]
    return table, rounds, problems + span_problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import_s = _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import banditbench from {SRC}: {exc}", file=sys.stderr)
        return 2
    from . import harness, metrics

    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return _probe(harness, wl, args.seed)

    if args.trace:
        table, rounds, problems = _per_layer(harness, metrics, wl, args.seed, args.seconds, import_s)
    else:
        table, rounds, problems = _end_to_end(harness, metrics, wl, args.seed, args.seconds)
    problems = problems + harness.run_checks(wl, rounds)
    attempted = sum(r.cells for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = failed == 0 and not problems

    conditions = _conditions(args.seed)
    print(f"conditions {json.dumps(conditions)}")
    print(f"workload {wl.name}: {len(rounds)} rounds, {attempted} cells, {failed} failed")
    print(f"  failed_frac = {failed / attempted if attempted else 0.0!r} ratio (n={attempted} cells)")
    for name, m in table.items():
        extra = f", {m.note}" if m.note else ""
        n = "" if m.n is None else f" (n={m.n}{extra})"
        print(f"  {name} = {m.value!r} {m.unit}{n}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("check: " + ("all outputs correct" if correct else f"{len(problems)} problems"))

    record = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds,
        "conditions": conditions, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems,
        "metrics": {k: vars(m) for k, m in table.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m.value, "unit": m.unit}
                    for k, m in table.items() if k not in PRINTED_ONLY},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
