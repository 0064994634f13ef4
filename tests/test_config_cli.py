"""Config parsing, the benchmark runner, result files, and the CLI."""

import csv
import functools
import time

import numpy as np
import pytest

from banditbench import bench
from banditbench.bench import (
    SUMMARY_HEADER,
    build_env_factory,
    emit_results,
    format_summary_table,
    run_benchmark,
    sanitize_name,
)
from banditbench.cli import main
from banditbench.config import ConfigError, load_config, parse_config
from banditbench.envs import ConstantFeatureEnv, dataset_load
from banditbench.linear import LinearThompsonAgent

GOOD = """\
# tiny wheel benchmark
[environment]
name=wheel
delta=0.5
horizon=60

[agent "LinGreedy"]
epsilon=0.05
[agent "LinPost"]

[run]
trials=2
seed=3
out=outdir
"""


def test_parse_happy_path():
    cfg = parse_config(GOOD)
    assert cfg.environment == {"name": "wheel", "delta": 0.5, "horizon": 60}
    assert [a.preset for a in cfg.agents] == ["LinGreedy", "LinPost"]
    assert cfg.agents[0].overrides == {"epsilon": 0.05}
    assert cfg.agents[0].line == 7
    assert cfg.run.trials == 2 and cfg.run.seed == 3
    assert cfg.run.out == "outdir" and cfg.run.workers == 1
    assert cfg.run.horizon is None


def err(text: str) -> ConfigError:
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value


def test_parse_errors_carry_line_numbers():
    e = err("[environment]\nname=wheel\ndelta=0.5\ndelta=0.6\n")
    assert e.line == 4 and "duplicate key" in str(e)
    e = err("[environment]\nname=wheel\ndelta=0.5\nwat=1\n")
    assert e.line == 4 and "does not accept" in str(e)
    e = err("[environment]\nname=wheel\ndelta=soft\n")
    assert e.line == 3 and "not a valid float" in str(e)
    e = err("[environment]\nname=mars\n")
    assert e.line == 2 and "unknown environment" in str(e)
    e = err('[environment]\nname=wheel\ndelta=0.5\n[agent "Nope"]\n')
    assert e.line == 4 and "unknown agent preset" in str(e)
    e = err(
        '[environment]\nname=wheel\ndelta=0.5\n'
        '[agent "LinGreedy"]\n[agent "LinGreedy"]\n'
    )
    assert e.line == 5 and "duplicate agent block" in str(e)
    e = err('[environment]\nname=wheel\ndelta=0.5\n[agent "LinGreedy"]\nq=3\n')
    assert e.line == 5 and "does not accept key" in str(e)
    e = err('[environment]\nname=wheel\ndelta=0.5\n[agent "LinGreedy"]\nsigma_sq=0.5\n')
    assert e.line == 5 and "does not accept key 'sigma_sq'" in str(e)
    e = err('[environment]\nname=wheel\ndelta=0.5\n[agent "LinPost"]\nintercept=true\n')
    assert e.line == 5 and "constant_feature" in str(e)
    e = err("[environment]\nname=wheel\ndelta=0.5\n[run]\nfoo=1\n")
    assert e.line == 5 and "unknown [run] key" in str(e)
    e = err("[wat]\n")
    assert e.line == 1 and "unrecognized section header" in str(e)
    e = err("x=1\n")
    assert e.line == 1 and "before any section" in str(e)
    e = err("[environment]\nname=wheel\ndelta 0.5\n")
    assert e.line == 3 and "expected key=value" in str(e)
    e = err("[environment]\nname=wheel\n=0.5\n")
    assert e.line == 3 and "empty key" in str(e)
    e = err("[environment]\ndelta=0.5\n")
    assert e.line == 1 and "must set name=" in str(e)
    e = err("[environment]\nname=wheel\n")
    assert e.line == 1 and "requires key 'delta'" in str(e)
    e = err("[environment]\nname=wheel\ndelta=0.5\nconstant_feature=maybe\n")
    assert e.line == 4 and "not a valid bool" in str(e)
    e = err("[environment]\nname=wheel\ndelta=0.5\n[environment]\n")
    assert e.line == 4 and "duplicate [environment]" in str(e)
    e = err("[environment]\nname=wheel\ndelta=0.5\n[run]\n[run]\n")
    assert e.line == 5 and "duplicate [run]" in str(e)


def test_parse_errors_without_lines():
    assert err('[agent "Uniform"]\n').line is None
    e = err("[environment]\nname=wheel\ndelta=0.5\n[run]\ntrials=0\n")
    assert "trials must be positive" in str(e)
    e = err("[environment]\nname=wheel\ndelta=0.5\n[run]\nworkers=0\n")
    assert "workers must be positive" in str(e)
    e = err("[environment]\nname=wheel\ndelta=0.5\n[run]\nhorizon=0\n")
    assert "horizon must be positive" in str(e)


def test_parse_bool_and_column_forms(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("1.0,2.0,a\n3.0,4.0,b\n", encoding="utf-8")
    cfg = parse_config(
        "[environment]\n"
        "name=dataset\n"
        f"path={data}\n"
        "reward_rule=classification\n"
        "header=off\n"
        "label_column=2\n"
        "numeric_columns=0, 1\n"
        "categorical_columns=\n"
    )
    env = cfg.environment
    assert env["header"] is False
    assert env["label_column"] == 2
    assert env["numeric_columns"] == (0, 1)
    assert env["categorical_columns"] == ()
    named = parse_config(
        "[environment]\nname=dataset\npath=x.csv\nreward_rule=classification\n"
        "label_column=species\nnumeric_columns=mass, 3\n"
    )
    assert named.environment["label_column"] == "species"
    assert named.environment["numeric_columns"] == ("mass", 3)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(GOOD, encoding="utf-8")
    assert load_config(str(path)).run.trials == 2


def test_build_env_factory_variants(tmp_path):
    wheel = parse_config("[environment]\nname=wheel\ndelta=0.5\n[run]\nhorizon=30\n")
    env = build_env_factory(wheel)(0)
    assert env.horizon == 30  # run horizon flows into the constructed env
    linear = parse_config("[environment]\nname=linear\ndim=4\nnum_actions=3\nhorizon=20\n")
    env = build_env_factory(linear)(1)
    assert env.dim == 4 and env.num_actions == 3
    wrapped = parse_config(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=10\nconstant_feature=true\n"
    )
    env = build_env_factory(wrapped)(2)
    assert isinstance(env, ConstantFeatureEnv) and env.dim == 3
    data = tmp_path / "d.csv"
    data.write_text("1.0,a\n2.0,b\n3.0,a\n", encoding="utf-8")
    ds = parse_config(
        "[environment]\nname=dataset\n"
        f"path={data}\nreward_rule=classification\nheader=false\n"
        "label_column=1\nnumeric_columns=0\ncategorical_columns=\n"
    )
    factory = build_env_factory(ds)
    a, b = factory(0), factory(1)
    assert a.num_actions == 2
    assert not np.array_equal(a.contexts, b.contexts)  # per-trial shuffles
    bad = parse_config("[environment]\nname=wheel\ndelta=0.5\nnoise_sigma=-1.0\n")
    with pytest.raises(ConfigError, match="environment setup failed"):
        build_env_factory(bad)
    missing = parse_config(
        "[environment]\nname=dataset\npath=/nope.csv\nreward_rule=classification\n"
    )
    with pytest.raises(ConfigError):
        build_env_factory(missing)
    two_char = parse_config(
        f"[environment]\nname=dataset\npath={data}\nreward_rule=classification\n"
        "delimiter=;;\n"
    )
    with pytest.raises(ConfigError, match="delimiter must be one character"):
        build_env_factory(two_char)


def test_run_benchmark_appends_uniform_and_pairs_trials():
    cfg = parse_config(GOOD)
    messages = []
    result = run_benchmark(cfg, progress=messages.append)
    agents = [r.agent for r in result.reports]
    assert agents == ["LinGreedy", "LinPost", "Uniform"]
    assert len(messages) == 3
    for report in result.reports:
        assert report.trials == 2
        assert len(report.traces[0]) == 60
    # paired seeds: every agent faced the identical context stream per trial
    for t in range(2):
        digests = {r.traces[t].context_digest for r in result.reports}
        assert len(digests) == 1
    uniform_norm = next(r for r in result.normalized if r.agent == "Uniform")
    assert uniform_norm.mean_cum_regret == 100.0
    assert uniform_norm.normalized


def test_run_benchmark_horizon_rules():
    cfg = parse_config(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=40\n[run]\nhorizon=25\ntrials=1\n"
    )
    result = run_benchmark(cfg)
    assert result.horizon == 25
    assert all(len(r.traces[0]) == 25 for r in result.reports)
    over = parse_config(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=40\n[run]\nhorizon=99\ntrials=1\n"
    )
    with pytest.raises(ConfigError, match="exceeds"):
        run_benchmark(over)


def read_rows(path):
    return path.read_text(encoding="utf-8").splitlines()


def mask_wall(lines):
    return [",".join(ln.split(",")[:-1]) for ln in lines]


def test_emit_results_files_and_rerun_determinism(tmp_path):
    cfg_text = (
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=30\n"
        '[agent "LinGreedy"]\n[run]\ntrials=2\nseed=1\n'
    )
    outs = []
    for sub in ("a", "b"):
        result = run_benchmark(parse_config(cfg_text))
        outs.append(sorted(emit_results(result, tmp_path / sub)))
    names_a = [p.name for p in outs[0]]
    assert names_a == [
        "regret_curve_LinGreedy.csv",
        "regret_curve_Uniform.csv",
        "summary.csv",
        "trace_LinGreedy_0.csv",
        "trace_LinGreedy_1.csv",
        "trace_Uniform_0.csv",
        "trace_Uniform_1.csv",
    ]
    for pa, pb in zip(outs[0], outs[1]):
        assert pa.name == pb.name
        if pa.name == "summary.csv":
            assert mask_wall(read_rows(pa)) == mask_wall(read_rows(pb))
        else:
            assert pa.read_bytes() == pb.read_bytes()
    summary = read_rows(outs[0][2])
    assert summary[0] == SUMMARY_HEADER
    assert len(summary) == 3
    uniform_row = next(ln for ln in summary if ln.startswith("Uniform,"))
    assert uniform_row.split(",")[6] == "100.0"
    trace = read_rows(outs[0][3])
    assert trace[0].startswith("trial,step,action,")
    assert len(trace) == 31
    curve = read_rows(outs[0][0])
    assert curve[0] == "step,mean_cum_regret,stderr"
    assert len(curve) == 31


def test_summary_quotes_an_environment_name_with_a_comma(tmp_path):
    cfg = parse_config(
        "[environment]\nname=linear\ndim=3\nnum_actions=2\nhorizon=20\n"
        '[agent "LinPost"]\n[run]\ntrials=1\n'
    )
    emit_results(run_benchmark(cfg), tmp_path)
    with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert all(len(row) == 9 for row in rows)
    assert rows[1][1] == "linear(d=3,k=2)"


def test_serial_dataset_run_reads_the_file_once(tmp_path, monkeypatch):
    data = tmp_path / "d.csv"
    data.write_text("".join(f"{i}.0,{'ab'[i % 2]}\n" for i in range(30)), encoding="utf-8")
    loads = []

    def counting_load(spec):
        loads.append(spec)
        return dataset_load(spec)

    monkeypatch.setattr(bench, "dataset_load", counting_load)
    cfg = parse_config(
        f"[environment]\nname=dataset\npath={data}\nreward_rule=classification\n"
        "header=false\nlabel_column=1\nnumeric_columns=0\ncategorical_columns=\n"
        '[agent "LinGreedy"]\n[run]\ntrials=2\nhorizon=20\n'
    )
    result = run_benchmark(cfg)
    assert [r.trials for r in result.reports] == [2, 2]
    assert len(loads) == 1


def test_parallel_workers_match_serial(tmp_path):
    base = (
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=40\nconstant_feature=true\n"
        '[agent "LinGreedy"]\n'
        '[agent "SGFS"]\ntrain_every=5\nbatches_per_period=2\nbatch_size=8\nburn_in=2\n'
        '[agent "BBB"]\ntrain_every=5\nbatches_per_period=2\nbatch_size=8\nramp_initial=3\n'
        "[run]\ntrials=2\nseed=0\nworkers={w}\n"
    )
    serial = run_benchmark(parse_config(base.format(w=1)))
    parallel = run_benchmark(parse_config(base.format(w=2)))
    assert len(serial.reports) == len(parallel.reports) == 4
    for rs, rp in zip(serial.reports, parallel.reports):
        assert rs.agent == rp.agent
        np.testing.assert_array_equal(rs.cum_regrets, rp.cum_regrets)
        for ts, tp in zip(rs.traces, rp.traces):
            np.testing.assert_array_equal(ts.actions, tp.actions)
            np.testing.assert_array_equal(ts.realized_rewards, tp.realized_rewards)


def _logged_trial(log, run_trial, env, agent, seed, *args):
    with log.open("a", encoding="utf-8") as fh:
        fh.write(f"{agent.name} {seed}\n")
    if agent.name == "LinGreedy" and seed == 0:
        raise RuntimeError("the first cell fails")
    time.sleep(0.2)
    return run_trial(env, agent, seed, *args)


def _failing_progress(message):
    raise RuntimeError("progress fails")


@pytest.mark.parametrize("first", ["LinGreedy", "LinPost"])
def test_a_failure_cancels_the_queued_cells(first, tmp_path, monkeypatch):
    # LinGreedy first: its first cell raises in a worker.  LinPost first: the
    # cells succeed and the progress callback raises on the first report.
    log = tmp_path / "cells.log"
    monkeypatch.setattr(bench, "run_trial", functools.partial(_logged_trial, log, bench.run_trial))
    names = [first] + [n for n in ("LinGreedy", "LinPost", "LinDiagPost", "LinFullPost",
                                   "LinFullDiagPost") if n != first]
    cfg = parse_config(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=20\n"
        + "".join(f'[agent "{n}"]\n' for n in names)
        + "[run]\ntrials=4\nseed=0\nworkers=2\n"
    )
    with pytest.raises(RuntimeError, match="fails"):
        run_benchmark(cfg, _failing_progress)
    started = log.read_text(encoding="utf-8").splitlines()
    assert len(started) <= 12, started  # of 24 queued cells


@pytest.mark.parametrize("workers", [1, 2])
def test_a_bad_agent_value_fails_before_any_cell(workers, tmp_path, monkeypatch, capsys):
    log = tmp_path / "cells.log"
    monkeypatch.setattr(bench, "run_trial", functools.partial(_logged_trial, log, bench.run_trial))
    monkeypatch.chdir(tmp_path)
    text = (
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=20\n"
        '[agent "LinGreedy"]\n[agent "SGFS"]\nburn_in=-1\n'
        f"[run]\ntrials=2\nseed=1\nworkers={workers}\n"
    )
    with pytest.raises(ConfigError, match=r"^line 6: agent 'SGFS': burn_in must be >= 0$"):
        run_benchmark(parse_config(text))
    assert not log.exists()
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.count("line 6: agent 'SGFS'") == 2
    assert not log.exists()


_DATASET = "name=dataset\npath={data}\nheader=false\ncategorical_columns=\nnumeric_columns=0\n"


@pytest.mark.parametrize("environment, data, reason", [
    ("name=wheel\ndelta=0.5\nnoise_sigma=nan", "", "noise_sigma must be finite, got nan"),
    ("name=wheel\ndelta=0.5\nsafe_reward=nan", "", "safe_reward must be finite, got nan"),
    ("name=wheel\ndelta=0.5\ninner_reward=-inf", "", "inner_reward must be finite, got -inf"),
    ("name=wheel\ndelta=0.5\nouter_reward=inf", "", "outer_reward must be finite, got inf"),
    ("name=linear\nbeta_variance=inf", "", "beta_variance must be finite, got inf"),
    ("name=linear\ncontext_mean=nan", "", "context_mean must be finite, got nan"),
    ("name=linear\nnoise_sigma=nan", "", "noise_sigma must be finite and >= 0, got nan"),
    # finite inputs whose rewards overflow
    ("name=linear\ncontext_mean=1e308\nbeta_variance=1e10", "",
     "expected rewards must be finite: row 0 is not"),
    # finite contexts whose outer products overflow
    ("name=linear\ndim=2\nnum_actions=1\ncontext_mean=1e308", "",
     "contexts must have a finite squared norm: row 0 does not"),
    (_DATASET + "reward_rule=classification\nlabel_column=1", "1.0,a\ninf,b\n3.0,a\n",
     "contexts must be finite: row 1 is not"),
    (_DATASET + "reward_rule=direct_columns\nreward_columns=1,2", "1.0,0.5,1.0\n2.0,-inf,1.0\n",
     "expected rewards must be finite: row 1 is not"),
], ids=["wheel-noise_sigma", "wheel-safe_reward", "wheel-inner_reward", "wheel-outer_reward",
        "linear-beta_variance", "linear-context_mean", "linear-noise_sigma", "linear-overflow",
        "linear-square-overflow", "dataset-context", "dataset-reward"])
def test_a_non_finite_environment_value_fails_before_any_cell(
    environment, data, reason, tmp_path, monkeypatch, capsys
):
    log = tmp_path / "cells.log"
    monkeypatch.setattr(bench, "run_trial", functools.partial(_logged_trial, log, bench.run_trial))
    monkeypatch.chdir(tmp_path)
    data_path = tmp_path / "d.csv"
    data_path.write_text(data, encoding="utf-8")
    path = tmp_path / "bad.cfg"
    path.write_text(
        f"[environment]\n{environment.format(data=data_path)}\n"
        '[agent "LinGreedy"]\n[run]\ntrials=1\nhorizon=2\n',
        encoding="utf-8",
    )
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.count(reason) == 2
    assert not log.exists()


def _fail_on_trial_one(run_trial, env, agent, seed, *args):
    if seed == 1:
        raise ValueError("singular precision")
    return run_trial(env, agent, seed, *args)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_cell_names_its_agent_and_trial(workers, monkeypatch):
    monkeypatch.setattr(bench, "run_trial", functools.partial(_fail_on_trial_one, bench.run_trial))
    cfg = parse_config(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=20\n"
        f'[agent "LinPost"]\n[run]\ntrials=2\nseed=0\nworkers={workers}\n'
    )
    with pytest.raises(RuntimeError) as info:
        run_benchmark(cfg)
    assert str(info.value) == (
        "agent 'LinPost' trial 1 (seed 1) failed: ValueError: singular precision"
    )
    if workers == 1:
        assert isinstance(info.value.__cause__, ValueError)


def _singular_at_step_7(self, context, rng):
    # every step so far was observed, so the counts sum to the step number
    if self.posterior.count.sum() == 7:
        raise np.linalg.LinAlgError("not positive definite")
    return 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_step_is_named(workers, monkeypatch):
    monkeypatch.setattr(LinearThompsonAgent, "choose", _singular_at_step_7)
    cfg = parse_config(
        "[environment]\nname=linear\ndim=3\nnum_actions=2\nhorizon=20\n"
        f'[agent "LinPost"]\n[run]\ntrials=1\nseed=0\nworkers={workers}\n'
    )
    with pytest.raises(RuntimeError) as info:
        run_benchmark(cfg)
    assert str(info.value) == (
        "agent 'LinPost' trial 0 (seed 0) failed: "
        "RuntimeError: LinAlgError at step 7: not positive definite"
    )


def test_sanitize_name():
    assert sanitize_name("LinGreedy(eps=0.01)") == "LinGreedy_eps=0.01"
    assert sanitize_name("wheel(delta=0.95)+const") == "wheel_delta=0.95_const"


def test_format_summary_table_rms_column():
    cfg = parse_config(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=20\n"
        '[agent "LinGreedy"]\n[run]\ntrials=1\n'
    )
    table = format_summary_table(run_benchmark(cfg))
    assert "wall/RMS" not in table
    assert table.splitlines()[0].startswith("agent")
    assert any(ln.startswith("LinGreedy") for ln in table.splitlines())


def test_cli_presets_and_validate(tmp_path, capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "LinFullPost" in out and "NeuralLinear" in out
    path = tmp_path / "ok.cfg"
    path.write_text(GOOD, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "OK: environment=wheel" in capsys.readouterr().out
    bad = tmp_path / "bad.cfg"
    bad.write_text("[environment]\nname=wheel\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_cli_run_writes_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text(
        "[environment]\nname=wheel\ndelta=0.5\nhorizon=30\n"
        '[agent "LinGreedy"]\n[run]\ntrials=2\nout=results\n',
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "LinGreedy: mean cumulative regret" in out
    assert "wrote 7 files to results" in out
    assert (tmp_path / "results" / "summary.csv").exists()


def test_cli_runtime_failure_exits_one(tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD, encoding="utf-8")

    def boom(*a, **kw):
        raise RuntimeError("disk full")

    monkeypatch.setattr("banditbench.cli.run_benchmark", boom)
    assert main(["run", str(path)]) == 1
    assert "disk full" in capsys.readouterr().err
