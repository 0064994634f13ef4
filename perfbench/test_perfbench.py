"""Tests of the benchmark harness: tails, self times, names, exact counts.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
Rounds here are cut to a short horizon; the counts they compare are exact.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from banditbench import linear
from perfbench import harness, metrics
from perfbench.tracing import Tracer, self_times

SHORT = 200
EXACT_COUNTS = ("mlp.batches", "linear.factor_calls", "linear.sample_calls", "envs.calls",
                "neural.refit_rows")
# scalars measured outside the spans; any value serves here
EXTRAS = {"process.import_s": 1.0, "bench.emit_mb": 1.0, "bench.files": 1,
          "trace.overhead_frac": 0.1, "clock.overhead_frac": 0.0}


@pytest.mark.parametrize("n, pct", [
    (0, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99), (10**7, 99.99),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert metrics.tail_percentile(n) == pct


def test_timing_reports_median_tail_and_count():
    table = metrics.Table()
    table.timing("x.step_us", np.arange(1, 1001) * 1000)  # 1..1000 us
    assert table["x.step_us.p50"].value == pytest.approx(500.5)
    assert table["x.step_us.tail"].value == pytest.approx(np.percentile(np.arange(1, 1001), 99))
    assert table["x.step_us.tail"].note == "p99"
    assert table["x.step_us.n"].value == 1000
    table.timing("y.train_ms", np.empty(0))
    assert [table[f"y.train_ms.{s}"].value for s in ("p50", "tail", "n")] == [0.0, 0.0, 0.0]


def test_self_time_subtracts_direct_children_only():
    #   0 [0, 100) -> 1 [10, 40) -> 2 [15, 25);  0 -> 3 [50, 90)
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_tracer_nests_spans_and_restores_patches():
    class Owner:
        def leaf(self):
            return 1

        def outer(self):
            return self.leaf() + self.leaf()

    original = vars(Owner)["leaf"]
    with Tracer() as tracer:
        tracer.patch(Owner, "leaf", "t.leaf")
        tracer.patch(Owner, "outer", "t.outer")
        assert Owner().outer() == 2
    assert vars(Owner)["leaf"] is original
    cols = tracer.arrays()
    assert [tracer.kinds[k] for k in cols["kind"]] == ["t.outer", "t.leaf", "t.leaf"]
    assert cols["parent"].tolist() == [-1, 0, 0]
    dur = cols["end"] - cols["start"]
    assert cols["self"][0] == dur[0] - dur[1] - dur[2]
    assert np.all(cols["self"] >= 0)


@pytest.mark.parametrize("name", ["setup_s", "linear.sample_us.p50", "a-b_c.9", "x" * 64])
def test_metric_name_accepted(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", "a/b", ".lead", "_lead", "x" * 65, "µs"])
def test_metric_name_rejected(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics.check_name(m["name"])


def _traced_counts(wl, tmp_path):
    rnd, tracer = harness.traced_round(wl, 7, tmp_path, SHORT)
    table, problems = metrics.layer_metrics(tracer, harness.net_shapes(wl), EXTRAS)
    assert problems == []
    return rnd, {name: table[name].value for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_exact_counts_repeat_and_tracing_is_transparent(workload, tmp_path):
    wl = harness.WORKLOADS[workload]
    plain = harness.run_round(wl, 7, tmp_path, SHORT)
    first, counts = _traced_counts(wl, tmp_path)
    second, again = _traced_counts(wl, tmp_path)
    assert counts == again
    assert counts["envs.calls"] == 4.0
    assert counts["linear.sample_calls"] > 0
    assert (counts["mlp.batches"] > 0) == (workload == "wheel-neural")
    for rnd in (first, second):
        assert rnd.failed == 0 and rnd.problems == []
        assert rnd.fingerprint == plain.fingerprint
        assert rnd.regret == plain.regret
    assert linear.cholesky is scipy.linalg.cholesky  # patches were undone


def test_a_raising_agent_fails_the_cells_of_its_round(tmp_path, monkeypatch):
    def broken(self, context, rng):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(linear.LinearThompsonAgent, "choose", broken)
    rnd = harness.run_round(harness.WORKLOADS["linear-corr"], 0, tmp_path, SHORT)
    # run_benchmark stops at the first failure, so no cell of the round counts
    assert (rnd.cells, rnd.failed) == (4, 4)
    problems = harness.run_checks(harness.WORKLOADS["linear-corr"], [rnd])
    assert any("LinAlgError" in p for p in problems)
