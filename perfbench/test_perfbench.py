"""Tests of the benchmark itself: checks, metric names, tracer, guard.

Every workload runs at its ``tiny`` size here, so the file takes seconds.
"""

import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

import pytest

from perfbench import harness, workloads
from perfbench.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _rep(name, seed, tracer=None):
    return harness.run_rep(name, workloads.make_inputs(name, seed, "tiny"),
                           tracer)


# -- the checker ---------------------------------------------------------------------

LOG = [(0.5, 0, 1, 0), (0.75, 0, 0, 0), (1.0, 0, 0, 1), (1.25, 0, 1, 1)]
EXPECTED = [(0, worker, rnd) for worker in range(2) for rnd in range(2)]


def test_checker_accepts_a_complete_log():
    assert workloads.check_deliveries(LOG, EXPECTED) == (0, [])


def test_checker_rejects_a_dropped_message():
    undelivered, problems = workloads.check_deliveries(LOG[:-1], EXPECTED)
    assert undelivered == 1
    assert any("never delivered" in p for p in problems)


def test_checker_rejects_a_duplicated_or_misrouted_message():
    _, problems = workloads.check_deliveries(LOG + [LOG[0]], EXPECTED)
    assert any("duplicate" in p for p in problems)
    _, problems = workloads.check_deliveries(
        LOG[:-1] + [(1.25, 1, 1, 1)], EXPECTED)
    assert any("unexpected" in p for p in problems)


def test_checker_rejects_a_perturbed_date():
    pin = {"makespan": (1.25).hex(), "digest": workloads.date_digest(LOG)}
    good = workloads.Outcome(units=8, attempted=4, failed=0, makespan=1.25,
                             digest=workloads.date_digest(LOG))
    assert workloads.check_pin(good, pin) == []
    shifted = list(LOG)
    shifted[2] = (math.nextafter(1.0, 2.0),) + LOG[2][1:]
    bad = workloads.Outcome(units=8, attempted=4, failed=0, makespan=1.25,
                            digest=workloads.date_digest(shifted))
    assert any("digest" in p for p in workloads.check_pin(bad, pin))
    late = workloads.Outcome(units=8, attempted=4, failed=0,
                             makespan=math.nextafter(1.25, 2.0),
                             digest=pin["digest"])
    assert any("makespan" in p for p in workloads.check_pin(late, pin))


def test_checker_rejects_an_out_of_tolerance_bandwidth():
    assert workloads.check_bandwidth(125e6 * 0.999, 125e6) == []
    assert workloads.check_bandwidth(125e6 * 0.98, 125e6)


def test_every_benchmark_workload_has_a_default_seed_pin():
    pins = harness.load_pins()["full"]
    for name in _benchmark_workloads():
        assert str(workloads.DEFAULT_SEED) in pins[name]


def test_measure_checks_the_pinned_dates(monkeypatch):
    outcome = _rep("zoned_grid", 1).outcome
    pin = {"makespan": outcome.makespan.hex(), "digest": outcome.digest}
    pins = {"tiny": {"zoned_grid": {"1": pin}}}
    monkeypatch.setattr(harness, "load_pins", lambda: pins)
    assert harness.measure("zoned_grid", 1, 0.05, False, size="tiny").correct
    pin["makespan"] = math.nextafter(outcome.makespan, 0.0).hex()
    result = harness.measure("zoned_grid", 1, 0.05, False, size="tiny")
    assert not result.correct
    assert any(p.startswith("pin: makespan") for p in result.problems)


# -- names and the benchmark file ----------------------------------------------------

def _benchmark_workloads():
    return [w["name"] for w in _benchmark()["workloads"]]


def test_every_metric_name_is_well_formed():
    bench = _benchmark()
    names = (list(harness.END_TO_END) + list(harness.PER_LAYER)
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
             + [w["name"] for w in bench["workloads"]])
    for name in names:
        assert NAME_RE.fullmatch(name), name
        assert len(name) <= 64, name


def test_benchmark_json_lists_what_the_harness_prints():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        harness.PER_LAYER
    for entry in bench["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert bench["paths"] == ["perfbench"]


# -- every workload at tiny size ------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, seed):
    rep = _rep(name, seed)
    assert rep.outcome.problems == []
    assert rep.outcome.failed == 0
    assert rep.outcome.units > 0 and rep.run_s > 0 and rep.setup_s > 0
    # Same seed, same inputs, same dates.
    assert _rep(name, seed).outcome.digest == rep.outcome.digest


def _cluster_replay(seed):
    """``ClusterReplay`` on the inputs of ``ft_churn`` at the tiny size."""
    from repro.replay import ClusterReplay, synthetic_workload
    inputs = workloads.make_inputs("ft_churn", seed, "tiny")
    return ClusterReplay(
        synthetic_workload(seed=inputs["workload_seed"],
                           num_hosts=inputs["hosts"],
                           num_jobs=inputs["jobs"],
                           mean_interarrival=0.1, mean_flops=5e8),
        churn_seed=inputs["churn_seed"], churn_mtbf=0.5,
        churn_downtime=0.5, churn_max_failures=inputs["failures"],
        semantics="at_least_once", supervised=True)


def test_ft_churn_replays_the_cluster_replay_pipeline():
    replay = _cluster_replay(0)
    metrics = replay.run()
    rep = _rep("ft_churn", 0)
    assert rep.outcome.makespan == metrics["final_time"]
    assert rep.outcome.digest == workloads.date_digest(replay.completed)
    assert rep.outcome.counters == {
        "completed": metrics["completed"],
        "dispatched": metrics["dispatched"],
        "resubmitted": metrics["resubmitted"]}


def test_ft_churn_survives_an_ack_lost_in_flight():
    # On seed 11 a worker's host fails while its ack is in flight.
    inputs = workloads.make_inputs("ft_churn", 11, "tiny")
    run = workloads.ChurnRun(inputs)
    run.run()
    assert run.lost_acks >= 1
    assert run.outcome().problems == []


@pytest.mark.xfail(strict=True, reason=(
    "ClusterReplay's collector does not catch TransferFailureError: an ack "
    "in flight when its worker's host fails crashes the run"))
def test_cluster_replay_survives_an_ack_lost_in_flight():
    assert _cluster_replay(11).run()["lost"] == 0


class _Crash:
    """A simulation whose run raises after it did some work."""

    engine = None

    def run(self):
        raise RuntimeError("boom")

    def outcome(self, error=None):
        return workloads.Outcome(units=3, attempted=7, failed=0,
                                 makespan=math.nan, digest="",
                                 problems=[f"raised {error!r}"])


def _crashing(monkeypatch, build):
    crashing = workloads.Workload("crash", workloads.star_fleet_inputs,
                                  build, lambda inputs: 7, "always raises")
    monkeypatch.setitem(workloads.WORKLOADS, "crash", crashing)
    monkeypatch.setitem(workloads.SIZES["tiny"], "crash",
                        {"workers": 2, "rounds": 1})


def test_a_rep_whose_build_raises_is_a_failed_rep(monkeypatch):
    def build(inputs):
        raise RuntimeError("boom")

    _crashing(monkeypatch, build)
    rep = harness.run_rep("crash", {})
    assert not rep.ran and rep.run_s == 0.0
    assert rep.outcome.attempted == rep.outcome.failed == 7
    assert rep.outcome.problems == ["build raised RuntimeError('boom')"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("where", ["build", "run"])
def test_measure_reports_a_crashing_workload(monkeypatch, where, trace):
    def build(inputs):
        if where == "build":
            raise RuntimeError("boom")
        return _Crash()

    _crashing(monkeypatch, build)
    result = harness.measure("crash", 0, 0.01, trace, size="tiny")
    assert not result.correct
    assert result.failed == result.attempted
    assert result.attempted % 7 == 0 and result.attempted >= 7 * 3
    assert any(p.startswith("warm-up: ") and "boom" in p
               for p in result.problems)
    if not trace:
        assert list(result.metrics) == list(harness.END_TO_END)
        # The work a run did before it raised still counts.
        rate = result.metrics["events_per_s"]
        assert rate == 0.0 if where == "build" else rate > 0
        assert result.metrics["ok_frac"] == 0.0


# -- the tracer ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["star_fleet", "gras_amok"])
def test_traced_self_times_sum_to_the_run_time(name):
    tracer = Tracer()
    traced = _rep(name, 0, tracer)
    assert traced.outcome.problems == []
    covered = tracer.self_time_under_runs()
    assert covered == pytest.approx(traced.run_s, rel=0.05)
    assert traced.layers["trace.self_coverage"] == pytest.approx(1.0,
                                                                 rel=0.05)
    # Tracing changes no simulated date.
    assert traced.outcome.digest == _rep(name, 0).outcome.digest


def test_thread_context_spans_nest_under_the_resume_that_ran_them():
    tracer = Tracer()
    _rep("gras_amok", 0, tracer)
    decodes = [i for i, n in enumerate(tracer.names)
               if n == "gras.datadesc.decode"]
    assert decodes
    for index in decodes:
        parent = tracer.parents[index]
        assert tracer.names[parent] == "kernel.context.resume"
        assert tracer.starts[parent] <= tracer.starts[index]
        assert tracer.ends[index] <= tracer.ends[parent]


def test_tracer_restores_every_boundary():
    from perfbench.tracer import BOUNDARIES
    before = [cls.__dict__[attr] for cls, attr, _ in BOUNDARIES]
    with Tracer():
        assert any(cls.__dict__[attr] is not fn for (cls, attr, _), fn
                   in zip(BOUNDARIES, before))
    assert [cls.__dict__[attr] for cls, attr, _ in BOUNDARIES] == before


def test_self_time_subtracts_child_coverage():
    tracer = Tracer()
    tracer.names.extend(["a", "b", "c", "d"])
    tracer.starts.extend([0.0, 1.0, 2.0, 5.0])
    tracer.ends.extend([10.0, 4.0, 3.0, 6.0])
    tracer.parents.extend([-1, 0, 1, 0])
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


# -- the command ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [False, True])
def test_measure_prints_every_declared_metric(trace):
    result = harness.measure("zoned_grid", 1, 0.05, trace, size="tiny")
    assert result.correct, result.problems
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result.metrics) == list(expected)
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in result.metrics.values())
    if not trace:
        assert all(result.metrics[m["name"]] > 0
                   for m in _benchmark()["end_to_end"])


def test_end_to_end_times_are_scaled_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(harness, "reference_seconds",
                        lambda: 2 * harness.REFERENCE_S)
    result = harness.measure("zoned_grid", 1, 0.05, False, size="tiny")
    assert result.correct and result.slowdown == 2.0
    units = _rep("zoned_grid", 1).outcome.units
    raw = statistics.median(units / run_s for run_s in result.run_times)
    assert result.metrics["events_per_s"] == pytest.approx(2 * raw)


def test_command_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star_fleet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
