"""Measurement loop: timed repeats, medians, output checks and metrics.

One *rep* builds a workload from its seeded inputs and runs it to the end.
It is timed in two parts: *set-up* (the workload's ``build``: platform
built, engine constructed, actors deployed) and *run* (the simulation's
``run()`` call).  A rep whose build or run raises is a failed rep: its
checks fail and every one of its operations counts as failed.

Untraced mode repeats reps for the requested seconds and reports medians.
The host's speed drifts by up to 2x over minutes (a shared VM), so a fixed
reference loop is timed before the first rep and after every rep, and the
end-to-end times are scaled to the speed at which the reference loop takes
``REFERENCE_S`` (see README.md, "Host-speed scaling").
Traced mode alternates untraced and traced reps: the traced ones give the
per-layer metrics, and the two kinds together give the tracing overhead.
Every rep's outputs are checked; reps of one seed must produce the same
date digest, traced or not, and pinned seeds must match ``pins.json``.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import math
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.s4u.engine import Engine

from perfbench.tracer import SPAN_NAMES, Tracer
from perfbench.workloads import (
    WORKLOADS, Outcome, check_pin, make_inputs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(HERE, "out")

#: Reps measured at least, whatever ``--seconds`` says; every rep also
#: gives one set-up sample.
MIN_REPS = 3

#: Seconds ``reference_seconds()`` takes at the reference host speed: about
#: its time on the reference box (a shared 2-vCPU Xeon VM, Python 3.11),
#: which moves between about 0.14 s and 0.28 s as the host's load changes.
REFERENCE_S = 0.25

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {"events_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for span in SPAN_NAMES:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    for name in ("surf.lmm.elements_visited", "surf.lmm.heap_pops",
                 "surf.lmm.solve_calls", "surf.lmm.solve_skipped"):
        units[name] = "count"
    units["surf.lmm.skip_ratio"] = "ratio"
    for name in ("platform.route_cache.hits", "platform.route_cache.misses",
                 "platform.route_cache.evictions"):
        units[name] = "count"
    units["platform.route_cache.hit_ratio"] = "ratio"
    units["s4u.restarts"] = "count"
    for name in ("replay.completed", "replay.dispatched",
                 "replay.resubmitted"):
        units[name] = "count"
    units["replay.useful_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.traced_run_s"] = "s"
    units["trace.untraced_run_s"] = "s"
    units["trace.self_coverage"] = "ratio"
    units["trace.spans"] = "count"
    return units


#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = _per_layer_units()


@dataclass
class Rep:
    setup_s: float
    run_s: float
    outcome: Outcome
    ran: bool               # the build succeeded and ``run()`` was called
    layers: Dict[str, float] = field(default_factory=dict)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_counters(engine: Engine) -> Dict[str, float]:
    """Solver and route-cache counters from the public stats APIs."""
    stats = engine.kernel_stats()
    solver = stats["solver"]
    caches = stats["route_caches"].values()
    hits = sum(cache["hits"] for cache in caches)
    misses = sum(cache["misses"] for cache in caches)
    return {
        "surf.lmm.elements_visited": solver["elements_visited"],
        "surf.lmm.heap_pops": solver["heap_pops"],
        "surf.lmm.solve_calls": solver["solve_calls"],
        "surf.lmm.solve_skipped": solver["solve_skipped"],
        "surf.lmm.skip_ratio": _ratio(solver["solve_skipped"],
                                      solver["solve_calls"]),
        "platform.route_cache.hits": hits,
        "platform.route_cache.misses": misses,
        "platform.route_cache.evictions": sum(cache["evictions"]
                                              for cache in caches),
        "platform.route_cache.hit_ratio": _ratio(hits, hits + misses),
        "s4u.restarts": engine.restart_count,
    }


def layer_metrics(tracer: Tracer, engine: Optional[Engine],
                  outcome: Outcome) -> Dict[str, float]:
    """Per-layer metrics of one traced rep (overhead filled in by caller)."""
    metrics: Dict[str, float] = {}
    for span, entry in tracer.summary().items():
        metrics[f"{span}.self_s"] = entry["self_s"]
        metrics[f"{span}.calls"] = entry["calls"]
    if engine is not None:
        metrics.update(engine_counters(engine))
    counters = outcome.counters
    completed = counters.get("completed", 0)
    dispatched = counters.get("dispatched", 0)
    resubmitted = counters.get("resubmitted", 0)
    metrics.update({
        "replay.completed": completed,
        "replay.dispatched": dispatched,
        "replay.resubmitted": resubmitted,
        "replay.useful_ratio": _ratio(completed, dispatched + resubmitted),
    })
    metrics["trace.self_coverage"] = _ratio(tracer.self_time_under_runs(),
                                            tracer.run_time())
    metrics["trace.spans"] = len(tracer.names)
    return metrics


def run_rep(name: str, inputs: dict, tracer: Optional[Tracer] = None) -> Rep:
    """Build and run one rep; with a tracer, also gather its per-layer
    metrics.  Whatever the simulation raises is reported, never re-raised."""
    gc.collect()
    workload = WORKLOADS[name]
    sim = error = None
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            sim = workload.build(inputs)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed rep
            error = exc
        built = time.perf_counter()
        if sim is not None:
            try:
                sim.run()
            except Exception as exc:  # noqa: BLE001
                error = exc
        end = time.perf_counter()
    if sim is None:
        ops = workload.operations(inputs)
        outcome = Outcome(units=0, attempted=ops, failed=ops,
                          makespan=math.nan, digest="",
                          problems=[f"build raised {error!r}"])
        return Rep(setup_s=built - start, run_s=0.0, outcome=outcome,
                   ran=False)
    rep = Rep(setup_s=built - start, run_s=end - built,
              outcome=sim.outcome(error), ran=True)
    if tracer is not None:
        rep.layers = layer_metrics(tracer, sim.engine, rep.outcome)
    return rep


def load_pins() -> Dict[str, Dict[str, dict]]:
    with open(PINS_PATH) as fh:
        return json.load(fh)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    problems: List[str]
    run_times: List[float]
    #: Median reference time of the run / ``REFERENCE_S`` (untraced only).
    slowdown: float = math.nan

    def as_json(self, units: Dict[str, str]) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()}})


def reference_seconds() -> float:
    """Time a fixed pure-Python loop: heap, dict and small-object churn, the
    kind of work the simulator does, but none of its code, so no change to
    the program moves it.  Its working set is small and fixed, so it adds
    nothing to ``peak_rss_mb``.  The last rep's garbage is collected first,
    untimed, so the loop never pays for collecting it."""
    gc.collect()
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    for i in range(125_000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i % 1024] = [i, str(i)]
        if len(heap) > 1024:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _keep_going(started: float, seconds: float, durations: List[float],
                min_count: int) -> bool:
    """Start another rep while it is expected to end within ``seconds``."""
    if len(durations) < min_count:
        return True
    expected = statistics.median(durations)
    return time.perf_counter() - started + expected <= seconds


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", spans_out: Optional[str] = None) -> Result:
    """Run one workload for about ``seconds``; check and summarize it."""
    inputs = make_inputs(name, seed, size)
    # Warm-up at the tiny size, untimed: first-call costs stay out of the
    # reps.  It is checked like any rep.
    warm = run_rep(name, make_inputs(name, seed, "tiny"))
    reps: List[Rep] = []
    traced: List[Rep] = []
    durations: List[float] = []
    last_tracer: Optional[Tracer] = None
    # Traced mode alternates an untraced and a traced rep per round.
    min_rounds = 1 if trace else MIN_REPS
    references: List[float] = []
    started = time.perf_counter()
    if not trace:
        references.append(reference_seconds())
    while _keep_going(started, seconds, durations, min_rounds):
        begin = time.perf_counter()
        reps.append(run_rep(name, inputs))
        if trace:
            last_tracer = Tracer()
            traced.append(run_rep(name, inputs, last_tracer))
        else:
            references.append(reference_seconds())
        durations.append(time.perf_counter() - begin)

    everything = reps + traced
    problems = [f"warm-up: {p}" for p in warm.outcome.problems]
    # Reps of one seed fail alike: report each problem once, with a count.
    seen: Counter = Counter()
    for index, rep in enumerate(everything):
        kind = "traced" if index >= len(reps) else "untraced"
        seen.update((kind, p) for p in rep.outcome.problems)
    problems += [f"{count} {kind} rep(s): {p}"
                 for (kind, p), count in seen.items()]
    attempted = failed = 0
    for rep in [warm] + everything:
        attempted += rep.outcome.attempted
        # A rep whose checks fail counts all of its operations as failed.
        failed += (rep.outcome.attempted if rep.outcome.problems
                   else rep.outcome.failed)
    digests = {rep.outcome.digest for rep in everything}
    if len(digests) != 1:
        problems.append(f"reps of one seed disagree: {len(digests)} "
                        "different date digests (traced vs untraced or "
                        "rep to rep)")
    pin = load_pins().get(size, {}).get(name, {}).get(str(seed))
    if pin is not None:
        problems += [f"pin: {p}" for p in check_pin(reps[0].outcome, pin)]

    if trace:
        metrics = {}
        for metric in PER_LAYER:
            values = [rep.layers[metric] for rep in traced
                      if metric in rep.layers]
            if values:
                metrics[metric] = statistics.median(values)
        untraced_run = statistics.median(rep.run_s for rep in reps)
        traced_run = statistics.median(rep.run_s for rep in traced)
        metrics["trace.untraced_run_s"] = untraced_run
        metrics["trace.traced_run_s"] = traced_run
        # Each round's traced rep against the untraced rep just before it,
        # so host-speed drift between rounds cancels.
        metrics["trace.overhead_ratio"] = statistics.median(
            _ratio(t.run_s, u.run_s) for u, t in zip(reps, traced))
        # Missing only when no traced rep got past its build (then correct
        # is false).
        metrics = {metric: metrics[metric] for metric in PER_LAYER
                   if metric in metrics}
        if spans_out and last_tracer is not None:
            last_tracer.write_tsv(spans_out)
        slowdown = math.nan
    else:
        # > 1 when the host ran slower than the reference speed.
        slowdown = statistics.median(references) / REFERENCE_S
        rates = [rep.outcome.units / rep.run_s for rep in reps if rep.ran]
        metrics = {
            # 0 only when no rep got past its build (then correct is false).
            "events_per_s": (statistics.median(rates) * slowdown
                             if rates else 0.0),
            "setup_s": (statistics.median(rep.setup_s for rep in reps)
                        / slowdown),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (attempted - failed) / attempted,
        }
    return Result(correct=not problems, attempted=attempted, failed=failed,
                  metrics=metrics, problems=problems,
                  run_times=[rep.run_s for rep in reps], slowdown=slowdown)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
