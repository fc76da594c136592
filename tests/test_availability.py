"""Availability modulation end-to-end: traces, runtime speed, observers.

The paper's SURF panel lists *trace-based simulation of performance
variations due to external load* — CPU availability and network bandwidth
scaled by a trace while the simulation runs.  These tests pin the
hand-computed dates for activities spanning an availability dip, exercise
the runtime ``Host.set_speed`` / ``Link.set_bandwidth`` write path, check
the ``on_resource_speed_change`` observer, and prove the selective solve
only re-solves the LMM component containing the modulated resource.
"""

import pytest

from repro.platform import Platform
from repro.s4u import Engine, this_actor
from repro.surf.engine import SurfEngine
from repro.surf.trace import Trace


def dip_platform(cores=1, host_trace=None, link_trace=None):
    """Two hosts joined by one link; optional traces on host "a" / the link."""
    platform = Platform("dip")
    platform.add_host("a", 1e9, cores=cores, availability_trace=host_trace)
    platform.add_host("b", 1e9)
    platform.add_link("wire", 1e6, latency=0.0, bandwidth_trace=link_trace)
    platform.connect("a", "b", "wire")
    return platform


class TestTraceDrivenDates:
    def test_exec_spans_availability_dip(self):
        # 2 s at 1e9 flop/s (2e9 done), dip to 0.5 -> 1e9 left at 5e8.
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="load")
        engine = Engine(dip_platform(host_trace=trace))
        times = {}

        def worker(actor):
            yield actor.execute(3e9)
            times["done"] = actor.now

        engine.add_actor("w", "a", worker)
        engine.run()
        assert times["done"] == pytest.approx(4.0)

    def test_comm_spans_bandwidth_dip(self):
        # 2 s at 1e6 B/s (2e6 sent), dip to 0.5 -> 1e6 left at 5e5.
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="bw")
        engine = Engine(dip_platform(link_trace=trace))
        times = {}

        def sender(actor):
            yield engine.mailbox("box").put("payload", size=3e6)

        def receiver(actor):
            yield engine.mailbox("box").get()
            times["received"] = actor.now

        engine.add_actor("s", "a", sender)
        engine.add_actor("r", "b", receiver)
        engine.run()
        assert times["received"] == pytest.approx(4.0)

    def test_trace_dip_fires_speed_observer(self):
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="load")
        engine = Engine(dip_platform(host_trace=trace))
        host = engine.host_by_name("a")
        seen = []
        engine.on_resource_speed_change(
            lambda resource, speed: seen.append(
                (resource.name, speed, engine.now)))

        def worker(actor):
            yield actor.execute(3e9)

        engine.add_actor("w", "a", worker)
        engine.run()
        # The t=0 event is a no-op value-wise but still an observed change.
        assert ("a", 5e8, 2.0) in seen
        assert host.available_speed == 5e8

    def test_bandwidth_trace_fires_speed_observer_with_link(self):
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="bw")
        engine = Engine(dip_platform(link_trace=trace))
        seen = []
        engine.on_resource_speed_change(
            lambda resource, speed: seen.append((resource.name, speed)))

        def sender(actor):
            yield engine.mailbox("box").put("x", size=3e6)

        def receiver(actor):
            yield engine.mailbox("box").get()

        engine.add_actor("s", "a", sender)
        engine.add_actor("r", "b", receiver)
        engine.run()
        assert ("wire", 5e5) in seen


class TestRuntimeSpeedChange:
    def test_set_speed_reshapes_running_exec(self):
        engine = Engine(dip_platform())
        host = engine.host_by_name("a")
        times = {}

        def worker(actor):
            yield actor.execute(4e9)
            times["done"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            host.set_speed(5e8)     # 2e9 done, 2e9 left at 5e8 -> +4 s

        engine.add_actor("w", "a", worker)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["done"] == pytest.approx(6.0)
        assert host.speed == 5e8

    def test_set_speed_fires_observer_with_host(self):
        engine = Engine(dip_platform())
        host = engine.host_by_name("a")
        seen = []
        engine.on_resource_speed_change(
            lambda resource, speed: seen.append((resource, speed)))

        def admin(actor):
            yield this_actor.sleep_for(1.0)
            host.set_speed(2e9)

        engine.add_actor("admin", "b", admin)
        engine.run()
        assert seen == [(host, 2e9)]

    def test_set_speed_composes_with_availability_trace(self):
        # The trace keeps scaling the *new* peak: after set_speed(2e9)
        # under availability 0.5 the effective speed is 1e9.
        trace = Trace([(0.0, 0.5)], name="half")
        engine = Engine(dip_platform(host_trace=trace))
        host = engine.host_by_name("a")
        times = {}

        def worker(actor):
            yield actor.execute(2e9)
            times["done"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            host.set_speed(2e9)     # 1e9 done at 5e8, 1e9 left at 1e9

        engine.add_actor("w", "a", worker)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["done"] == pytest.approx(3.0)
        assert host.available_speed == pytest.approx(1e9)

    def test_set_link_bandwidth_reshapes_running_comm(self):
        engine = Engine(dip_platform())
        link = engine.link_by_name("wire")
        times = {}
        seen = []
        engine.on_resource_speed_change(
            lambda resource, speed: seen.append((resource, speed)))

        def sender(actor):
            yield engine.mailbox("box").put("x", size=4e6)

        def receiver(actor):
            yield engine.mailbox("box").get()
            times["received"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            link.set_bandwidth(5e5)     # 2e6 sent, 2e6 left at 5e5

        engine.add_actor("s", "a", sender)
        engine.add_actor("r", "b", receiver)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["received"] == pytest.approx(6.0)
        assert seen == [(link, 5e5)]

    def test_set_speed_rejects_nonpositive(self):
        engine = Engine(dip_platform())
        with pytest.raises(ValueError):
            engine.host_by_name("a").set_speed(0.0)


class TestMulticoreBoundResync:
    def test_single_exec_tracks_core_speed_through_dip(self):
        # cores=2: the constraint allows 2e9 flop/s but one exec is capped
        # at a single core.  When availability halves, the per-exec bound
        # must follow the *current* core speed (5e8), not the peak — with
        # a stale bound the lone exec would finish at t=4 instead of t=6.
        trace = Trace([(0.0, 1.0), (2.0, 0.5)], name="load")
        engine = Engine(dip_platform(cores=2, host_trace=trace))
        times = {}

        def worker(actor):
            yield actor.execute(4e9)
            times["done"] = actor.now

        engine.add_actor("w", "a", worker)
        engine.run()
        assert times["done"] == pytest.approx(6.0)

    def test_set_speed_resyncs_multicore_bounds(self):
        engine = Engine(dip_platform(cores=2))
        host = engine.host_by_name("a")
        times = {}

        def worker(actor):
            yield actor.execute(4e9)
            times["done"] = actor.now

        def admin(actor):
            yield this_actor.sleep_for(2.0)
            host.set_speed(5e8)

        engine.add_actor("w", "a", worker)
        engine.add_actor("admin", "b", admin)
        engine.run()
        assert times["done"] == pytest.approx(6.0)

    def test_user_bound_survives_dip_and_recovery(self):
        # A caller cap below the dipped core speed stays in force when the
        # core recovers: merged bound = min(user_bound, core_speed).
        trace = Trace([(0.0, 0.5), (2.0, 1.0)], name="recover")
        engine = Engine(dip_platform(cores=2, host_trace=trace))
        times = {}

        def worker(actor):
            # capped at 2.5e8 flop/s by the caller, below both 5e8 and 1e9
            yield actor.execute(1e9, bound=2.5e8)
            times["done"] = actor.now

        engine.add_actor("w", "a", worker)
        engine.run()
        assert times["done"] == pytest.approx(4.0)


class TestSelectiveResolve:
    def test_dip_resolves_only_affected_component(self):
        # Two CPUs with no shared constraint are separate LMM components;
        # an availability event on one must re-solve exactly that one.
        trace = Trace([(1.0, 0.5)], name="load")
        surf = SurfEngine()
        cpu_a = surf.cpu_model.add_cpu("a", speed=1e9,
                                       availability_trace=trace)
        cpu_b = surf.cpu_model.add_cpu("b", speed=1e9)
        surf.register_resource_traces(cpu_a)
        surf.cpu_model.execute(cpu_a, 1e10)
        surf.cpu_model.execute(cpu_b, 1e10)

        result = surf.step()            # initial solve, trace fires at t=1
        assert result.time == pytest.approx(1.0)
        assert result.speed_changes == [(cpu_a, 0.5)]
        before = dict(surf.cpu_model.solver_stats())

        result = surf.step()            # re-share: only cpu_a is dirty
        assert result.time == pytest.approx(10.0)   # b finishes undisturbed
        after = surf.cpu_model.solver_stats()
        assert after["constraints_solved"] - before["constraints_solved"] == 1
        assert after["variables_solved"] - before["variables_solved"] == 1

        surf.run_until_idle()
        assert surf.clock == pytest.approx(19.0)    # a: 1 + 9e9/5e8


def traced_zoned_platform():
    """Two sites with phase-shifted availability dips and WAN bw traces.

    The zone generators don't take traces, so this builds the tree by
    hand: each host carries a periodic availability trace whose dip lands
    at a different phase, and the WAN links carry bandwidth traces, so
    cross-zone transfers see dips from both ends of their route.
    """
    platform = Platform("traced-grid")
    hub = platform.add_router("wan-hub")
    for s in range(2):
        site = platform.add_zone(f"site-{s}", routing="Floyd")
        gw = site.add_router(f"site-{s}-gw")
        for i in range(2):
            phase = 0.5 + 0.4 * (2 * s + i)
            trace = Trace([(0.0, 1.0), (phase, 0.5), (phase + 0.5, 0.9)],
                          period=3.0, name=f"load-{s}-{i}")
            host = site.add_host(f"site-{s}-host-{i}", 1e9,
                                 availability_trace=trace)
            link = platform.add_link(f"site-{s}-lan-{i}", 125e6, 100e-6)
            site.connect(host.name, gw, link.name)
        platform.add_link(f"wan-{s}", 12.5e6, 50e-3,
                          bandwidth_trace=Trace([(0.0, 1.0), (0.7, 0.6)],
                                                period=2.0,
                                                name=f"wan-bw-{s}"))
        platform.connect(hub, site.name, f"wan-{s}")
    return platform


def run_modulated_workload(platform):
    """Execs + cross-site transfers spanning dips, plus a set_speed."""
    engine = Engine(platform)
    log = []
    engine.on_resource_speed_change(
        lambda resource, speed: log.append(
            (engine.now, f"speed:{resource.name}", speed)))

    pairs = [("site-0-host-0", "site-1-host-1"),
             ("site-1-host-0", "site-0-host-1")]

    def sender(actor, i):
        for k in range(3):
            yield actor.execute(4e8 * (1 + i))
            yield actor.engine.mailbox(f"m{i}").put(k, size=3e6)
            log.append((actor.now, f"put-{i}-{k}"))

    def receiver(actor, i):
        for k in range(3):
            yield actor.engine.mailbox(f"m{i}").get()
            log.append((actor.now, f"got-{i}-{k}"))

    def admin(actor):
        # A runtime speed change layered on top of the trace dips: the
        # write path must compose with availability.
        yield this_actor.sleep_for(1.2)
        actor.engine.host_by_name("site-0-host-0").set_speed(7e8)

    for i, (src, dst) in enumerate(pairs):
        engine.add_actor(f"s{i}", src, sender, i)
        engine.add_actor(f"r{i}", dst, receiver, i)
    engine.add_actor("admin", "site-1-host-0", admin)
    log.append((engine.run(), "end"))
    return log


class TestZonedTraceDips:
    def test_trace_dips_lazy_matches_eager(self):
        eager = traced_zoned_platform()
        eager.realize(eager=True)
        eager_log = run_modulated_workload(eager)
        assert run_modulated_workload(traced_zoned_platform()) == eager_log
        # The dips actually fired (observer saw trace + set_speed events).
        assert any(entry[1].startswith("speed:") for entry in eager_log)
