"""Tests for the simulated CPU core model."""

import pytest

from repro.cpu import Core, CpuTopology
from repro.sim import Interrupt, Simulator


def run_consumer(sim, core, cost, owner=None, log=None, name=""):
    def proc(sim):
        yield from core.consume(cost, owner=owner)
        if log is not None:
            log.append((name, sim.now))

    return sim.process(proc(sim))


def test_consume_advances_time_by_cost():
    sim = Simulator()
    core = Core(sim, 0)
    run_consumer(sim, core, 5e-3)
    sim.run()
    assert sim.now == pytest.approx(5e-3)
    assert core.stats.busy_time == pytest.approx(5e-3)


def test_speed_scales_duration():
    sim = Simulator()
    core = Core(sim, 0, speed=0.5)
    run_consumer(sim, core, 1e-3)
    sim.run()
    assert sim.now == pytest.approx(2e-3)


def test_core_serializes_two_processes():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=0.0)
    log = []
    run_consumer(sim, core, 1e-3, log=log, name="a")
    run_consumer(sim, core, 1e-3, log=log, name="b")
    sim.run()
    assert log == [("a", pytest.approx(1e-3)), ("b", pytest.approx(2e-3))]


def test_context_switch_charged_on_owner_change():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=10e-6)

    def proc(sim):
        yield from core.consume(1e-3, owner="worker")
        yield from core.consume(1e-3, owner="poller")   # switch
        yield from core.consume(1e-3, owner="poller")   # no switch
        yield from core.consume(1e-3, owner="worker")   # switch

    sim.process(proc(sim))
    sim.run()
    assert core.stats.context_switches == 2
    assert sim.now == pytest.approx(4e-3 + 2 * 10e-6)


def test_no_switch_charged_without_owner():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=10e-6)

    def proc(sim):
        yield from core.consume(1e-3)
        yield from core.consume(1e-3)

    sim.process(proc(sim))
    sim.run()
    assert core.stats.context_switches == 0


def test_kernel_crossing_cost_and_stats():
    sim = Simulator()
    core = Core(sim, 0, kernel_switch_cost=5e-6)

    def proc(sim):
        yield from core.kernel_crossing()
        yield from core.kernel_crossing(extra=3e-6)

    sim.process(proc(sim))
    sim.run()
    assert core.stats.kernel_crossings == 2
    assert sim.now == pytest.approx(2 * 5e-6 + 3e-6)


def test_negative_cost_rejected():
    sim = Simulator()
    core = Core(sim, 0)

    def proc(sim):
        yield from core.consume(-1.0)

    sim.process(proc(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_invalid_speed():
    sim = Simulator()
    with pytest.raises(ValueError):
        Core(sim, 0, speed=0)


def test_topology_builds_cores():
    sim = Simulator()
    topo = CpuTopology(sim, 8, ht_efficiency=0.6)
    assert len(topo) == 8
    assert all(c.speed == 0.6 for c in topo.cores)
    assert topo[3].core_id == 3


def test_topology_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CpuTopology(sim, 0)
    with pytest.raises(ValueError):
        CpuTopology(sim, 2, ht_efficiency=1.5)


def test_topology_total_busy_time():
    sim = Simulator()
    topo = CpuTopology(sim, 2)
    run_consumer(sim, topo[0], 1e-3)
    run_consumer(sim, topo[1], 2e-3)
    sim.run()
    assert topo.total_busy_time() == pytest.approx(3e-3)


def test_cores_run_in_parallel():
    sim = Simulator()
    topo = CpuTopology(sim, 2)
    log = []
    run_consumer(sim, topo[0], 1e-3, log=log, name="a")
    run_consumer(sim, topo[1], 1e-3, log=log, name="b")
    sim.run()
    # Both finish at t=1ms: different cores do not serialize.
    assert [t for _, t in log] == [pytest.approx(1e-3)] * 2


def test_interrupted_inline_charge_releases_core_to_queued_sharer():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=0.0)
    requests = []
    request = core._lock.request

    def logged_request():
        requests.append(sim.now)
        return request()

    core._lock.request = logged_request
    log = []

    def victim(sim):
        # Nothing else is due at t=0.5, so the idle core is granted
        # inline, without a request event.
        yield sim.timeout(0.5)
        try:
            yield from core.consume(5.0, owner="victim")
        except Interrupt:
            log.append(("interrupted", sim.now))

    def sharer(sim):
        yield sim.timeout(1.0)
        yield from core.consume(1.0, owner="sharer")   # queues
        log.append(("sharer", sim.now))

    def killer(sim):
        yield sim.timeout(2.0)
        assert core._lock.queue_length == 1
        v.interrupt("kill")

    v = sim.process(victim(sim))
    sim.process(sharer(sim))
    sim.process(killer(sim))
    sim.run()
    assert requests == [1.0]
    assert log == [("interrupted", 2.0), ("sharer", 3.0)]
    assert core._lock.in_use == 0


def test_zero_cost_consume_on_free_core_does_not_yield():
    sim = Simulator()
    core = Core(sim, 0)
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        charge = core.consume(0.0)
        with pytest.raises(StopIteration):
            next(charge)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [1.0]
    assert core._lock.in_use == 0
