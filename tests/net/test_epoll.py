"""Tests for the epoll model and notification FDs."""

import pytest

from repro.cpu import Core
from repro.net import Epoll, Link, NotifyFd, socket_pair
from repro.sim import Simulator


def make_env():
    sim = Simulator()
    core = Core(sim, 0)
    ep = Epoll(sim)
    return sim, core, ep


def test_wait_returns_ready_immediately():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
    ep.register(b)
    a.send(b"x")
    sim.run()  # deliver

    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        result["ready"] = ready

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == [b]


def test_wait_blocks_until_data():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, latency=1e-3), Link(sim, 1e-3))
    ep.register(b)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        result["at"] = sim.now
        result["ready"] = ready

    sim.process(loop(sim))
    sim.call_in(5e-3, lambda: a.send(b"later"))
    sim.run()
    assert result["ready"] == [b]
    assert result["at"] >= 6e-3  # 5ms + 1ms link latency


def test_wait_timeout_returns_empty():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim), Link(sim))
    ep.register(b)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core, timeout=2e-3)
        result["ready"] = ready
        result["at"] = sim.now

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == []
    assert result["at"] == pytest.approx(2e-3, rel=0.01)


def test_wait_charges_kernel_crossing():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
    ep.register(b)
    a.send(b"x")
    sim.run()

    def loop(sim):
        yield from ep.wait(core)

    sim.process(loop(sim))
    sim.run()
    assert core.stats.kernel_crossings == 1
    assert core.stats.busy_time > 0


def test_unregister_stops_watching():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
    ep.register(b)
    ep.unregister(b)
    a.send(b"x")
    sim.run()
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core, timeout=1e-3)
        result["ready"] = ready

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == []


def test_multiple_ready_fds_reported_together():
    sim, core, ep = make_env()
    pairs = [socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0))
             for _ in range(3)]
    for a, b in pairs:
        ep.register(b)
        a.send(b"x")
    sim.run()
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        result["ready"] = set(r.fd for r in ready)

    sim.process(loop(sim))
    sim.run()
    assert result["ready"] == {b.fd for _, b in pairs}


def test_notify_fd_wakes_epoll():
    sim, core, ep = make_env()
    nfd = NotifyFd(sim)
    ep.register(nfd)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core)
        result["ready"] = ready
        result["count"] = nfd.read_events()

    sim.process(loop(sim))
    sim.call_in(1e-3, nfd.write_event)
    sim.call_in(1e-3, nfd.write_event)
    sim.run()
    assert result["ready"] == [nfd]
    assert result["count"] == 2
    assert not nfd.readable


def test_readiness_wakeup_cancels_the_wait_timer():
    sim, core, ep = make_env()
    a, b = socket_pair(sim, Link(sim, latency=1e-3), Link(sim, 1e-3))
    ep.register(b)
    result = {}

    def loop(sim):
        ready = yield from ep.wait(core, timeout=50e-3)
        result["ready"] = ready
        result["at"] = sim.now
        result["live_after_wake"] = sim.peek()

    sim.process(loop(sim))
    sim.call_in(5e-3, lambda: a.send(b"early"))
    sim.run()
    assert result["ready"] == [b]
    assert result["at"] < 10e-3
    # Nothing is left to fire: the 50 ms timer was cancelled, so the
    # run ends at the wake-up, not at the timer's deadline.
    assert result["live_after_wake"] == float("inf")
    assert sim.now == result["at"]
