"""Unit and integration tests for the worker reactor: source
registration/ordering determinism, the deadline arbiter, teardown
(timer stop must strand no stale tick; interrupt disarm must close the
coalescing window), the failover-sweep mode guard, and the stub_status
``reactor:`` section."""

import pytest

from repro.bench.runner import Testbed
from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.offload.engine import AsyncOffloadEngine
from repro.offload.qat_backend import QatBackend
from repro.qat import QatDevice, QatUserspaceDriver
from repro.server.polling.interrupt_mode import InterruptRetriever
from repro.server.polling.timer_thread import TimerPollingThread
from repro.sim import Simulator
from repro.ssl.async_job import FiberAsyncJob
from repro.tls.actions import CryptoCall


def make_bed(config="QTLS", seed=9, n_clients=8, **kw):
    bed = Testbed(config, workers=2, suites=("TLS-RSA",), seed=seed, **kw)
    bed.add_s_time_fleet(n_clients=n_clients)
    return bed


def source_names(worker):
    return [s.name for s in worker.reactor.sources]


def make_engine(sim):
    dev = QatDevice(sim, n_endpoints=1)
    drv = QatUserspaceDriver(dev.allocate_instances(1)[0])
    return AsyncOffloadEngine(QatBackend([drv]), Core(sim, 0), CostModel())


def submit_one(sim, eng, result="r"):
    job = FiberAsyncJob(lambda: iter(()), kind="h")
    job.mark_paused(None)

    def proc(sim):
        ok = yield from eng.submit_async(
            CryptoCall(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048),
                       compute=lambda: result), job, "w")
        assert ok

    sim.process(proc(sim))
    return job


# -- source registration & ordering determinism -------------------------------

RETRIEVAL_CONFIGS = [
    ("QTLS", {}, "heuristic"),
    ("QAT+AH", {}, "heuristic"),
    ("QAT+A", {}, "timer-poll"),
    ("QTLS", {"qat_notify_mode": "interrupt"}, "interrupt"),
]


@pytest.mark.parametrize("config,overrides,retrieval", RETRIEVAL_CONFIGS)
def test_retrieval_mode_runs_through_reactor_source(config, overrides,
                                                    retrieval):
    bed = make_bed(config, **overrides)
    bed.sim.run(until=0.04)
    for w in bed.server.workers:
        names = source_names(w)
        assert retrieval in names, names
        # Exactly one retrieval source per worker.
        assert sum(n in ("heuristic", "timer-poll", "interrupt")
                   for n in names) == 1
        # The retrieval scheme actually retrieved something.
        stats = w.reactor.source(retrieval).stats()
        key = {"heuristic": "polls", "timer-poll": "polls",
               "interrupt": "interrupts"}[retrieval]
        assert stats[key] > 0, stats


@pytest.mark.parametrize("config,overrides,retrieval", RETRIEVAL_CONFIGS)
def test_source_order_is_deterministic(config, overrides, retrieval):
    """Identically-configured workers register identical source lists,
    and a rebuilt world reproduces them exactly — registration order is
    dispatch/stage/teardown order, so this is a replay invariant."""
    beds = [make_bed(config, **overrides) for _ in range(2)]
    orders = [[source_names(w) for w in bed.server.workers]
              for bed in beds]
    assert orders[0] == orders[1]
    per_bed = orders[0]
    assert per_bed[0] == per_bed[1]  # both workers identical
    # Pollable routing always precedes the stage pipeline.
    names = per_bed[0]
    assert names[:3] == ["listener", "notify-fd", "socket"]
    assert names.index("async-queue") < names.index("retries") \
        < names.index("drain")


def test_stage_order_matches_historical_pipeline():
    bed = make_bed("QTLS", qat_batch_size=4, offload_admission_limit=8,
                   qat_watchdog_interval=1e-3, qat_failover_timer=1e-3)
    w = bed.server.workers[0]
    staged = [s.name for s in w.reactor.sources if s.has_stage]
    assert staged == ["async-queue", "retries", "heuristic",
                      "offload-queue", "drain"]
    # Background sweeps ride at the tail of the registry.
    assert source_names(w)[-2:] == ["failover", "watchdog"]


# -- deadline arbiter ----------------------------------------------------------

def test_arbiter_unconstrained_when_idle():
    bed = make_bed("QTLS")
    w = bed.server.workers[0]
    assert w.reactor.next_timeout(bed.sim.now) is None


def test_arbiter_spins_while_inflight_and_credits_heuristic():
    from repro.server.reactor import SPIN_TIMEOUT
    bed = make_bed("QTLS")
    w = bed.server.workers[0]
    eng = w.engine
    submit_one(bed.sim, eng)
    bed.sim.run(until=1e-5)
    before = w.reactor.source("heuristic").wakes
    assert w.reactor.next_timeout(bed.sim.now) == SPIN_TIMEOUT
    assert w.reactor.source("heuristic").wakes == before + 1
    assert w.reactor.last_wake == "heuristic"


def test_arbiter_prefers_earliest_deadline():
    """A due retry (delta 0 at its deadline) must beat the spin
    timeout, and the async queue's zero beats everything."""
    bed = make_bed("QTLS")
    w = bed.server.workers[0]
    w.async_queue.push(object())
    assert w.reactor.next_timeout(bed.sim.now) == 0.0
    assert w.reactor.last_wake == "async-queue"
    w.async_queue.pop()


# -- failover sweep: mode guard (satellite regression) -------------------------

@pytest.mark.parametrize("config,overrides", [
    ("QAT+A", {}),                                   # timer retrieval
    ("QTLS", {"qat_notify_mode": "interrupt"}),      # interrupt retrieval
])
def test_failover_timer_safe_under_non_heuristic_modes(config, overrides):
    """Regression: a failover timer configured alongside timer or
    interrupt retrieval must neither crash the worker nor register the
    sweep — those schemes run out of loop and cannot stall below a
    poll threshold, so the sweep only backs up heuristic polling."""
    bed = make_bed(config, qat_failover_timer=1e-3, **overrides)
    bed.sim.run(until=0.04)
    for w in bed.server.workers:
        assert w.reactor.source("failover") is None
    assert len(bed.metrics.handshakes) > 0


def test_failover_sweep_registers_and_runs_under_heuristic():
    bed = make_bed("QTLS", qat_failover_timer=1e-3)
    bed.sim.run(until=0.04)
    for w in bed.server.workers:
        fo = w.reactor.source("failover")
        assert fo is not None
        assert fo.sweeps > 0


def test_failover_source_skips_sweep_without_polls_fn():
    """The source itself is mode-generic: with no poll counter to
    watch it sweeps but never rescue-polls (inert, not crashing)."""
    from repro.server.reactor import FailoverSource
    bed = make_bed("QTLS")
    w = bed.server.workers[0]
    fo = w.reactor.register(FailoverSource(w, interval=1e-3))
    fo.start()
    bed.sim.run(until=0.03)
    assert fo.sweeps > 0
    assert fo.rescue_polls == 0


# -- timer thread stop: no stale tick (satellite regression) -------------------

def test_timer_stop_cancels_pending_tick():
    """stop() between ticks must interrupt the sleeping process: no
    poll may run after stop, and the process must be dead — a killed
    worker strands no stale tick against a dead engine."""
    sim = Simulator()
    engine = make_engine(sim)
    thread = TimerPollingThread(sim, engine, interval=10e-6)
    thread.start()
    stopped = {}

    def stop_midway():
        thread.stop()
        stopped["polls"] = thread.polls

    sim.call_at(55e-6, stop_midway)  # between the 50us and 60us ticks
    sim.run(until=2e-3)
    assert stopped["polls"] == 5
    assert thread.polls == 5, "a stale tick polled after stop()"


def test_timer_stop_is_idempotent_and_prestart_safe():
    sim = Simulator()
    thread = TimerPollingThread(sim, make_engine(sim), interval=10e-6)
    thread.stop()        # never started: no-op
    thread.start()
    sim.run(until=35e-6)
    thread.stop()
    thread.stop()        # double stop: no-op
    sim.run(until=1e-3)
    assert thread.polls == 3


def test_worker_kill_stops_timer_thread_via_reactor():
    bed = make_bed("QAT+A", n_clients=6)
    bed.sim.run(until=0.02)
    w = bed.server.workers[0]
    thread = w.reactor.source("timer-poll").thread
    assert thread.polls > 0
    w.kill()
    polls_at_kill = thread.polls
    bed.sim.run(until=0.03)
    assert thread.polls == polls_at_kill


# -- interrupt retriever: disarm-while-coalescing (satellite regression) -------

def test_disarm_during_coalescing_window_fizzles():
    """A response lands, the interrupt starts coalescing, and the
    worker dies before the moderation window elapses: the scheduled
    service must fizzle — no interrupt charged, no dispatch into the
    dead engine — and the response stays in the ring for whoever owns
    the instance next."""
    sim = Simulator()
    eng = make_engine(sim)
    irq = InterruptRetriever(sim, eng)
    irq.arm()
    drv = eng.backend.drivers[0]

    def hook(ring):
        irq._on_response(ring)   # schedules service at +COALESCE_WINDOW
        irq.disarm()             # teardown lands inside the window

    drv.instance.set_response_callback(hook)
    job = submit_one(sim, eng)
    sim.run()
    assert irq.interrupts == 0
    assert not job.response_ready
    assert eng.inflight.total == 1  # never dispatched

    # The response was not lost: a manual poll still retrieves it.
    def poll(sim):
        yield from eng.poll_and_dispatch(owner="w")

    p = sim.process(poll(sim))
    sim.run(until=p)
    assert job.response_ready
    assert eng.inflight.total == 0


def test_worker_kill_disarms_interrupt_source():
    bed = make_bed("QTLS", n_clients=6, qat_notify_mode="interrupt")
    bed.sim.run(until=0.02)
    w = bed.server.workers[0]
    irq = w.reactor.source("interrupt").retriever
    assert irq.interrupts > 0
    w.kill()
    count_at_kill = irq.interrupts
    bed.sim.run(until=0.03)
    assert irq.interrupts == count_at_kill
    assert not irq._armed


# -- stats plumbing ------------------------------------------------------------

def test_stub_status_renders_reactor_section():
    bed = make_bed("QTLS")
    bed.sim.run(until=0.03)
    w = bed.server.workers[0]
    page = w.stub_status.render()
    assert "reactor: " in page
    for name in source_names(w):
        assert f"{name}[wakes " in page


def test_reactor_stats_not_in_fingerprinted_counters():
    """The reactor section is render-only: ``counters()`` feeds replay
    fingerprints, which must stay stable across loop refactors."""
    bed = make_bed("QTLS")
    bed.sim.run(until=0.02)
    w = bed.server.workers[0]
    counters = w.stub_status.counters()
    assert not any("reactor" in k or "wakes" in k for k in counters)


def test_reactor_snapshot_orders_and_counts():
    bed = make_bed("QTLS", qat_watchdog_interval=1e-3)
    bed.sim.run(until=0.04)
    w = bed.server.workers[0]
    snap = w.reactor.snapshot()
    assert list(snap) == source_names(w)
    assert snap["socket"]["events"] > 0
    assert snap["heuristic"]["polls"] > 0
    assert snap["watchdog"]["sweeps"] > 0
    total_busy = sum(s["busy"] for s in snap.values())
    assert total_busy > 0
