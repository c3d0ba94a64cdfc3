"""Tests for the simulated QAT device: rings, engines, parallelism."""

import pytest

from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.qat import (QatDevice, QatUserspaceDriver, dh8970,
                       qat_service_time)
from repro.qat.faults import FaultPlan
from repro.sim import Process, Simulator
from repro.sim.rng import RngRegistry


def rsa_op():
    return CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048)


def make_driver(sim, **kw):
    dev = QatDevice(sim, n_endpoints=1, **kw)
    inst = dev.allocate_instances(1)[0]
    return dev, QatUserspaceDriver(inst)


def test_submit_and_poll_roundtrip():
    sim = Simulator()
    _, drv = make_driver(sim)
    assert drv.try_submit(rsa_op(), compute=lambda: "signature")
    sim.run()
    responses = drv.poll()
    assert len(responses) == 1
    assert responses[0].ok and responses[0].result == "signature"


def test_response_not_ready_before_service_time():
    sim = Simulator()
    _, drv = make_driver(sim)
    drv.try_submit(rsa_op(), compute=lambda: 1)
    service = qat_service_time(rsa_op())
    sim.run(until=service / 2)
    assert drv.poll() == []
    sim.run()
    assert len(drv.poll()) == 1


def test_completion_time_includes_pcie_and_pipeline_latency():
    from repro.qat import qat_pipeline_latency
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1)
    inst = dev.allocate_instances(1)[0]
    drv = QatUserspaceDriver(inst)
    drv.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    ep = dev.endpoints[0]
    expected = (qat_service_time(rsa_op()) + 2 * ep.pcie_latency
                + qat_pipeline_latency(rsa_op()))
    assert sim.now == pytest.approx(expected)


def test_single_engine_serializes():
    sim = Simulator()
    _, drv = make_driver(sim, engines_per_endpoint=1)
    for _ in range(3):
        drv.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    # 3 sequential services; per request pcie in/out overlap is serial
    # on one engine.
    per = qat_service_time(rsa_op())
    assert sim.now >= 3 * per


def test_parallel_engines_overlap():
    """Concurrent requests from ONE instance use many engines: the
    parallelism claim of paper section 2.3."""
    from repro.qat import qat_pipeline_latency
    sim = Simulator()
    _, drv = make_driver(sim, engines_per_endpoint=8)
    for _ in range(8):
        drv.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    per = qat_service_time(rsa_op()) + qat_pipeline_latency(rsa_op())
    assert sim.now < per + qat_service_time(rsa_op())  # ran in parallel


def test_ring_full_submission_fails():
    sim = Simulator()
    _, drv = make_driver(sim, ring_capacity=4)
    for i in range(4):
        assert drv.try_submit(rsa_op(), compute=lambda: i)
    assert not drv.try_submit(rsa_op(), compute=lambda: 99)
    assert drv.submit_failures == 1


def test_ring_slot_freed_after_retrieval():
    sim = Simulator()
    _, drv = make_driver(sim, ring_capacity=2)
    assert drv.try_submit(rsa_op(), compute=lambda: 1)
    assert drv.try_submit(rsa_op(), compute=lambda: 2)
    assert not drv.try_submit(rsa_op(), compute=lambda: 3)
    sim.run()
    # Completed but not yet retrieved: slots still occupied.
    assert not drv.try_submit(rsa_op(), compute=lambda: 3)
    drv.poll()
    assert drv.try_submit(rsa_op(), compute=lambda: 3)


def test_in_flight_counter():
    sim = Simulator()
    _, drv = make_driver(sim)
    assert drv.in_flight == 0
    drv.try_submit(rsa_op(), compute=lambda: 1)
    drv.try_submit(rsa_op(), compute=lambda: 2)
    assert drv.in_flight == 2
    sim.run()
    assert drv.in_flight == 2  # completed, not yet retrieved
    drv.poll()
    assert drv.in_flight == 0


def test_compute_exception_becomes_errored_response():
    sim = Simulator()
    _, drv = make_driver(sim)

    def boom():
        raise ValueError("bad padding")

    drv.try_submit(rsa_op(), compute=boom)
    sim.run()
    (resp,) = drv.poll()
    assert not resp.ok
    assert isinstance(resp.error, ValueError)


def test_cookie_passthrough():
    sim = Simulator()
    _, drv = make_driver(sim)
    drv.try_submit(rsa_op(), compute=lambda: 1, cookie={"job": 42})
    sim.run()
    (resp,) = drv.poll()
    assert resp.cookie == {"job": 42}


def test_response_latency_recorded():
    sim = Simulator()
    _, drv = make_driver(sim)
    drv.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    (resp,) = drv.poll()
    assert resp.latency == pytest.approx(sim.now)


def test_fairness_across_instances():
    """Two instances on one endpoint share engines round-robin."""
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1, engines_per_endpoint=1)
    a, b = dev.allocate_instances(2)
    da, db = QatUserspaceDriver(a), QatUserspaceDriver(b)
    for _ in range(3):
        da.try_submit(rsa_op(), compute=lambda: "a")
        db.try_submit(rsa_op(), compute=lambda: "b")
    sim.run()
    order = []
    # completion order is recorded via completed_at on responses
    resp = da.poll() + db.poll()
    resp.sort(key=lambda r: r.completed_at)
    order = [r.result for r in resp]
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_instances_distributed_across_endpoints():
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=3)
    insts = dev.allocate_instances(6)
    eps = [i.endpoint.endpoint_id for i in insts]
    assert eps == [0, 1, 2, 0, 1, 2]


def test_dh8970_shape():
    sim = Simulator()
    dev = dh8970(sim)
    assert len(dev.endpoints) == 3
    assert dev.total_engines == 30


def test_fw_counters():
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1)
    inst = dev.allocate_instances(1)[0]
    drv = QatUserspaceDriver(inst)
    drv.try_submit(rsa_op(), compute=lambda: 1)
    drv.try_submit(CryptoOp(CryptoOpKind.PRF, nbytes=48), compute=lambda: 2)
    sim.run()
    totals = dev.fw_counter_totals()
    assert totals["total"] == 2
    assert totals["kind.rsa_priv"] == 1
    assert totals["cat.prf"] == 1


def test_card_rsa_capacity_calibration():
    """The simulated DH8970 should sustain ~100K RSA-2048 ops/s
    (the Fig. 7a plateau), +/- 15%."""
    sim = Simulator()
    dev = dh8970(sim)
    drivers = [QatUserspaceDriver(i) for i in dev.allocate_instances(6)]

    done = {"n": 0}

    def feeder(sim, drv):
        # Keep 12 requests in flight per instance for 0.2 simulated sec.
        while sim.now < 0.2:
            while drv.in_flight < 12:
                drv.try_submit(rsa_op(), compute=lambda: 1)
            yield sim.timeout(200e-6)
            done["n"] += len(drv.poll())

    for d in drivers:
        sim.process(feeder(sim, d))
    sim.run(until=0.2)
    rate = done["n"] / 0.2
    assert 85_000 < rate < 115_000, f"calibration off: {rate:.0f} ops/s"


def test_qat_service_time_validation():
    with pytest.raises(ValueError):
        qat_service_time(CryptoOp(CryptoOpKind.HKDF, nbytes=32))
    with pytest.raises(ValueError):
        qat_service_time(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=999))
    with pytest.raises(ValueError):
        qat_service_time(CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve="P-999"))


def test_cipher_service_time_scales_with_bytes():
    small = qat_service_time(CryptoOp(CryptoOpKind.RECORD_CIPHER, nbytes=1024))
    big = qat_service_time(CryptoOp(CryptoOpKind.RECORD_CIPHER, nbytes=16384))
    assert big > small


# -- the request pipeline ------------------------------------------------


def test_busy_engines_bounded_by_engine_count_and_drains():
    sim = Simulator()
    dev, drv = make_driver(sim, engines_per_endpoint=3)
    ep = dev.endpoints[0]
    for i in range(10):
        assert drv.try_submit(rsa_op(), compute=lambda i=i: i)
    seen = {ep.busy_engines}
    while sim.peek() < float("inf"):
        sim.step()
        seen.add(ep.busy_engines)
    assert max(seen) == ep.n_engines == 3
    assert min(seen) == ep.busy_engines == 0
    assert sorted(r.result for r in drv.poll()) == list(range(10))


def test_requests_run_without_a_process_each(monkeypatch):
    created = []
    init = Process.__init__

    def counting_init(self, *args, **kw):
        created.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(Process, "__init__", counting_init)
    sim = Simulator()
    _, drv = make_driver(sim, engines_per_endpoint=2)
    for i in range(5):
        drv.try_submit(rsa_op(), compute=lambda i=i: i)
    sim.run()
    assert len(drv.poll()) == 5
    assert created == []


def test_fault_hooks_and_reset_in_service_keep_their_outcomes():
    """Latency spikes, corrupted and lost responses, a failing compute
    and an endpoint reset while two ops are in service, on two engines.
    The expected outcomes are pinned: they are what the endpoint
    produced when each request ran as its own simulation process."""
    service = qat_service_time(rsa_op())
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1, engines_per_endpoint=2)
    plan = FaultPlan(RngRegistry(11).stream("faults"),
                     latency_spike_rate=0.4, latency_spike_factor=4.0,
                     corruption=0.3, response_loss=0.3,
                     resets=((0, 5.5 * service),))
    dev.install_fault_plan(plan)
    drv = QatUserspaceDriver(dev.allocate_instances(1)[0])
    ep = dev.endpoints[0]

    def boom():
        raise ValueError("bad padding")

    for i in range(12):
        drv.try_submit(rsa_op(), compute=boom if i == 3 else lambda i=i: i,
                       cookie=i)
    sim.run()

    def at(t):  # simulated time in units of one RSA service time
        return round(t / service, 6)

    responses = sorted(drv.poll(), key=lambda r: (r.completed_at, r.cookie))
    assert [(r.cookie, r.ok, type(r.error).__name__, at(r.completed_at))
            for r in responses] == [
        (2, False, "QatHardwareError", 6.157143),
        (3, False, "QatHardwareError", 6.157143),
        (4, True, "NoneType", 7.185714),
        (5, False, "QatHardwareError", 7.185714),
    ]
    assert [(at(t), kind, detail) for t, kind, detail in plan.trace()] == [
        (0.0, "latency_spike", "ep0 rsa_priv x4"),
        (1.028571, "latency_spike", "ep0 rsa_priv x4"),
        (2.128571, "response_lost", "ep0 rsa_priv"),
        (5.057143, "response_corrupted", "ep0 rsa_priv"),
        (5.057143, "response_corrupted", "ep0 rsa_priv"),
        (5.5, "endpoint_reset", "ep0 dropped 7 entries"),
        (6.085714, "response_corrupted", "ep0 rsa_priv"),
    ]
    totals = dev.fw_counter_totals()
    assert (totals["total"], totals["errors"], totals["responses_lost"]) \
        == (6, 3, 1)
    assert ep.responses_lost == 1
    assert ep.busy_engines == 0
    assert dev.total_in_flight() == 0
    assert at(sim.now) == 7.185714
