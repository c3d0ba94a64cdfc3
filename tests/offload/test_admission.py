"""Per-worker admission control at the engine seam: once the in-flight
population hits ``admission_limit``, further ops wait in a FIFO
backpressure queue instead of bouncing off full rings, and freed
capacity re-admits them in arrival order."""

import pytest

from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.testing import make_job, make_qat_env, rsa_call
from repro.tls.actions import CryptoCall


def submit_all(env, pairs):
    """Drive submit_async for each (call, job) pair inside a sim
    process; returns the acceptance flags."""
    oks = []

    def proc(sim):
        for call, job in pairs:
            ok = yield from env.engine.submit_async(call, job, owner="w")
            oks.append(ok)

    p = env.sim.process(proc(env.sim))
    env.sim.run(until=p)
    return oks


def poll_once(env):
    """One poll_and_dispatch pass (which also drains the admission
    queue into freed capacity); runs the sim to quiescence afterwards
    so accepted ops complete on the device."""
    def proc(sim):
        jobs = yield from env.engine.poll_and_dispatch(owner="w")
        return jobs

    p = env.sim.process(proc(env.sim))
    env.sim.run()
    return p.value


def test_limit_validation():
    with pytest.raises(ValueError, match="admission limit"):
        make_qat_env(admission_limit=0)


def test_ops_beyond_the_cap_queue_instead_of_submitting():
    env = make_qat_env(admission_limit=2)
    pairs = [(c, make_job(paused_on=c))
             for c in (rsa_call(f"r{i}") for i in range(4))]
    # Every submission is accepted — the overflow just queues.
    assert submit_all(env, pairs) == [True] * 4
    eng = env.engine
    assert eng.ops_offloaded == 2
    assert eng.admission_queued == 2
    assert eng.admission_enqueued == 2
    assert eng.admission_peak == 2
    # Queued ops are NOT on the accelerator and must not count as
    # in flight (they would block their own admission).
    assert eng.inflight.total == 2
    assert env.drivers[0].submitted == 2


def test_freed_capacity_admits_in_fifo_order():
    env = make_qat_env(admission_limit=1)
    calls = [rsa_call(f"r{i}") for i in range(3)]
    jobs = [make_job(paused_on=c) for c in calls]
    assert submit_all(env, list(zip(calls, jobs))) == [True] * 3
    eng = env.engine
    assert eng.admission_queued == 2
    env.sim.run()  # let the in-flight op land before the first poll

    delivered = []
    for _ in range(3):
        delivered.extend(poll_once(env))
    # Completion order matches submission order: each freed slot
    # admitted the head of the queue, never the newest arrival.
    assert delivered == jobs
    assert eng.admission_queued == 0
    assert eng.admission_admitted == 2
    assert eng.ops_offloaded == 3
    assert eng.responses_dispatched == 3


def test_queue_expiry_fails_over_to_software():
    env = make_qat_env(admission_limit=1, request_deadline=2e-3)
    calls = [rsa_call("fast"), rsa_call("slow")]
    jobs = [make_job(paused_on=c) for c in calls]
    assert submit_all(env, list(zip(calls, jobs))) == [True] * 2
    eng = env.engine
    assert eng.admission_queued == 1

    # Nobody polls: both the in-flight op and the queued op outlive
    # the deadline.
    env.sim.run(until=0.01)

    def proc(sim):
        jobs = yield from eng.check_timeouts(owner="w")
        return jobs

    p = env.sim.process(proc(env.sim))
    env.sim.run()
    assert eng.admission_queued == 0
    assert eng.op_timeouts == 2
    # Software fallback completed both on the CPU; the jobs resumed.
    assert eng.ops_fallback == 2
    assert set(p.value) == set(jobs)


def test_admission_applies_before_ring_pressure():
    # Limit far below the ring capacity: the ring never fills, so no
    # submission is ever rejected — overload degrades into queueing.
    env = make_qat_env(admission_limit=4)
    pairs = [(c, make_job(paused_on=c))
             for c in (rsa_call(f"r{i}") for i in range(32))]
    assert all(submit_all(env, pairs))
    eng = env.engine
    assert eng.submit_rejections == 0
    assert eng.admission_queued == 28
    assert env.drivers[0].in_flight <= 4


# -- worker drain / crash teardown (lifecycle layer) ------------------------

def drain_once(env):
    """One engine.drain_queued pass inside a sim process."""
    def proc(sim):
        jobs = yield from env.engine.drain_queued(owner="w")
        return jobs

    p = env.sim.process(proc(env.sim))
    env.sim.run()
    return p.value


def test_drain_fails_over_admission_queued_ops():
    # Regression: queued-but-unsubmitted ops must fail over (and resume
    # their jobs) when the worker drains, not hang behind an
    # accelerator path nobody will keep feeding.
    env = make_qat_env(admission_limit=1)
    calls = [rsa_call(f"r{i}") for i in range(3)]
    jobs = [make_job(paused_on=c) for c in calls]
    assert submit_all(env, list(zip(calls, jobs))) == [True] * 3
    eng = env.engine
    assert eng.admission_queued == 2

    resumed = drain_once(env)
    assert resumed == jobs[1:]
    assert eng.admission_queued == 0
    assert eng.ops_drained == 2
    # Software fallback delivered results, not errors.
    assert eng.ops_fallback == 2
    assert all(j.response_ready for j in jobs[1:])
    # The op already on the accelerator is untouched; the engine is
    # idle only after it completes and is polled out.
    assert not eng.idle
    poll_once(env)
    assert eng.idle


def test_drain_fails_over_coalescing_queue():
    env = make_qat_env(batch_size=4, batch_timeout=1e-3)
    calls = [rsa_call(f"b{i}") for i in range(2)]
    jobs = [make_job(paused_on=c) for c in calls]
    assert submit_all(env, list(zip(calls, jobs))) == [True] * 2
    eng = env.engine
    assert eng.queued_batch_ops == 2
    assert eng.inflight.total == 2  # batched ops count as in flight

    resumed = drain_once(env)
    assert resumed == jobs
    assert eng.queued_batch_ops == 0
    assert eng.inflight.total == 0
    assert eng.ops_drained == 2 and eng.ops_fallback == 2
    assert eng.idle
    assert env.drivers[0].submitted == 0  # never reached the rings


@pytest.mark.parametrize("batch_kw,stale", [
    ({}, 2),                                    # 2 in flight + 2 waiting
    ({"batch_size": 4, "batch_timeout": 1e-3}, 0),  # 2 coalescing + 2 waiting
], ids=["inflight", "coalescing"])
def test_abort_all_empties_every_table_and_closes_traces(batch_kw, stale):
    env = make_qat_env(admission_limit=2, trace=True, **batch_kw)
    calls = [rsa_call(f"a{i}") for i in range(4)]
    jobs = []
    for c in calls:
        job = make_job(paused_on=c)
        job.trace = env.tracer.begin(c.op, conn_id=1, worker_id=0,
                                     kind="handshake", now=env.sim.now)
        jobs.append(job)
    assert submit_all(env, list(zip(calls, jobs))) == [True] * 4
    eng = env.engine
    assert eng.inflight.total == 2 and eng.admission_queued == 2

    assert eng.queued_batch_ops == (2 if batch_kw else 0)

    aborted = eng.abort_all()
    assert aborted == 4 and eng.ops_aborted == 4
    assert eng.idle
    assert eng.inflight.total == 0 and eng.admission_queued == 0
    # Only the two charged ops (in flight or coalescing) retire; the
    # waiting ones were never charged, so the ledger balances at 2.
    assert eng.ledger_accepted == eng.ledger_retired == 2
    # Every open trace closed (ABORTED), none leaked, none double-closed.
    assert env.tracer.snapshot_counts()["trace_open"] == 0
    assert all(j.trace is None for j in jobs)

    # Late completions for the aborted in-flight ops surface on the
    # rings and are dropped as stale, never delivered to a dead job.
    env.sim.run()
    delivered = poll_once(env)
    assert delivered == []
    assert eng.responses_stale == stale
    assert env.drivers[0].submitted == stale


def test_abort_all_on_an_idle_engine_is_a_noop():
    env = make_qat_env()
    assert env.engine.abort_all() == 0
    assert env.engine.idle


# -- both parked stages at once (batch_size=4, admission_limit=2) -------------

def park_both(env, calls=None):
    """Submit four ops: the first two coalesce in the batch (charging
    Rtotal up to the cap), the last two wait in the admission lanes."""
    calls = calls or [rsa_call(f"p{i}") for i in range(4)]
    jobs = [make_job(paused_on=c) for c in calls]
    assert submit_all(env, list(zip(calls, jobs))) == [True] * 4
    eng = env.engine
    assert eng.queued_batch_ops == 2 and eng.admission_queued == 2
    assert eng.inflight.total == 2
    return jobs


def run_proc(env, gen):
    """Run one engine call to completion (and no further, so no flush
    timer fires behind the test's back); returns its value."""
    p = env.sim.process(gen)
    env.sim.run(until=p)
    return p.value


def test_drain_resumes_coalescing_ops_before_waiting_ones():
    # Strict priority lets a younger handshake op overtake an older PRF
    # op into the batch, so the coalescing op is NOT the oldest: drain
    # order follows the stages, not arrival.
    env = make_qat_env(batch_size=4, batch_timeout=1e-3, admission_limit=2,
                       sched_policy="strict-priority")
    eng = env.engine
    prf = CryptoCall(CryptoOp(CryptoOpKind.PRF, nbytes=48),
                     compute=lambda: b"prf")
    jobs = park_both(env, [rsa_call("a"), rsa_call("b"), prf,
                           rsa_call("d")])
    run_proc(env, eng.flush_batch(owner="w"))
    env.sim.run(until=0.01)  # both submitted ops complete on the device
    assert env.drivers[0].submitted == 2
    # One completion frees one slot: the handshake op is admitted
    # ahead of the older PRF op.
    assert run_proc(env, eng.poll_and_dispatch(owner="w",
                                               max_responses=1)) == [jobs[0]]
    assert eng.queued_batch_ops == 1 and eng.admission_queued == 1

    resumed = run_proc(env, eng.drain_queued(owner="w"))
    assert resumed == [jobs[3], jobs[2]]
    assert eng.ops_drained == 2
    assert eng.ledger_accepted - eng.ledger_retired == eng.inflight.total


@pytest.mark.parametrize("idx,stage", [(0, "coalescing"), (2, "waiting")])
def test_fail_over_job_unparks_it_from_either_stage(idx, stage):
    env = make_qat_env(batch_size=4, batch_timeout=1e-3, admission_limit=2)
    eng = env.engine
    jobs = park_both(env)
    assert run_proc(env, eng.fail_over_job(jobs[idx], owner="w")) is True
    assert jobs[idx].response_ready and eng.ops_fallback == 1
    assert not eng.is_pending(jobs[idx])
    if stage == "coalescing":
        assert eng.queued_batch_ops == 1 and eng.admission_queued == 2
        assert eng.inflight.total == 1  # its charge was released
    else:
        assert eng.queued_batch_ops == 2 and eng.admission_queued == 1
        assert eng.inflight.total == 2
    assert eng.ledger_accepted - eng.ledger_retired == eng.inflight.total

    # Run the engine dry: the other three ops reach the device and
    # complete; the rescued op never does.
    for _ in range(4):
        run_proc(env, eng.flush_batch(owner="w"))
        poll_once(env)
    assert eng.idle
    assert env.drivers[0].submitted == 3
    assert eng.responses_dispatched == 3
