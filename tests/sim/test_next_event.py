"""The kernel's next-event rule is order-exact.

While the kernel runs the last callback of an event, a process may
resume inline on the calendar's head and ``Core.consume`` may take an
idle core without a request event. Neither may change what happens or
when: every program must log the same ``(now, pid, step)`` sequence with
the rule switched off (``kernel._TAIL_ELISION = False``), which replays
the plain one-event-per-step order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Core
from repro.sim import AnyOf, Interrupt, Simulator, kernel

N_PROCS = 4
N_SHARED = 3
N_CORES = 2

# Times are integers (read them as microseconds) so that same-time
# collisions are frequent and exact.
DELAY = st.integers(0, 3)
OP = st.one_of(
    st.tuples(st.just("timeout"), DELAY),
    st.tuples(st.just("consume"), st.integers(0, N_CORES - 1), DELAY,
              st.sampled_from([None, "a", "b"])),
    st.tuples(st.just("crossing"), st.integers(0, N_CORES - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_SHARED - 1)),
    st.tuples(st.just("fire"), st.integers(0, N_SHARED - 1), DELAY),
    st.tuples(st.just("any"), st.integers(0, N_SHARED - 1), DELAY),
    st.tuples(st.just("join"), st.integers(0, N_PROCS - 1)),
    st.tuples(st.just("interrupt"), st.integers(0, N_PROCS - 1)),
)
PROGRAM = st.lists(st.lists(OP, max_size=8), min_size=1, max_size=N_PROCS)

PLAIN_STEP = Simulator.step


def run_program(program, horizon):
    """Run ``program`` (one op list per process) and return its log."""
    sim = Simulator()
    cores = [Core(sim, i, context_switch_cost=1, kernel_switch_cost=1)
             for i in range(N_CORES)]
    # Shared events with several waiters: two fired by the program, one
    # timeout that fires on its own.
    shared = [sim.event(), sim.event(), sim.timeout(2)]
    procs = []
    log = []

    def step(pid, k, op):
        kind = op[0]
        if kind == "timeout":
            yield sim.timeout(op[1])
        elif kind == "consume":
            yield from cores[op[1]].consume(op[2], owner=op[3])
        elif kind == "crossing":
            yield from cores[op[1]].kernel_crossing()
        elif kind == "wait":
            yield shared[op[1]]
        elif kind == "fire":
            ev = shared[op[1]]
            if not ev.triggered:
                ev.succeed(value=(pid, k), delay=op[2])
        elif kind == "any":
            yield AnyOf(sim, [shared[op[1]], sim.timeout(op[2])])
        elif kind == "join":
            if op[1] < len(procs) and op[1] != pid:
                yield procs[op[1]]
        elif kind == "interrupt":
            target = procs[op[1]] if op[1] < len(procs) else None
            if (target is not None and target is not procs[pid]
                    and target.is_alive and target._waiting_on is not None):
                target.interrupt((pid, k))

    def body(pid, ops):
        for k, op in enumerate(ops):
            try:
                yield from step(pid, k, op)
                outcome = "ok"
            except Interrupt:
                outcome = "interrupted"
            except Exception as exc:
                outcome = type(exc).__name__
            log.append((sim.now, pid, k, outcome))
        return pid

    for pid, ops in enumerate(program):
        procs.append(sim.process(body(pid, ops)))
    sim.run(until=horizon)
    log.append(("horizon", sim.now))
    sim.run()
    log.append(("end", sim.now))
    log.extend((c.stats.busy_time, c.stats.context_switches,
                c.stats.kernel_crossings, c._lock.in_use) for c in cores)
    return log


def replay_without_elision(program, horizon):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_TAIL_ELISION", False)
        return run_program(program, horizon)


@settings(max_examples=300, deadline=None)
@given(PROGRAM, st.integers(0, 12))
def test_elision_keeps_the_event_order(program, horizon):
    assert run_program(program, horizon) == \
        replay_without_elision(program, horizon)


def test_second_waiter_timeout_finishes_before_first_waiter_consume():
    """Two waiters on one event: the first charges a core, the second
    sleeps as long. The first's core request is scheduled before the
    second's timeout, so the second finishes first. Granting the core
    inline in a callback that is not the event's last would reorder
    them."""

    def run():
        sim = Simulator()
        core = Core(sim, 0)
        gate = sim.event()
        done = []

        def consumer():
            yield gate
            yield from core.consume(2.0)
            done.append("consume")

        def sleeper():
            yield gate
            yield sim.timeout(2.0)
            done.append("timeout")

        sim.process(consumer())
        sim.process(sleeper())
        sim.call_in(1.0, gate.succeed)
        sim.run()
        return done

    assert run() == ["timeout", "consume"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_TAIL_ELISION", False)
        assert run() == ["timeout", "consume"]


def count_steps(monkeypatch, build):
    """Kernel steps taken to run ``build(sim)`` to completion."""
    steps = [0]

    def counting(sim):
        steps[0] += 1
        PLAIN_STEP(sim)

    monkeypatch.setattr(Simulator, "step", counting)
    sim = Simulator()
    build(sim)
    sim.run()
    return steps[0], sim.now


def test_uncontended_charges_take_no_kernel_step_each(monkeypatch):
    def build(sim):
        core = Core(sim, 0)

        def worker():
            for _ in range(10):
                yield from core.consume(1.0)

        sim.process(worker())

    elided, now = count_steps(monkeypatch, build)
    monkeypatch.setattr(kernel, "_TAIL_ELISION", False)
    plain, plain_now = count_steps(monkeypatch, build)
    assert now == plain_now == 10.0
    # Boot and exit only, versus those plus a request and a timeout per
    # charge.
    assert (elided, plain) == (2, 22)
