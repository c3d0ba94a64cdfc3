"""Async offload jobs: the two OpenSSL implementations (section 4.1).

:class:`FiberAsyncJob`
    The fiber mechanism merged into OpenSSL 1.1.0: the running piece
    of the TLS connection is encapsulated in an ASYNC_JOB that can be
    paused at any point (a fiber context swap) and resumed later,
    jumping straight back to the pause point. Python generators *are*
    fibers for our purposes: ``ASYNC_pause_job`` is the generator
    suspending at ``yield``; ``ASYNC_start_job(job)`` is ``gen.send``.

:class:`StackAsyncJob`
    The earlier intrusive implementation (Figure 5): no fiber — on
    resume, the same TLS API is called again from the top and
    "carefully skips" already-completed operations using state flags.
    Modelled by re-running the generator from scratch while replaying
    memoized results of completed steps. Cheaper per switch (no
    context swap) but pays a replay cost per completed step and is
    API-intrusive (why the OpenSSL community rejected it).

Both expose the same protocol to the SSL connection driver:
``advance()`` steps the state machine and returns ``("action", a)`` or
``("done", result)``.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Any, Callable, Generator, List, Optional, Tuple

import numpy as np

from ..tls.actions import CryptoCall, NeedMessage, SendMessage
from .wait_ctx import AsyncWaitCtx

__all__ = ["JobState", "AsyncJob", "FiberAsyncJob", "StackAsyncJob"]


class JobState(Enum):
    RUNNING = auto()
    #: Paused with a crypto request in flight (WANT_ASYNC).
    PAUSED = auto()
    #: Paused after a failed submission; must retry (ring was full).
    RETRY = auto()
    FINISHED = auto()


class AsyncJob:
    """Common machinery for both implementations."""

    def __init__(self, make_gen: Callable[[], Generator],
                 kind: str = "job") -> None:
        self._make_gen = make_gen
        self._gen = make_gen()
        self._started = False
        self.kind = kind  # async-handler identity: handshake/read/write
        self.state = JobState.RUNNING
        self.wait_ctx = AsyncWaitCtx()
        self.result: Any = None
        # Response delivery slot (filled by the engine's dispatch).
        self._resume_value: Any = None
        self._resume_exc: Optional[BaseException] = None
        self._has_resume = False
        #: The CryptoCall we paused on (for retry-after-ring-full).
        self.pending_call: Optional[CryptoCall] = None
        #: Action re-presented on the next drive (e.g. a NeedMessage
        #: that returned WANT_READ).
        self.parked_action: Any = None
        self.swaps = 0   # context swaps (fiber) / API re-entries (stack)
        #: Consecutive failed ring submissions (reset on acceptance);
        #: bounds the WANT_RETRY loop under ring-full storms.
        self.submit_attempts = 0
        #: Request-lifecycle trace context for the op currently in
        #: flight (:class:`repro.obs.context.OpTrace`); one op is in
        #: flight per job at a time, and the SSL driver clears this on
        #: resume.
        self.trace = None

    # -- engine-facing ------------------------------------------------------

    def deliver(self, value: Any, exc: Optional[BaseException]) -> None:
        """Store the crypto response; the job resumes when the
        application reschedules its async handler."""
        if self.state is not JobState.PAUSED:
            raise RuntimeError(f"deliver() on job in state {self.state}")
        self._resume_value = value
        self._resume_exc = exc
        self._has_resume = True

    @property
    def response_ready(self) -> bool:
        return self._has_resume

    # -- driver-facing --------------------------------------------------------

    def mark_paused(self, call: CryptoCall) -> None:
        self.state = JobState.PAUSED
        self.pending_call = call

    def mark_retry(self, call: CryptoCall) -> None:
        self.state = JobState.RETRY
        self.pending_call = call

    def take_resume(self) -> Tuple[Any, Optional[BaseException]]:
        if not self._has_resume:
            raise RuntimeError("no response delivered yet")
        self._has_resume = False
        value, exc = self._resume_value, self._resume_exc
        self._resume_value = self._resume_exc = None
        self.pending_call = None
        self.state = JobState.RUNNING
        return value, exc

    def advance(self, value: Any = None,
                exc: Optional[BaseException] = None) -> Tuple[str, Any]:
        """Step the state machine: ``("action", a)`` or ``("done",
        result)``."""
        try:
            if not self._started:
                self._started = True
                action = self._gen.send(None)
            elif exc is not None:
                action = self._gen.throw(exc)
            else:
                action = self._gen.send(value)
        except StopIteration as stop:
            self.state = JobState.FINISHED
            self.result = stop.value
            return ("done", stop.value)
        return ("action", action)

    # Recording hooks: only the stack implementation memoizes.

    def record_crypto(self, result: Any) -> None:
        pass

    def record_message(self, message: Any) -> None:
        pass

    def record_send(self) -> None:
        pass

    def prepare_resume(self) -> int:
        """Re-enter the job after a pause; returns the number of steps
        replayed (0 for fibers, which jump straight to the pause
        point)."""
        self.swaps += 1
        return 0


class FiberAsyncJob(AsyncJob):
    """Generator-as-fiber implementation (OpenSSL 1.1.0 fiber async):
    :meth:`AsyncJob.advance` resumes the paused generator in place."""


class StackAsyncJob(AsyncJob):
    """State-flag implementation (Figure 5): restart + careful skip.

    ``rng`` must be the generator the state machine draws from; its
    state is snapshotted at job creation so a replay reproduces the
    original draws bit-for-bit, then restored so fresh work continues
    from the live stream.
    """

    def __init__(self, make_gen: Callable[[], Generator], kind: str = "job",
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(make_gen, kind)
        self._rng = rng
        self._rng_snapshot = (None if rng is None
                              else rng.bit_generator.state)
        # Log: ("crypto", result) | ("msg", message) | ("send",)
        self._log: List[Tuple[str, Any]] = []
        self.replayed_steps = 0

    def record_crypto(self, result: Any) -> None:
        self._log.append(("crypto", result))

    def record_message(self, message: Any) -> None:
        self._log.append(("msg", message))

    def record_send(self) -> None:
        self._log.append(("send", None))

    def prepare_resume(self) -> int:
        """Call the TLS API again from the top: fresh generator, replay
        the log, stop at the pause point. The paused CryptoCall is
        re-yielded and becomes :attr:`parked_action`."""
        self.swaps += 1
        live_state = None
        if self._rng is not None:
            live_state = self._rng.bit_generator.state
            self._rng.bit_generator.state = self._rng_snapshot
        try:
            self._gen = self._make_gen()
            self._started = True
            action = self._gen.send(None)
            for kind, payload in self._log:
                self.replayed_steps += 1
                if kind == "crypto":
                    if not isinstance(action, CryptoCall):
                        raise RuntimeError("stack replay diverged at crypto")
                    action = self._gen.send(payload)
                elif kind == "msg":
                    if not isinstance(action, NeedMessage):
                        raise RuntimeError("stack replay diverged at msg")
                    action = self._gen.send(payload)
                else:
                    if not isinstance(action, SendMessage):
                        raise RuntimeError("stack replay diverged at send")
                    action = self._gen.send(None)
        finally:
            if self._rng is not None and live_state is not None:
                self._rng.bit_generator.state = live_state
        self.parked_action = action
        return len(self._log)
