"""The SSL connection object (OpenSSL's ``SSL *``) for the server side.

Drives the sans-IO TLS state machines against the configured engine,
implementing the four SSL entry points the paper's Nginx patches touch
(``ngx_ssl_handshake``, ``ngx_ssl_handle_recv``, ``ngx_ssl_write``,
``ngx_ssl_shutdown``): each returns a :class:`SslStatus`, with
``WANT_ASYNC`` signalling a paused offload job.

Every method that can block on crypto is a simulation generator; the
worker event loop invokes them with ``yield from``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from ..obs.span import SpanStatus
from ..offload.engine import AsyncOffloadEngine
from ..tls.actions import (CryptoCall, HandshakeResult, NeedMessage,
                           SendMessage)
from ..tls.messages import ClientKeyExchange, ServerKeyExchange
from ..tls.record import RecordLayer, TlsRecord
from .async_job import AsyncJob, FiberAsyncJob, JobState, StackAsyncJob
from .status import SslStatus

__all__ = ["SslConnection"]


class SslConnection:
    """Server-side SSL state for one TCP connection."""

    def __init__(self, ctx, conn_id: int) -> None:
        self.ctx = ctx
        self.conn_id = conn_id
        self.hs_inbox: Deque[Any] = deque()    # inbound handshake messages
        self.outbox: List[SendMessage] = []    # outbound, flushed by caller
        self.handshake_result: Optional[HandshakeResult] = None
        self.record_layer: Optional[RecordLayer] = None
        self._job: Optional[AsyncJob] = None
        self._pending_write: Optional[bytes] = None
        self.jobs_created = 0

    # -- transport-facing -----------------------------------------------------

    def feed_message(self, message: Any) -> None:
        """Deliver an inbound handshake message from the transport."""
        self.hs_inbox.append(message)

    @property
    def job(self) -> Optional[AsyncJob]:
        return self._job

    @property
    def handshake_done(self) -> bool:
        return self.handshake_result is not None

    # -- job plumbing ------------------------------------------------------------

    def _new_job(self, make_gen, kind: str) -> AsyncJob:
        self.jobs_created += 1
        if self.ctx.async_mode == "stack":
            job = StackAsyncJob(make_gen, kind=kind,
                                rng=self.ctx.tls_config.rng)
        else:
            job = FiberAsyncJob(make_gen, kind=kind)
        # The offload scheduler keys per-connection in-flight budgets
        # off this (one job at a time per connection, but jobs churn
        # across the connection's lifetime).
        job.conn_id = self.conn_id
        return job

    # -- SSL entry points ----------------------------------------------------------

    def do_handshake(self, owner: object) -> Generator:
        """ngx_ssl_handshake: returns an SslStatus."""
        if self.handshake_done:
            return SslStatus.OK
        if self._job is None:
            factory = self.ctx.handshake_factory()
            self._job = self._new_job(factory, kind="handshake")
            if self.ctx.async_mode == "fiber":
                # ASYNC_start_job: encapsulating the running piece of
                # the connection costs one context swap.
                yield from self.ctx.core.consume(
                    self.ctx.cost_model.fiber_swap_cost, owner=owner)
                self._job.swaps += 1
        status = yield from self._drive(owner)
        if status is SslStatus.OK:
            result: HandshakeResult = self._job.result
            self.handshake_result = result
            self.record_layer = RecordLayer(
                self.ctx.provider,
                write_keys=result.server_write_keys,
                read_keys=result.client_write_keys,
                rng=self.ctx.record_rng,
                version=result.suite.version)
            self._job = None
        return status

    def write(self, data: bytes, owner: object) -> Generator:
        """ngx_ssl_write: protect application data into records.

        Returns ``(status, records)``; records is non-None only on OK.
        A paused write resumes by calling write again with the same
        data (or None).
        """
        if self.record_layer is None:
            raise RuntimeError("write before handshake completion")
        if self._job is None:
            if data is None:
                raise ValueError("no pending write to resume")
            self._pending_write = data
            layer = self.record_layer
            self._job = self._new_job(lambda: layer.protect(data),
                                      kind="write")
        status = yield from self._drive(owner)
        if status is SslStatus.OK:
            records = self._job.result
            self._job = None
            self._pending_write = None
            return status, records
        return status, None

    def read_record(self, record: Optional[TlsRecord], owner: object
                    ) -> Generator:
        """ngx_ssl_handle_recv: open one inbound application record.

        Returns ``(status, payload)``. Pass ``record=None`` when
        resuming a paused read.
        """
        if self.record_layer is None:
            raise RuntimeError("read before handshake completion")
        if self._job is None:
            if record is None:
                raise ValueError("no pending read to resume")
            layer = self.record_layer
            self._job = self._new_job(lambda: layer.unprotect(record),
                                      kind="read")
        status = yield from self._drive(owner)
        if status is SslStatus.OK:
            payload = self._job.result
            self._job = None
            return status, payload
        return status, None

    # -- the driver --------------------------------------------------------------

    def _drive(self, owner: object) -> Generator:
        """Advance the current job until OK / WANT_READ / WANT_ASYNC /
        WANT_RETRY."""
        job = self._job
        ctx = self.ctx
        core, cm, engine = ctx.core, ctx.cost_model, ctx.engine
        use_async = ctx.async_mode != "sync"

        # -- re-entry ---------------------------------------------------------
        if job.state is JobState.PAUSED:
            if not job.response_ready:
                return SslStatus.WANT_ASYNC  # spurious wakeup
            value, exc = job.take_resume()
            replayed = job.prepare_resume()
            if ctx.async_mode == "fiber":
                yield from core.consume(cm.fiber_swap_cost, owner=owner)
            else:
                yield from core.consume(cm.stack_replay_cost * replayed,
                                        owner=owner)
            # The op's lifecycle ends here: the paused job is running
            # again (the "resume" stage covers notification + context
            # restore). Failure statuses were stamped by the engine.
            trace = job.trace
            if trace is not None:
                job.trace = None
                obs = getattr(core.sim, "obs", None)
                if obs is not None and obs.enabled:
                    obs.finish(trace, core.sim.now)
            job.parked_action = None
            if exc is None:
                job.record_crypto(value)
                outcome = job.advance(value)
            else:
                outcome = job.advance(exc=exc)
        elif job.state is JobState.RETRY:
            call = job.pending_call
            job.pending_call = None
            job.state = JobState.RUNNING
            outcome = ("action", call)
        elif job.parked_action is not None:
            outcome = ("action", job.parked_action)
            job.parked_action = None
        else:
            outcome = job.advance()

        # -- main loop -----------------------------------------------------------
        while True:
            tag, payload = outcome
            if tag == "done":
                return SslStatus.OK

            action = payload
            if isinstance(action, CryptoCall):
                if (use_async and isinstance(engine, AsyncOffloadEngine)
                        and engine.offloads(action)):
                    obs = getattr(core.sim, "obs", None)
                    if (obs is not None and obs.enabled
                            and job.trace is None):
                        # One trace per offloaded op, opened at the
                        # offload decision; WANT_RETRY re-submissions
                        # reuse it (the queue stage absorbs them).
                        job.trace = obs.begin(
                            action.op, self.conn_id,
                            getattr(owner, "worker_id", -1), job.kind,
                            core.sim.now)
                    ok = yield from engine.submit_async(action, job, owner)
                    if ok:
                        job.mark_paused(action)
                        if ctx.async_mode == "fiber":
                            # ASYNC_pause_job: swap back to main code.
                            yield from core.consume(cm.fiber_swap_cost,
                                                    owner=owner)
                            job.swaps += 1
                        return SslStatus.WANT_ASYNC
                    if engine.should_retry_submit(job):
                        job.mark_retry(action)
                        return SslStatus.WANT_RETRY
                    # Degraded: retry budget spent or every instance's
                    # breaker is open — complete this op on the CPU so
                    # the handshake still makes progress.
                    result = yield from engine.execute_fallback(action,
                                                                owner)
                    trace = job.trace
                    if trace is not None:
                        job.trace = None
                        obs = getattr(core.sim, "obs", None)
                        if obs is not None and obs.enabled:
                            obs.finish(trace, core.sim.now,
                                       SpanStatus.FAILOVER)
                    job.submit_attempts = 0
                    job.record_crypto(result)
                    outcome = job.advance(result)
                    continue
                # Synchronous path: software crypto, straight offload,
                # or a non-offloadable op (HKDF) in async mode.
                try:
                    result = yield from engine.execute_blocking(action, owner)
                except Exception as exc:
                    outcome = job.advance(exc=exc)
                    continue
                job.record_crypto(result)
                outcome = job.advance(result)
            elif isinstance(action, NeedMessage):
                if self.hs_inbox:
                    msg = self.hs_inbox.popleft()
                    job.record_message(msg)
                    yield from core.consume(
                        cm.handshake_msg_cost + self._marshal_extra(msg),
                        owner=owner)
                    outcome = job.advance(msg)
                else:
                    job.parked_action = action
                    return SslStatus.WANT_READ
            elif isinstance(action, SendMessage):
                self.outbox.append(action)
                job.record_send()
                yield from core.consume(
                    cm.handshake_msg_cost
                    + self._marshal_extra(action.message),
                    owner=owner)
                outcome = job.advance(None)
            else:
                raise TypeError(f"unknown action {action!r}")

    def _marshal_extra(self, message) -> float:
        """Extra CPU for (de)serializing EC points in key-exchange
        messages (ServerKeyExchange construction, point parsing)."""
        if isinstance(message, ServerKeyExchange):
            return self.ctx.cost_model.ec_marshal_cost
        if isinstance(message, ClientKeyExchange) and message.public:
            return self.ctx.cost_model.ec_marshal_cost
        return 0.0

    # -- teardown -----------------------------------------------------------------

    def abort_job(self) -> None:
        """Drop any in-progress job (connection is being torn down)."""
        job = self._job
        if job is not None:
            trace = getattr(job, "trace", None)
            if trace is not None:
                job.trace = None
                sim = self.ctx.core.sim
                obs = getattr(sim, "obs", None)
                if obs is not None and obs.enabled:
                    obs.abort_open(trace, sim.now)
        self._job = None
