"""The stub_status module (paper section 4.3).

Nginx's stub_status counts alive and idle connections; QTLS extends it
to TLS-enabled connections and computes the number of *active* TLS
connections as ``TCactive = TCalive - TCidle``. An idle connection is
one waiting for a request from the end client (including keepalive);
active ones are handshaking, reading a request or writing a response.

Everything else on the page (offload backend, degradation, instance
pool, scheduler, trace and reactor sections) is read at read time from
the component that owns the number, so a read is never stale.
"""

from __future__ import annotations

from ..offload.engine import AsyncOffloadEngine

__all__ = ["StubStatus"]


class StubStatus:
    """Per-worker connection accounting and the live status page."""

    def __init__(self, worker=None) -> None:
        #: The worker whose engine, pool, scheduler, reactor and tracer
        #: the page reads (None: connection accounting only).
        self.worker = worker
        self.tls_alive = 0
        self.tls_idle = 0
        self.total_accepted = 0
        self.total_closed = 0
        #: Stuck connections the worker's watchdog sweep rescued.
        self.watchdog_rescues = 0
        # Lifecycle section (supervision layer): this worker's state
        # machine position, config generation, lease epoch and how many
        # times its slot has been respawned. Empty state = hidden.
        self.lifecycle_state = ""
        self.lifecycle_generation = 0
        self.lifecycle_epoch = 0
        self.lifecycle_respawns = 0

    # -- lifecycle hooks -------------------------------------------------

    def on_accept(self) -> None:
        self.tls_alive += 1
        self.total_accepted += 1

    def on_close(self, was_idle: bool) -> None:
        self.tls_alive -= 1
        if was_idle:
            self.tls_idle -= 1
        self.total_closed += 1
        self._check()

    def on_idle(self) -> None:
        """Connection started waiting for a client request."""
        self.tls_idle += 1
        self._check()

    def on_active(self) -> None:
        """Idle connection received a request (or resumed activity)."""
        self.tls_idle -= 1
        self._check()

    # -- the quantity the heuristic needs ------------------------------------

    @property
    def tls_active(self) -> int:
        """TCactive = TCalive - TCidle."""
        return self.tls_alive - self.tls_idle

    def _check(self) -> None:
        if self.tls_idle < 0 or self.tls_idle > self.tls_alive:
            raise RuntimeError(
                f"stub_status inconsistent: alive={self.tls_alive} "
                f"idle={self.tls_idle}")

    def update_lifecycle(self, *, state: str, generation: int,
                         epoch: int, respawns: int) -> None:
        """Refresh the supervision-layer section (the master publishes
        this on every state transition)."""
        self.lifecycle_state = state
        self.lifecycle_generation = generation
        self.lifecycle_epoch = epoch
        self.lifecycle_respawns = respawns

    # -- live reads ------------------------------------------------------------

    def _engine(self):
        eng = getattr(self.worker, "engine", None)
        return eng if isinstance(eng, AsyncOffloadEngine) else None

    @staticmethod
    def _pool_shown(eng: AsyncOffloadEngine) -> bool:
        """The instance-pool / admission section is shown only for a
        worker with a pool or an admission limit."""
        return (getattr(eng.backend, "pool", None) is not None
                or eng.admission_limit is not None)

    def _obs(self):
        obs = getattr(getattr(self.worker, "sim", None), "obs", None)
        return obs if obs is not None and obs.enabled else None

    @property
    def degraded(self) -> bool:
        """Is the offload path currently (or was it ever) impaired?"""
        c = self.counters()
        return (c["fallback_ops"] > 0 or c["op_timeouts"] > 0
                or c["open_breakers"] > 0 or c["watchdog_rescues"] > 0)

    def counters(self) -> dict:
        """Machine-readable counter snapshot (the render() numbers,
        minus formatting)."""
        out = {
            "tls_alive": self.tls_alive, "tls_idle": self.tls_idle,
            "tls_active": self.tls_active,
            "accepted": self.total_accepted, "closed": self.total_closed,
            "backend": "", "batches_submitted": 0, "batch_ops": 0,
            "fallback_ops": 0, "op_timeouts": 0, "open_breakers": 0,
            "submit_failures": 0,
            "watchdog_rescues": self.watchdog_rescues,
            "admission_queued": 0, "admission_peak": 0,
            "admission_admitted": 0,
        }
        eng = self._engine()
        if eng is None:
            return out
        out.update(backend=eng.backend.name,
                   batches_submitted=eng.batches_submitted,
                   batch_ops=eng.batch_ops,
                   fallback_ops=eng.ops_fallback,
                   op_timeouts=eng.op_timeouts,
                   open_breakers=eng.open_breakers,
                   submit_failures=eng.submit_rejections)
        if self._pool_shown(eng):
            out.update(admission_queued=eng.admission_queued,
                       admission_peak=eng.admission_peak,
                       admission_admitted=eng.admission_admitted)
        return out

    def render(self) -> str:
        """The stub_status page text (Nginx style, plus the QTLS
        TLS-connection and offload-degradation extensions)."""
        c = self.counters()
        eng = self._engine()
        lines = [
            f"Active connections: {c['tls_active']}",
            f"TLS alive: {c['tls_alive']} idle: {c['tls_idle']} "
            f"active: {c['tls_active']}",
            f"accepted: {c['accepted']} closed: {c['closed']}",
            f"offload backend: {c['backend'] or 'none'} "
            f"batches {c['batches_submitted']} "
            f"mean_batch {eng.mean_batch_size if eng else 0.0:.2f}",
            f"offload degradation: fallback_ops {c['fallback_ops']} "
            f"op_timeouts {c['op_timeouts']} "
            f"open_breakers {c['open_breakers']} "
            f"submit_failures {c['submit_failures']} "
            f"watchdog_rescues {c['watchdog_rescues']}",
        ]
        if eng is not None and self._pool_shown(eng):
            pool = getattr(eng.backend, "pool", None)
            lines.append(
                f"instance pool: "
                f"policy {pool.policy.name if pool else 'none'} "
                f"leases "
                f"{len(pool.leases[eng.backend.worker_id]) if pool else 0} "
                f"migrations {pool.migrations if pool else 0} "
                f"admission limit {eng.admission_limit or 0} "
                f"queued {c['admission_queued']} "
                f"peak {c['admission_peak']} "
                f"admitted {c['admission_admitted']}")
        if eng is not None and eng.sched_active:
            sched = eng.scheduler.snapshot()
            lines.append(
                f"offload sched: policy {sched['policy']} "
                f"conn_budget {sched['conn_budget']} "
                + " ".join(
                    f"{name}[depth {info['depth']} served {info['served']} "
                    f"starved {info['starved']} expired {info['expired']}]"
                    for name, info in sched["lanes"].items()))
        if self.lifecycle_state:
            lines.append(f"lifecycle: state {self.lifecycle_state} "
                         f"generation {self.lifecycle_generation} "
                         f"epoch {self.lifecycle_epoch} "
                         f"respawns {self.lifecycle_respawns}")
        obs = self._obs()
        if obs is not None:
            t = obs.snapshot_counts()
            lines.append(f"trace: ops {t['trace_ops']} "
                         f"open {t['trace_open']} "
                         f"spans {t['trace_spans']} "
                         f"sampled_out {t['trace_sampled_out']}")
        # Render only: reactor stats stay out of counters(), so replay
        # fingerprints are stable across event-loop refactors.
        sources = (self.worker.reactor.snapshot()
                   if self.worker is not None else {})
        if sources:
            lines.append("reactor: " + " ".join(
                f"{name}[wakes {s['wakes']} events {s['events']} "
                f"busy {s['busy'] * 1e6:.1f}us]"
                for name, s in sources.items()))
        return "".join(line + "\n" for line in lines)
