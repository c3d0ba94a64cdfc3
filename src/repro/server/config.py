"""Server configuration, including the SSL Engine Framework settings
(artifact appendix A.7): offload mode, notify mode, poll mode, and the
heuristic thresholds — all the knobs the ``ssl_engine`` block of the
paper's extended Nginx conf exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["SslEngineConfig", "ServerConfig"]


@dataclass
class SslEngineConfig:
    """The ``ssl_engine { qat_engine { ... } }`` block."""

    use_engine: str = "qat_engine"                # or "" for software
    #: Which accelerator sits behind the engine: "qat" (the on-board
    #: card), "remote" (network-attached crypto service) or "software"
    #: (engine enabled but every op runs on the CPU).
    offload_backend: str = "qat"
    default_algorithm: Tuple[str, ...] = ("RSA", "EC", "PKEY_CRYPTO",
                                          "CIPHER")
    #: "sync" = straight offload; "async" = the QTLS framework.
    qat_offload_mode: str = "async"
    #: How QAT completions reach software: "poll" (userspace polling,
    #: QTLS's choice) or "interrupt" (kernel IRQ path — modelled so the
    #: section 3.3 trade-off can be measured).
    qat_notify_mode: str = "poll"
    #: "timer" = independent polling thread; "heuristic" = section 3.3.
    qat_poll_mode: str = "heuristic"
    qat_timer_poll_interval: float = 10e-6
    qat_heuristic_poll_asym_threshold: int = 48
    qat_heuristic_poll_sym_threshold: int = 24
    #: Failover timer for the heuristic scheme (section 4.3).
    qat_failover_timer: float = 5e-3
    #: QAT crypto instances assigned to each worker (section 2.3:
    #: multiple instances from different endpoints employ more
    #: computation engines).
    qat_instances_per_worker: int = 1
    #: How the instance pool apportions instances among workers:
    #: "static" (dedicated consecutive chunks, the paper's deployment),
    #: "shared" (any worker submits to any instance, paying an
    #: arbitration cost per submit) or "dynamic" (periodic rebalance
    #: migrates leases toward pressured workers).
    qat_instance_policy: str = "static"
    #: Rebalance tick period for the dynamic policy.
    qat_rebalance_interval: float = 2e-3
    #: Graceful-degradation knobs (robustness layer). The deadline is
    #: generous by default — worst-case legitimate queueing at card
    #: saturation is a few ms, so healthy runs never trip it.
    qat_request_deadline: float = 25e-3
    #: Worker watchdog sweep interval (0 disables the watchdog).
    qat_watchdog_interval: float = 5e-3
    qat_submit_max_retries: int = 32
    #: Submission batching: coalesce up to this many queued ops into
    #: one backend submit call (1 = no batching, the paper's behavior).
    qat_batch_size: int = 1
    #: Per-worker admission control (any backend): at most this many
    #: concurrently offloaded ops; excess submissions wait in a FIFO
    #: backpressure queue inside the engine instead of bouncing off
    #: full rings. 0 disables (unbounded, the paper's behaviour).
    offload_admission_limit: int = 0
    #: Arbitration policy for the class-aware admission lanes: "fifo"
    #: (global arrival order — bit-for-bit the pre-scheduler engine),
    #: "strict-priority" (handshake-asym > prf > record-cipher, with a
    #: starvation-proof deficit fallback) or "weighted-fair" (deficit
    #: round robin by ``offload_sched_weights``).
    offload_sched_policy: str = "fifo"
    #: Weighted-fair quanta per scheduling class (ops per round);
    #: unlisted classes keep their defaults (handshake-asym=8, prf=2,
    #: record-cipher=1).
    offload_sched_weights: Dict[str, int] = field(default_factory=dict)
    #: Per-connection in-flight budget: at most this many ops from one
    #: connection concurrently on the accelerator path; excess ops wait
    #: in their class lane. 0 disables (unbounded).
    offload_conn_budget: int = 0

    def validate(self) -> None:
        if self.use_engine not in ("", "qat_engine"):
            raise ValueError(f"unknown engine {self.use_engine!r}")
        if self.offload_backend not in ("qat", "remote", "software"):
            raise ValueError(
                f"unknown offload backend {self.offload_backend!r}")
        if (self.offload_backend == "remote"
                and self.qat_notify_mode == "interrupt"):
            raise ValueError(
                "interrupt notify mode requires the qat backend "
                "(a remote service has no local IRQ line)")
        if self.qat_batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.qat_offload_mode not in ("sync", "async"):
            raise ValueError(
                f"unknown offload mode {self.qat_offload_mode!r}")
        if self.qat_notify_mode not in ("poll", "interrupt"):
            raise ValueError(
                f"unknown notify mode {self.qat_notify_mode!r}")
        if self.qat_poll_mode not in ("timer", "heuristic"):
            raise ValueError(f"unknown poll mode {self.qat_poll_mode!r}")
        if self.qat_timer_poll_interval <= 0:
            raise ValueError("poll interval must be positive")
        if (self.qat_heuristic_poll_asym_threshold < 1
                or self.qat_heuristic_poll_sym_threshold < 1):
            raise ValueError("heuristic thresholds must be >= 1")
        if self.qat_instances_per_worker < 1:
            raise ValueError("need at least one instance per worker")
        if self.qat_instance_policy not in ("static", "shared", "dynamic"):
            raise ValueError(
                f"unknown instance policy {self.qat_instance_policy!r}")
        if (self.qat_instance_policy != "static"
                and self.qat_notify_mode == "interrupt"):
            raise ValueError(
                "interrupt notify mode requires the static instance "
                "policy (IRQ callbacks are armed on dedicated instances)")
        if self.qat_rebalance_interval <= 0:
            raise ValueError("rebalance interval must be positive")
        if self.offload_admission_limit < 0:
            raise ValueError("admission limit must be >= 0 (0 disables)")
        from ..offload.scheduler import DEFAULT_WEIGHTS, SCHED_POLICIES
        if self.offload_sched_policy not in SCHED_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {self.offload_sched_policy!r}; "
                f"expected one of {', '.join(SCHED_POLICIES)}")
        for name, weight in self.offload_sched_weights.items():
            if name not in DEFAULT_WEIGHTS:
                raise ValueError(
                    f"unknown scheduling class {name!r}; expected one of "
                    f"{', '.join(sorted(DEFAULT_WEIGHTS))}")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(
                    f"scheduling weight for {name!r} must be an "
                    "integer >= 1")
        if self.offload_conn_budget < 0:
            raise ValueError(
                "per-connection budget must be >= 0 (0 disables)")
        if self.qat_request_deadline <= 0:
            raise ValueError("request deadline must be positive")
        if self.qat_watchdog_interval < 0:
            raise ValueError("watchdog interval must be >= 0")
        if self.qat_submit_max_retries < 1:
            raise ValueError("need at least one submit attempt")


@dataclass
class ServerConfig:
    """Top-level Nginx-like configuration."""

    worker_processes: int = 1
    listen: str = "https"
    #: TLS suites enabled, in server preference order (names).
    suites: Tuple[str, ...] = ("TLS-RSA",)
    curves: Tuple[str, ...] = ("P-256",)
    rsa_bits: int = 2048
    #: TLS protocol version: "1.2" or "1.3".
    tls_version: str = "1.2"
    session_cache_enabled: bool = True
    #: Issue stateless session tickets (RFC 5077) alongside the cache.
    session_tickets: bool = False
    keepalive: bool = True
    #: Async-notification scheme: "fd" (epoll-monitored notification
    #: FDs) or "queue" (kernel-bypass async queue).
    async_notify_mode: str = "fd"
    #: OpenSSL async implementation: "fiber" or "stack" (section 4.1).
    async_impl: str = "fiber"
    #: Share one notification FD across all async jobs of a connection
    #: (the section 4.4 optimization). False allocates one per job.
    share_notify_fd: bool = True
    #: Lifecycle supervision (nginx master behaviour): respawn a
    #: crashed worker on the same core. Off leaves the slot dead and
    #: reclaims its instance leases for the surviving workers.
    worker_respawn: bool = True
    #: Per-slot respawn budget; a worker crashing more than this many
    #: times stays down (crash-loop protection).
    max_respawns: int = 5
    #: Graceful-reload drain deadline: an old-generation worker still
    #: holding connections past it is force-aborted.
    worker_drain_timeout: float = 50e-3
    ssl_engine: SslEngineConfig = field(default_factory=SslEngineConfig)

    def validate(self) -> None:
        if self.worker_processes < 1:
            raise ValueError("need at least one worker")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.worker_drain_timeout <= 0:
            raise ValueError("worker drain timeout must be positive")
        if self.tls_version not in ("1.2", "1.3"):
            raise ValueError(f"unsupported TLS version {self.tls_version!r}")
        if self.async_notify_mode not in ("fd", "queue"):
            raise ValueError(
                f"unknown notify mode {self.async_notify_mode!r}")
        if self.async_impl not in ("fiber", "stack"):
            raise ValueError(f"unknown async impl {self.async_impl!r}")
        self.ssl_engine.validate()

    @property
    def uses_offload(self) -> bool:
        """An accelerator-backed engine is configured (any backend)."""
        return (self.ssl_engine.use_engine == "qat_engine"
                and self.ssl_engine.offload_backend != "software")

    @property
    def uses_qat(self) -> bool:
        """The engine is backed by the on-board QAT card specifically
        (allocates instances, supports the interrupt notify mode)."""
        return (self.uses_offload
                and self.ssl_engine.offload_backend == "qat")

    @property
    def uses_remote(self) -> bool:
        return (self.uses_offload
                and self.ssl_engine.offload_backend == "remote")

    @property
    def async_offload(self) -> bool:
        return (self.uses_offload
                and self.ssl_engine.qat_offload_mode == "async")
