"""The benchmark's metric catalogue: every metric it reports, with its
unit and direction, and for each per-layer metric the end-to-end
metric and workload it should move.

``BENCHMARK.json`` at the repository root must agree with this module;
``run.py --self-test`` checks that it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["EndToEnd", "Layer", "END_TO_END", "PER_LAYER",
           "HOST_PACKAGES", "EVENT_CLASSES", "CRYPTO_PRIMITIVES",
           "STAGES"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    #: "host" (simulator speed: host wall time, in reference-CPU seconds,
    #: see ``measure.REFERENCE_S``) or "simulated" (the modelled QTLS
    #: service; deterministic for a given seed).
    kind: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...]


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("sim_s_per_host_s", "s/s", "higher", 0.2, "host"),
    EndToEnd("host_us_per_txn", "us", "lower", 0.2, "host"),
    EndToEnd("setup_s", "s", "lower", 0.25, "host"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1, "host"),
    EndToEnd("cps", "1/s", "higher", 0.2, "simulated"),
    EndToEnd("handshake_p50_ms", "ms", "lower", 0.2, "simulated"),
    EndToEnd("handshake_p99_ms", "ms", "lower", 0.15, "simulated"),
    EndToEnd("txn_per_s", "1/s", "higher", 0.1, "simulated"),
    EndToEnd("success_rate", "ratio", "higher", 0.01, "simulated"),
)

QTLS, SW, MIXED = "handshake-qtls", "handshake-sw", "mixed-batched"
ALL = (QTLS, SW, MIXED)

#: Packages whose profiler self time is reported; "stdlib" collects
#: everything outside ``repro`` (interpreter, stdlib, numpy) and
#: "other" any remaining ``repro`` package.
HOST_PACKAGES = ("sim", "cpu", "net", "crypto", "tls", "ssl", "offload",
                 "qat", "server", "clients", "obs", "core", "engine",
                 "other", "stdlib")
#: Kernel event classes counted per transaction ("other" catches any
#: class not listed).
EVENT_CLASSES = ("Event", "Timeout", "Process", "AnyOf", "AllOf", "other")
#: Crypto-provider entry points counted per transaction.
CRYPTO_PRIMITIVES = ("rsa_decrypt", "prf", "encrypt_record_cbc_hmac",
                     "decrypt_record_cbc_hmac")
#: ``repro.obs`` op-span stages ("total" is the whole op span).
STAGES = ("queue", "batch-wait", "ring", "engine-service", "poll-delay",
          "resume", "total")


def _layers():
    out = []

    def add(name, unit, better, *moves):
        out.append(Layer(name, unit, better, tuple(moves)))

    for pkg in HOST_PACKAGES:
        add(f"host.self_share.{pkg}", "ratio", "lower",
            *(("sim_s_per_host_s", w) for w in ALL))
    add("sim.events_per_txn", "count", "lower",
        ("host_us_per_txn", QTLS), ("host_us_per_txn", SW))
    for cls in EVENT_CLASSES:
        add(f"sim.events_per_txn.{cls}", "count", "lower",
            ("host_us_per_txn", QTLS), ("host_us_per_txn", SW))
    add("cpu.consume_calls_per_txn", "count", "lower",
        ("host_us_per_txn", SW), ("host_us_per_txn", QTLS))
    add("cpu.busy_share", "ratio", "lower", ("cps", SW))
    add("cpu.context_switches_per_txn", "count", "lower", ("cps", QTLS))
    add("cpu.kernel_crossings_per_txn", "count", "lower", ("cps", QTLS))
    add("net.epoll_waits_per_txn", "count", "lower",
        ("host_us_per_txn", QTLS))
    add("net.link_bytes_per_txn", "B", "lower", ("txn_per_s", MIXED))
    for prim in CRYPTO_PRIMITIVES:
        add(f"crypto.calls_per_txn.{prim}", "count", "lower",
            ("host_us_per_txn", MIXED))
    add("tls.record_protect_calls_per_txn", "count", "lower",
        ("host_us_per_txn", MIXED))
    add("ssl.async_pauses_per_handshake", "count", "lower", ("cps", QTLS))
    for name, unit, better in (
            ("offload.ops_per_txn", "count", "lower"),
            ("offload.polls_per_txn", "count", "lower"),
            ("offload.useful_poll_ratio", "ratio", "higher"),
            ("offload.submit_rejections_per_txn", "count", "lower"),
            ("offload.sw_fallback_share", "ratio", "lower"),
            ("offload.mean_batch_size", "count", "higher")):
        add(name, unit, better, ("cps", QTLS),
            ("handshake_p99_ms", MIXED), ("txn_per_s", MIXED))
    for name in ("server.heuristic.efficiency_polls_per_txn",
                 "server.heuristic.timeliness_polls_per_txn",
                 "server.reactor.wakes_per_txn"):
        add(name, "count", "lower", ("cps", QTLS), ("host_us_per_txn", QTLS))
    add("qat.fw_requests_per_txn", "count", "lower", ("cps", QTLS))
    add("qat.engine_busy_share", "ratio", "lower", ("cps", QTLS))
    for stage in STAGES:
        for q in ("p50", "p99"):
            add(f"stage.{stage}.{q}_us", "us", "lower",
                (f"handshake_{q}_ms", QTLS), ("handshake_p99_ms", MIXED))
    add("obs.trace_overhead_x", "x", "lower")
    # The ab fleet's view; only mixed-batched runs ab clients, so these
    # read 0 on the handshake workloads.
    add("clients.goodput_gbps", "Gbps", "higher", ("txn_per_s", MIXED))
    add("clients.request_p50_ms", "ms", "lower", ("txn_per_s", MIXED))
    add("clients.request_p99_ms", "ms", "lower", ("txn_per_s", MIXED))
    return tuple(out)


PER_LAYER: Tuple[Layer, ...] = _layers()
