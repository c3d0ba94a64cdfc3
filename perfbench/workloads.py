"""The benchmark's workloads: one simulated testbed each.

All three run TLS 1.2 TLS-RSA (2048-bit) under the default
``ModeledCryptoProvider``. Clients are closed loops, as in the paper's
``s_time`` and ``ab``: each client starts its next transaction only
when the previous one completes. Client counts are inputs to the model,
not host threads or sockets; the whole simulation runs in one host
process on one thread.

A run of a workload simulates ``replicas`` independent testbeds, seeded
``1000 * seed + i``, and pools their measurement windows. The model
locks into seed-dependent phases (closed-loop clients complete in
near-synchronised rounds), so pooling seeds steadies the simulated
metrics more than lengthening one window does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.bench.runner import Testbed

__all__ = ["Workload", "WORKLOADS", "sub_seed"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str
    workers: int
    s_time_clients: int
    ab_clients: int = 0
    ab_file_size: int = 0
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: Simulated seconds before / inside the measurement window.
    warmup: float = 0.08
    measure: float = 0.3
    replicas: int = 1

    @property
    def end(self) -> float:
        return self.warmup + self.measure

    def build(self, seed: int, trace: bool = False) -> Testbed:
        """Construct the testbed and start every client fleet."""
        bed = Testbed(self.config, workers=self.workers,
                      suites=("TLS-RSA",), tls_version="1.2", seed=seed,
                      trace=trace, **dict(self.overrides))
        if self.ab_clients:
            bed.add_ab_fleet(self.ab_clients, self.ab_file_size,
                             keepalive=True)
        bed.add_s_time_fleet(n_clients=self.s_time_clients)
        return bed


def sub_seed(seed: int, replica: int) -> int:
    return 1000 * seed + replica


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "handshake-qtls",
        "Fig. 7a headline path: QTLS full handshakes keep every offload "
        "layer busy (ssl pause/resume, offload, qat, heuristic poll, "
        "kernel-bypass notify)",
        config="QTLS", workers=2, s_time_clients=200,
        warmup=0.08, measure=0.3, replicas=2),
    Workload(
        "handshake-sw",
        "Software handshakes on 8 workers: CPU-bound, offload/qat/async "
        "idle, so it is the bypass case for any offload or polling change",
        config="SW", workers=8, s_time_clients=128,
        warmup=0.08, measure=0.3, replicas=1),
    Workload(
        "mixed-batched",
        "128 KB keepalive ab plus s_time on one QTLS worker with admission "
        "limit, strict-priority lanes and batching: the record-cipher path",
        config="QTLS", workers=1, s_time_clients=32,
        ab_clients=48, ab_file_size=128 * 1024,
        overrides=(("offload_admission_limit", 8),
                   ("offload_sched_policy", "strict-priority"),
                   ("qat_batch_size", 8)),
        warmup=0.05, measure=0.1, replicas=10),
)}
