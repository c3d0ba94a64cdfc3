"""Running one replica of a workload, the correctness gate, and the
end-to-end metrics read from the client records.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.testing.invariants import check_all, iter_engines

from workloads import Workload

__all__ = ["SLICES", "REFERENCE_S", "Replica", "reference_loop", "timed",
           "run_replica", "gate", "simulated_metrics", "txns_in_window",
           "host_metrics", "percentile"]

#: Equal parts of the measurement window timed separately, so that the
#: median host speed over them shrugs off bursts of host contention.
SLICES = 20
#: Host seconds ``reference_loop`` takes on the reference CPU (an Intel
#: Xeon at 2.1 GHz under CPython 3.11). Host times are reported in
#: reference-CPU seconds: each timed piece of work is scaled by this
#: over the mean of the reference loops run just before and after it.
REFERENCE_S = 0.01


class _Job:
    __slots__ = ("delay", "callbacks")

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.callbacks = []


def reference_loop(steps: int = 7500, procs: int = 3000) -> float:
    """Time a fixed toy event loop written against the standard library
    only, so no change to the program moves it. Like the simulator it
    pops generator processes off a heap, allocates small objects and
    updates a 50k-entry table, so a slower host (shared cores, cache
    and memory contention) slows it much as it slows the simulator.
    Returns host seconds."""
    table: Dict[int, int] = {}

    def proc(pid):
        k = 0
        while True:
            k += 1
            key = (pid * 7919 + k) % 50021
            table[key] = table.get(key, 0) + 1
            job = _Job(((pid * 31 + k * 17) % 97 + 1) * 1e-6)
            job.callbacks.append(pid)
            yield job

    heap = [(0.0, pid, proc(pid)) for pid in range(procs)]
    seq = procs
    t0 = time.perf_counter()
    for _ in range(steps):
        now, _, gen = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(gen).delay, seq, gen))
        seq += 1
    return time.perf_counter() - t0


def timed(pieces: List[Callable[[], object]], calibrate: bool = True
          ) -> Tuple[List[float], List[float]]:
    """Run each piece between reference loops. Returns the host seconds
    of each piece, raw and in reference-CPU seconds (raw again when not
    ``calibrate``: no reference loops run)."""
    raw, scaled = [], []
    before = reference_loop() if calibrate else REFERENCE_S
    for piece in pieces:
        t0 = time.perf_counter()
        piece()
        took = time.perf_counter() - t0
        after = reference_loop() if calibrate else REFERENCE_S
        raw.append(took)
        scaled.append(took * 2 * REFERENCE_S / (before + after))
        before = after
    return raw, scaled


#: The client records of one simulation: handshakes, HTTP requests,
#: payload transfers and the error count. Two simulations are identical
#: exactly when these are equal.
Record = Tuple[list, list, list, int]


@dataclass
class Replica:
    seed: int
    record: Record
    #: Host seconds simulating each of ``SLICES`` equal parts of the
    #: measurement window, raw and in reference-CPU seconds.
    slice_host_s: List[float]
    slice_ref_s: List[float]
    problems: List[str]


def run_replica(workload: Workload, seed: int, trace: bool = False,
                at_warmup: Optional[Callable] = None,
                after_run: Optional[Callable] = None,
                calibrate: bool = True) -> Replica:
    """Build, warm up and measure one testbed, then gate it.

    ``at_warmup(bed)`` runs when the warm-up ends, just before the timed
    window; ``after_run(bed)`` runs right after the window. Without
    ``calibrate`` no reference loops run inside the window.
    """
    gc.collect()
    bed = workload.build(seed, trace=trace)
    bed.sim.run(until=workload.warmup)
    if at_warmup is not None:
        at_warmup(bed)
    raw, scaled = timed([
        lambda k=k: bed.sim.run(
            until=workload.warmup + workload.measure * k / SLICES)
        for k in range(1, SLICES + 1)], calibrate)
    if after_run is not None:
        after_run(bed)
    m = bed.metrics
    record = (m.handshakes, m.requests, m.transfers, m.errors)
    return Replica(seed, record, raw, scaled, gate(bed))


def gate(bed) -> List[str]:
    """Correctness checks on a finished testbed; empty when all hold.

    - every cross-layer invariant in ``repro.testing.invariants`` holds;
    - every op an engine offloaded reached the accelerator: the firmware
      counted it as serviced, or it still waits on a ring, or an engine
      is executing it. Without an accelerator nothing was offloaded.
    """
    problems = [f"invariant {v}" for v in check_all(bed)]
    offloaded = sum(eng.ops_offloaded for _, eng in iter_engines(bed.server))
    device = bed.device
    if device is None:
        if offloaded:
            problems.append(f"{offloaded} ops offloaded without a device")
        return problems
    serviced = device.fw_counter_totals()["total"]
    queued = sum(ring.pending_requests for ep in device.endpoints
                 for inst in ep.instances for ring in inst.rings.values())
    executing = sum(ep.busy_engines for ep in device.endpoints)
    if serviced + queued + executing != offloaded:
        problems.append(
            f"firmware serviced {serviced} + queued {queued} + executing "
            f"{executing} != {offloaded} ops offloaded by the engines")
    return problems


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _in_window(events, start: float, end: float) -> list:
    return [e for e in events if start <= e[0] < end]


def simulated_metrics(records: List[Record], warmup: float,
                      end: float) -> Dict[str, float]:
    """Simulated service metrics pooled over the windows of ``records``.

    Besides the end-to-end metrics, the result holds the sample counts
    (``*_n``), the ab fleet's view (``goodput_gbps`` and
    ``request_p50_ms``/``request_p99_ms``), and ``attempted``/``failed``:
    client transactions over the whole run, a failure being a client
    error (refused connection, alert).
    """
    window = (end - warmup) * len(records)
    hs, rq, payload, done, errors = [], [], 0, 0, 0
    for handshakes, requests, transfers, n_err in records:
        hs += [d for _, d, _ in _in_window(handshakes, warmup, end)]
        rq += [d for _, d in _in_window(requests, warmup, end)]
        payload += sum(b for _, b in _in_window(transfers, warmup, end))
        done += len(handshakes) + len(requests)
        errors += n_err
    hs.sort()
    rq.sort()
    attempted = done + errors
    return {
        "cps": len(hs) / window,
        "handshake_p50_ms": percentile(hs, 0.50) * 1e3,
        "handshake_p99_ms": percentile(hs, 0.99) * 1e3,
        "handshake_n": len(hs),
        "txn_per_s": (len(hs) + len(rq)) / window,
        "success_rate": 1.0 - errors / attempted if attempted else 0.0,
        "goodput_gbps": payload * 8 / window / 1e9,
        "request_p50_ms": percentile(rq, 0.50) * 1e3,
        "request_p99_ms": percentile(rq, 0.99) * 1e3,
        "request_n": len(rq),
        "attempted": attempted,
        "failed": errors,
    }


def txns_in_window(record: Record, warmup: float, end: float) -> int:
    handshakes, requests, _, _ = record
    return (len(_in_window(handshakes, warmup, end))
            + len(_in_window(requests, warmup, end)))


def host_metrics(workload: Workload, replicas: List[Replica],
                 setups: List[float]) -> Dict[str, float]:
    """Simulator-speed metrics in reference-CPU seconds. A replica's
    window costs ``SLICES`` times its median slice; the metrics divide
    the replicas' total simulated time and total transactions by their
    total window cost. ``setup_s`` is the median of ``setups``."""
    host = sim = txns = 0.0
    for rep in replicas:
        host += SLICES * statistics.median(rep.slice_ref_s)
        sim += workload.measure
        txns += txns_in_window(rep.record, workload.warmup, workload.end)
    return {
        "sim_s_per_host_s": sim / host,
        "host_us_per_txn": host * 1e6 / max(txns, 1),
        "setup_s": statistics.median(setups),
    }
