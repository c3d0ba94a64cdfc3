"""The traced run: per-layer metrics measured from outside the program.

Three simulations of the same seed:

1. untraced: the reference record and host time;
2. with ``repro.obs`` request tracing on: op-stage histograms, QAT
   engine occupancy, and the tracing overhead;
3. with counting wrappers around each layer's public entry points and
   ``cProfile`` on: calls per transaction and host self time per
   package.

The wrappers only count and call through, so all three must produce the
same client record; ``trace_run`` reports any difference as a failure.
Counts cover the measurement window only and are divided by the
transactions completed in it.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple

import repro
from repro.cpu.core import Core
from repro.crypto.provider import ModeledCryptoProvider
from repro.net.link import Link
from repro.offload.engine import AsyncOffloadEngine
from repro.sim.kernel import Simulator
from repro.ssl.async_job import AsyncJob
from repro.testing.invariants import all_workers, iter_engines
from repro.tls.record import RecordLayer

from catalog import CRYPTO_PRIMITIVES, EVENT_CLASSES, HOST_PACKAGES, STAGES
from measure import run_replica, simulated_metrics, txns_in_window
from workloads import Workload

__all__ = ["trace_run"]

REPRO_DIR = Path(repro.__file__).resolve().parent
HARNESS_DIR = Path(__file__).resolve().parent


# -- counting wrappers ------------------------------------------------------

def _count_calls(counts: Counter, key: str, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_step(counts: Counter, step):
    def wrapper(sim):
        # The calendar's head is the event this step processes.
        heap = sim._heap
        if heap and not heap[0][3].cancelled:
            cls = type(heap[0][3]).__name__
            counts["event." + (cls if cls in EVENT_CLASSES else "other")] += 1
        return step(sim)
    return wrapper


def _count_bytes(counts: Counter, transfer):
    def wrapper(link, nbytes):
        counts["link_bytes"] += nbytes
        return transfer(link, nbytes)
    return wrapper


def _count_polls(counts: Counter, poll):
    def wrapper(*args, **kwargs):
        jobs = yield from poll(*args, **kwargs)
        counts["polls"] += 1
        if jobs:
            counts["useful_polls"] += 1
        return jobs
    return wrapper


@contextmanager
def counting_wrappers(counts: Counter):
    """Patch each layer's entry points with counters; restore on exit."""
    patches = [
        (Simulator, "step", _count_step(counts, Simulator.step)),
        (Core, "consume", _count_calls(counts, "consume", Core.consume)),
        (Link, "transfer", _count_bytes(counts, Link.transfer)),
        (RecordLayer, "protect",
         _count_calls(counts, "protect", RecordLayer.protect)),
        (AsyncJob, "mark_paused",
         _count_calls(counts, "pauses", AsyncJob.mark_paused)),
        (AsyncOffloadEngine, "poll_and_dispatch",
         _count_polls(counts, AsyncOffloadEngine.poll_and_dispatch)),
    ] + [
        (ModeledCryptoProvider, prim,
         _count_calls(counts, "crypto." + prim,
                      getattr(ModeledCryptoProvider, prim)))
        for prim in CRYPTO_PRIMITIVES
    ]
    saved = [(cls, name, cls.__dict__.get(name)) for cls, name, _ in patches]
    for cls, name, fn in patches:
        setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, orig in saved:
            if orig is None:
                delattr(cls, name)
            else:
                setattr(cls, name, orig)


# -- program counters --------------------------------------------------------

def program_counters(bed) -> Dict[str, float]:
    """Cumulative counters the program keeps, summed over workers."""
    workers = all_workers(bed.server)
    cores = {id(w.core): w.core for w in workers}.values()
    engines = [eng for _, eng in iter_engines(bed.server)]
    pollers = [w.poller for w in workers if w.poller is not None]
    out = {
        "cpu.busy": sum(c.stats.busy_time for c in cores),
        "cpu.cores": len(cores),
        "cpu.switches": sum(c.stats.context_switches for c in cores),
        "cpu.crossings": sum(c.stats.kernel_crossings for c in cores),
        "net.epoll_waits": sum(w.epoll.wait_calls for w in workers),
        "server.efficiency_polls": sum(p.efficiency_polls for p in pollers),
        "server.timeliness_polls": sum(p.timeliness_polls for p in pollers),
        "server.wakes": sum(s.wakes for w in workers
                            for s in w.reactor.sources),
        "qat.fw": (bed.device.fw_counter_totals()["total"]
                   if bed.device is not None else 0),
    }
    for attr in ("ops_offloaded", "ops_software", "ops_fallback",
                 "submit_rejections", "batches_submitted", "batch_ops"):
        out["offload." + attr] = sum(getattr(e, attr) for e in engines)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- host profile ------------------------------------------------------------

def _package(filename: str) -> str:
    """Map a profiled code object's file to a HOST_PACKAGES name, or
    "harness" for this benchmark's own frames (left out of the shares)."""
    if filename.startswith("~") or filename.startswith("<"):
        return "stdlib"
    path = Path(filename).resolve()
    if HARNESS_DIR in path.parents:
        return "harness"
    if REPRO_DIR in path.parents:
        rel = path.relative_to(REPRO_DIR).parts
        pkg = rel[0] if len(rel) > 1 else "other"
        return pkg if pkg in HOST_PACKAGES else "other"
    return "stdlib"


def self_time_shares(profile: cProfile.Profile) -> Dict[str, float]:
    totals: Counter = Counter()
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        totals[_package(filename)] += row[2]  # tottime
    totals.pop("harness", None)
    whole = sum(totals.values())
    return {pkg: _ratio(totals[pkg], whole) for pkg in HOST_PACKAGES}


# -- obs readings -----------------------------------------------------------

def stage_percentiles(tracer) -> Dict[str, float]:
    """p50/p99 of each op stage (µs), from the histograms of the backend
    that traced the most ops."""
    totals = {b: h.count for (b, s), h in tracer.histograms.items()
              if s == "total"}
    out = {}
    backend = max(sorted(totals), key=totals.get) if totals else None
    for stage in STAGES:
        hist = tracer.histograms.get((backend, stage))
        for q in (50, 99):
            out[f"stage.{stage}.p{q}_us"] = (
                hist.percentile(q) * 1e6 if hist is not None else 0.0)
    return out


def engine_busy_share(bed, start: float, end: float) -> float:
    """Mean share of all QAT engines executing a request in the window,
    from the ``repro.obs`` engine-occupancy timelines."""
    if bed.device is None:
        return 0.0
    busy = capacity = 0.0
    for ep in bed.device.endpoints:
        timeline = bed.tracer.timelines.get(f"qat{ep.endpoint_id}.engines")
        if timeline is not None:
            busy += timeline.mean(start, end)
        capacity += ep.n_engines
    return _ratio(busy, capacity)


# -- the traced run ----------------------------------------------------------

def trace_run(workload: Workload, seed: int
              ) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """Per-layer metrics for ``seed``; also returns the untraced
    simulation's ``simulated_metrics`` and any problem found (gate
    violations, records that differ)."""
    start, end = workload.warmup, workload.end
    plain = run_replica(workload, seed)

    obs_readings: Dict[str, float] = {}

    def read_obs(bed):
        obs_readings.update(stage_percentiles(bed.tracer))
        obs_readings["qat.engine_busy_share"] = engine_busy_share(
            bed, start, end)

    traced = run_replica(
        workload, seed, trace=True,
        at_warmup=lambda bed: bed.tracer.histograms.clear(),
        after_run=read_obs)

    counts: Counter = Counter()
    profile = cProfile.Profile()
    snaps: Dict[str, Dict[str, float]] = {}

    def begin(bed):
        snaps["start"] = program_counters(bed)
        counts.clear()
        profile.enable()

    def finish(bed):
        profile.disable()
        snaps["end"] = program_counters(bed)

    with counting_wrappers(counts):
        profiled = run_replica(workload, seed, at_warmup=begin,
                               after_run=finish, calibrate=False)

    problems = plain.problems + traced.problems + profiled.problems
    for label, rep in (("obs-traced", traced), ("profiled", profiled)):
        if rep.record != plain.record:
            problems.append(f"{label} simulation differs from the untraced "
                            f"one at seed {seed}")

    txns = max(txns_in_window(plain.record, start, end), 1)
    sim = simulated_metrics([plain.record], start, end)
    handshakes = max(sim["handshake_n"], 1)
    pc = {k: snaps["end"][k] - snaps["start"][k] for k in snaps["end"]}
    pc["cpu.cores"] = snaps["end"]["cpu.cores"]
    offloaded = pc["offload.ops_offloaded"]

    m: Dict[str, float] = {}
    for pkg, share in self_time_shares(profile).items():
        m[f"host.self_share.{pkg}"] = share
    events = sum(counts["event." + c] for c in EVENT_CLASSES)
    m["sim.events_per_txn"] = events / txns
    for cls in EVENT_CLASSES:
        m[f"sim.events_per_txn.{cls}"] = counts["event." + cls] / txns
    m["cpu.consume_calls_per_txn"] = counts["consume"] / txns
    m["cpu.busy_share"] = pc["cpu.busy"] / (pc["cpu.cores"] * (end - start))
    m["cpu.context_switches_per_txn"] = pc["cpu.switches"] / txns
    m["cpu.kernel_crossings_per_txn"] = pc["cpu.crossings"] / txns
    m["net.epoll_waits_per_txn"] = pc["net.epoll_waits"] / txns
    m["net.link_bytes_per_txn"] = counts["link_bytes"] / txns
    for prim in CRYPTO_PRIMITIVES:
        m[f"crypto.calls_per_txn.{prim}"] = counts["crypto." + prim] / txns
    m["tls.record_protect_calls_per_txn"] = counts["protect"] / txns
    m["ssl.async_pauses_per_handshake"] = counts["pauses"] / handshakes
    m["offload.ops_per_txn"] = offloaded / txns
    m["offload.polls_per_txn"] = counts["polls"] / txns
    m["offload.useful_poll_ratio"] = _ratio(counts["useful_polls"],
                                            counts["polls"])
    m["offload.submit_rejections_per_txn"] = (
        pc["offload.submit_rejections"] / txns)
    m["offload.sw_fallback_share"] = _ratio(
        pc["offload.ops_fallback"], offloaded + pc["offload.ops_software"])
    m["offload.mean_batch_size"] = _ratio(pc["offload.batch_ops"],
                                          pc["offload.batches_submitted"])
    m["server.heuristic.efficiency_polls_per_txn"] = (
        pc["server.efficiency_polls"] / txns)
    m["server.heuristic.timeliness_polls_per_txn"] = (
        pc["server.timeliness_polls"] / txns)
    m["server.reactor.wakes_per_txn"] = pc["server.wakes"] / txns
    m["qat.fw_requests_per_txn"] = pc["qat.fw"] / txns
    m.update(obs_readings)
    m["obs.trace_overhead_x"] = (sum(traced.slice_ref_s)
                                 / sum(plain.slice_ref_s))
    m["clients.goodput_gbps"] = sim["goodput_gbps"]
    m["clients.request_p50_ms"] = sim["request_p50_ms"]
    m["clients.request_p99_ms"] = sim["request_p99_ms"]
    return m, sim, problems
