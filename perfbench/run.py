"""The repository benchmark: simulator speed and simulated QTLS service
metrics on three workloads, plus a traced run with per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload handshake-qtls --seed 1 \\
        --seconds 20 --trace 0      # end-to-end metrics
    python3 perfbench/run.py --workload handshake-qtls --seed 1 \\
        --seconds 20 --trace 1      # per-layer metrics
    python3 perfbench/run.py --spread --seeds 7,8,9,10   # seed spread
    python3 perfbench/run.py --self-test

Each run prints its metrics by name with unit (and sample counts for
latencies), then, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run whose correctness gate fails prints ``"correct": false`` with no
metrics and exits 1. ``workloads.py`` defines the workloads,
``catalog.py`` the metrics, and ``BENCHMARK.json`` must agree with both.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Testbeds built (and dropped) per run to time set-up, besides the
#: replicas' own.
SETUP_REPEATS = 30
#: Handshakes the pooled window must hold so that at least ten lie
#: beyond the p99.
MIN_HANDSHAKES = 1000


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def fail(problems, attempted: int, failed: int) -> int:
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    emit(False, attempted, failed, {}, {})
    return 1


def untraced(workload, seed: int, seconds: float, tiny: bool = False):
    """End-to-end metrics of one run: ``workload.replicas`` seeds pooled,
    then replays of them (at least one) until ``seconds`` have passed.
    Returns ``(metrics, simulated_metrics(...) result, problems)``."""
    from measure import (SLICES, host_metrics, run_replica,
                         simulated_metrics, timed)
    from workloads import sub_seed

    started = time.perf_counter()
    _, setups = timed([lambda i=i: workload.build(sub_seed(seed, i))
                       for i in range(SETUP_REPEATS)])
    first = [run_replica(workload, sub_seed(seed, i))
             for i in range(workload.replicas)]
    replays = []
    while not replays or time.perf_counter() - started < seconds:
        i = len(replays) % workload.replicas
        replays.append(run_replica(workload, sub_seed(seed, i)))
    problems = [p for r in first + replays for p in r.problems]
    for n, rep in enumerate(replays):
        if rep.record != first[n % workload.replicas].record:
            problems.append(f"replay of seed {rep.seed} differs from its "
                            "first run")
    reps = first + replays
    sim = simulated_metrics([r.record for r in first], workload.warmup,
                            workload.end)
    if not tiny and sim["handshake_n"] < MIN_HANDSHAKES:
        problems.append(f"only {sim['handshake_n']} handshakes in the "
                        f"window; p99 needs {MIN_HANDSHAKES}")
    metrics = host_metrics(workload, reps, setups)
    raw_slice = statistics.median(t for r in reps for t in r.slice_host_s)
    print(f"  (host) {len(reps)} replicas; raw wall speed "
          f"{workload.measure / SLICES / raw_slice:.6g} s/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    for name in ("cps", "handshake_p50_ms", "handshake_p99_ms", "txn_per_s",
                 "success_rate"):
        metrics[name] = sim[name]
    return metrics, sim, problems


def bench(workload, seed: int, seconds: float, trace: bool,
          tiny: bool = False) -> int:
    """One benchmark run; ``tiny`` skips the window sample-count check."""
    from catalog import END_TO_END, PER_LAYER
    from workloads import sub_seed

    print(f"workload {workload.name}: {workload.replicas} replica(s), "
          f"window {workload.warmup:g}+{workload.measure:g} simulated s, "
          f"seed {seed}")
    if trace:
        from layers import trace_run
        metrics, sim, problems = trace_run(workload, sub_seed(seed, 0))
        catalog = PER_LAYER
    else:
        metrics, sim, problems = untraced(workload, seed, seconds, tiny)
        catalog = END_TO_END
        for name, unit in (("goodput_gbps", "Gbps"), ("request_p50_ms", "ms"),
                           ("request_p99_ms", "ms")):
            print(f"  (ab) {name:<22} {sim[name]:14.6g} {unit:<6}"
                  f" n={sim['request_n']}")
    if problems:
        return fail(problems, max(sim["attempted"], 1), sim["failed"])
    units = {m.name: m.unit for m in catalog}
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        n = (f" n={sim['handshake_n']}"
             if name in ("handshake_p50_ms", "handshake_p99_ms") else "")
        print(f"  {name:<46} {value:14.6g} {units[name]:<6}{n}")
    emit(True, sim["attempted"], sim["failed"], metrics, units)
    return 0


def spread(args) -> int:
    """Simulated metrics of each workload on several seeds."""
    from measure import run_replica, simulated_metrics
    from workloads import WORKLOADS, sub_seed

    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = [int(s) for s in args.seeds.split(",")]
    keys = ("cps", "handshake_p50_ms", "handshake_p99_ms", "txn_per_s",
            "goodput_gbps", "request_p99_ms")
    bad = False
    for name in names:
        workload = WORKLOADS[name]
        rows = []
        for seed in seeds:
            reps = [run_replica(workload, sub_seed(seed, i))
                    for i in range(workload.replicas)]
            for r in reps:
                for p in r.problems:
                    print(f"FAILED: {name} seed {r.seed}: {p}",
                          file=sys.stderr)
                    bad = True
            sim = simulated_metrics([r.record for r in reps],
                                    workload.warmup, workload.end)
            rows.append(sim)
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k} {sim[k]:.4g}" for k in keys), flush=True)
        for k in keys:
            vals = [r[k] for r in rows]
            med = statistics.median(vals)
            if not med:
                continue
            line = (f"{name} {k}: min {min(vals):.4g} median {med:.4g} "
                    f"max {max(vals):.4g} range/median "
                    f"{(max(vals) - min(vals)) / med:.3f}")
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                line += f" IQR/median {(q[2] - q[0]) / med:.3f}"
            print(line)
    return 1 if bad else 0


def self_test() -> int:
    """Every workload on a tiny window, untraced and traced: every
    metric is printed with its unit, the names match ``catalog.py``, and
    ``BENCHMARK.json`` agrees with the catalogue and the workloads."""
    import io
    from contextlib import redirect_stdout

    from catalog import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for w in spec["workloads"]:
        if w["name"] in WORKLOADS and w["why"] != WORKLOADS[w["name"]].why:
            problems.append(f"why of {w['name']} differs from workloads.py")
    want_e2e = [{"name": m.name, "unit": m.unit, "better": m.better,
                 "bound": m.bound} for m in END_TO_END]
    want_layer = [{"name": m.name, "unit": m.unit, "better": m.better}
                  for m in PER_LAYER]
    if spec["end_to_end"] != want_e2e:
        problems.append("BENCHMARK.json end_to_end differs from catalog.py")
    if spec["per_layer"] != want_layer:
        problems.append("BENCHMARK.json per_layer differs from catalog.py")
    for m in PER_LAYER:
        for e2e, wl in m.moves:
            if wl not in WORKLOADS or e2e not in {e.name for e in END_TO_END}:
                problems.append(f"{m.name} moves unknown {e2e} on {wl}")

    for name, full in WORKLOADS.items():
        tiny = dataclasses.replace(full, warmup=0.01, measure=0.02,
                                   replicas=1)
        for trace, catalog in ((0, END_TO_END), (1, PER_LAYER)):
            out = io.StringIO()
            with redirect_stdout(out):
                code = bench(tiny, seed=1, seconds=0, trace=bool(trace),
                             tiny=True)
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            got = result["metrics"]
            found = []
            if code != 0 or not result["correct"]:
                found.append(f"{name} trace={trace}: run failed")
            elif list(got) != [m.name for m in catalog]:
                found.append(f"{name} trace={trace}: metric names differ "
                             "from catalog.py")
            for m in catalog:
                printed = any(line.split()[:1] == [m.name]
                              and m.unit in line.split() for line in lines)
                if not printed or got.get(m.name, {}).get("unit") != m.unit:
                    found.append(f"{name} trace={trace}: {m.name} not "
                                 f"printed with unit {m.unit}")
            print(f"self-test {name} trace={trace}: "
                  + (f"{len(got)} metrics ok" if not found else "FAILED"))
            problems += found
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    print("self-test ok" if not problems else "self-test FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", action="store_true",
                        help="simulated metrics over --seeds, per workload")
    parser.add_argument("--seeds", default="7,8,9,10")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.spread:
        return spread(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return bench(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
