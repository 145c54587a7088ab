#!/usr/bin/env python3
"""gpudiff benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

Run from the root of a gpudiff source tree.  The first run builds the
library and the harness (Release) under .bench_build/.  Every workload, and
the traced run of every workload, runs in its own harness process; the
harness never sets GPUDIFF_SIMD or GPUDIFF_EXEC and this script removes
them from the environment it passes on, so every number is taken on
shipped defaults.

--trace 0 measures the end-to-end metrics in one untraced process.
--trace 1 runs untraced, traced, traced, untraced processes over the same
seeded rounds (the order cancels a steady drift in machine speed, and each
round's cost is the least of its two runs in each mode, which drops the
slowdowns a shared machine adds now and then) and prints the per-layer
metrics, including trace.coverage (named layers' self time over the
untraced cost of the same rounds), trace.remainder (traced time inside a
program's root span that no named layer covers, over the same) and
trace.overhead (traced over untraced process cost, minus 1).

Each process is started on the last min(nproc, 4) CPUs.  A one-thread
process pins itself to one of them at a time (the measurement rule of
ROADMAP.md asks for a pinned core), moving to the next for each pass over
its work list, so cross-CPU wake-ups and migrations do not add to the
spread and a CPU slowed by its neighbours cannot decide the figures.

Human-readable lines ("name value unit") come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  attempted/failed count the correctness checks, so
failed/attempted is the error_rate.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "gpudiff-perfbench"

NPROC = os.cpu_count() or 1
MT_THREADS = min(NPROC, 4)

# Workload -> CampaignConfig::threads of its campaign processes.
WORKLOADS = {
    "paper": 1,
    "paper-mt": MT_THREADS,
    "compile-heavy": 1,
    "triage": 1,
    "serve": 1,
}
# The lease-fleet campaign (coordinator + TCP workers + merge) is not a
# gated workload: on a shared machine its run-to-run spread, driven by
# fsync latency and by contention across its four busy threads, exceeded
# every bound the gate allows.  Its traced process still runs as part of
# paper-mt's --trace 1 and supplies the campaign.* layer metrics.

END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics with their units.  A layer a workload does not
# exercise reads 0 on that workload.
PER_LAYER = [
    ("gen.generate_us", "us"),
    ("gen.inputs_us", "us"),
    ("gen.ir_nodes", "count"),
    ("emit.emit_cuda_us", "us"),
    ("hipify.hipify_us", "us"),
    ("hipify.replacements", "count"),
    ("opt.compile_us", "us"),
    ("opt.ir_nodes_after", "count"),
    ("vgpu.lower_us", "us"),
    ("vgpu.exec_us", "us"),
    ("vgpu.ops_per_run", "count"),
    ("vgpu.ns_per_op", "ns"),
    ("vmath.call_ns.nv", "ns"),
    ("vmath.call_ns.amd", "ns"),
    ("vmath.call_ns.compat", "ns"),
    ("vmath.call_ns.fast", "ns"),
    ("diff.compare_us", "us"),
    ("diff.classify_us", "us"),
    ("diff.record_us", "us"),
    ("diff.discrepancy_rate", "ratio"),
    ("campaign.claim_ms", "ms"),
    ("campaign.publish_ms", "ms"),
    ("campaign.release_ms", "ms"),
    ("campaign.heartbeat_ms", "ms"),
    ("campaign.transport_share", "ratio"),
    ("campaign.leases", "count"),
    ("campaign.steals", "count"),
    ("campaign.transport_errors", "count"),
    ("campaign.merge_s", "s"),
    ("campaign.report_json_ms", "ms"),
    ("net.connect_ms", "ms"),
    ("net.request_us", "us"),
    ("store.ingest_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.query_us", "us"),
    ("reduce.checks_per_record", "count"),
    ("reduce.check_us", "us"),
    ("reduce.shrink_ratio", "ratio"),
    ("reduce.sensitivity_ms", "ms"),
    ("support.parallel_eff", "ratio"),
    ("support.serial_fraction", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.remainder", "ratio"),
    ("trace.overhead", "ratio"),
]

# Each workload's own names for its end-to-end figures, printed next to
# the generic ones.
WORKLOAD_NAMES = {
    "paper": {"throughput_per_s": "programs_per_s"},
    "paper-mt": {"throughput_per_s": "programs_per_s_mt"},
    "compile-heavy": {"throughput_per_s": "programs_per_s"},
    "triage": {"latency_ms_p50": "reduce_ms_p50", "latency_ms_p90": "reduce_ms_p90"},
    "serve": {"latency_ms_p50": "query_ms_p50", "latency_ms_p99": "query_ms_p99"},
}

# A run must end within 180 s (the first one also builds, up to 900 s).
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no gpudiff source tree at {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD.parent / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", str(NPROC)])
    with open(build_log, "w") as out:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=840)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                raise BenchError(f"build failed; see {build_log}")
    if not BINARY.is_file():
        raise BenchError(f"build produced no {BINARY}")


def pinned_cpus(count):
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[-count:])


def run_process(workload, mode, threads, cpus, seed, seconds, work_dir,
                corrupt, deadline):
    env = {k: v for k, v in os.environ.items()
           if k not in ("GPUDIFF_SIMD", "GPUDIFF_EXEC")}
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode,
           "--threads", str(threads), "--work-dir", str(work_dir)]
    if corrupt:
        cmd.append("--corrupt-reference")
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} timed out")
    if done.returncode != 0:
        raise BenchError(f"{workload} {mode} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} printed nothing")
    return json.loads(lines[-1])


def value(proc, name):
    m = proc["metrics"].get(name)
    return None if m is None else m["value"]


def paired_rounds(untraced, traced):
    """(untraced cost, traced round) for every round all processes
    completed: the least untraced cost of the round, and the traced round
    [ops, cost_s, budget_s, remainder_s, reference_s] of least cost."""
    runs = [p["rounds"] for p in untraced + traced]
    n = min(len(r) for r in runs)
    if n == 0:
        raise BenchError("no completed rounds to compare")
    pairs = []
    for i in range(n):
        if len({r[i][0] for r in runs}) != 1:
            raise BenchError(f"round {i} differs between untraced and traced runs")
        pairs.append((min(p["rounds"][i][1] for p in untraced),
                      min((p["rounds"][i] for p in traced), key=lambda r: r[1])))
    return pairs


def trace_metrics(pairs, threads):
    """trace.overhead compares the traced and untraced processes.  Coverage
    and remainder divide by the untraced cost of the same rounds; where the
    traced process timed that cost itself, right beside each traced round
    (the campaign workloads), they use it, so the speed swings of a shared
    machine between processes do not enter them."""
    untraced_s = sum(u for u, _ in pairs)
    reference_s = sum(t[4] for _, t in pairs) or untraced_s
    return {
        "trace.coverage": sum(t[2] for _, t in pairs) / (threads * reference_s),
        "trace.remainder": sum(t[3] for _, t in pairs) / (threads * reference_s),
        "trace.overhead": sum(t[1] for _, t in pairs) / untraced_s - 1.0,
    }


def support_metrics(mt_runs, single, threads):
    mt = sum(value(p, "throughput_per_s") for p in mt_runs) / len(mt_runs)
    speedup = mt / value(single, "throughput_per_s")
    eff = speedup / threads
    # Karp-Flatt: the serial fraction that would cap the speed-up here.
    serial = (1.0 / speedup - 1.0 / threads) / (1.0 - 1.0 / threads) if threads > 1 else 0.0
    return {"support.parallel_eff": eff, "support.serial_fraction": serial}


def inputs_digest(procs, workload):
    digests = {p["inputs_digest"] for p in procs if p["workload"] == workload}
    if len(digests) != 1:
        raise BenchError("processes of one run saw different inputs")
    return digests.pop()


def print_line(name, val, unit):
    print(f"{name:32s} {val:.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="flip one reference answer (tests the checks)")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    threads = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    w = args.workload
    # (workload, mode, CampaignConfig::threads)
    if args.trace == 0:
        plan = [(w, "untraced", threads)]
    else:
        plan = [(w, "untraced", threads), (w, "traced", threads),
                (w, "traced", threads), (w, "untraced", threads)]
        if w == "paper-mt":
            plan += [(w, "untraced", 1), ("fleet", "traced", 1)]
    procs = []
    try:
        for workload, mode, n in plan:
            procs.append(run_process(workload, mode, n, pinned_cpus(MT_THREADS),
                                     args.seed, args.seconds / len(plan),
                                     work_dir, args.corrupt_reference, deadline))
        # Keep the traced run's spans; the rest of the work dir goes.
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for f in work_dir.glob("spans-*.txt"):
            shutil.move(str(f), str(spans_dir / f.name))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    derived = {}
    if args.trace == 1:
        mine = [p for p in procs if p["workload"] == w]
        untraced = [p for p in mine if p["mode"] == "untraced" and p["threads"] == threads]
        pairs = paired_rounds(untraced, [p for p in mine if p["mode"] == "traced"])
        derived = trace_metrics(pairs, threads)
        if w == "paper-mt":
            single = next(p for p in mine if p["threads"] == 1)
            derived.update(support_metrics(untraced, single, threads))
    ctx = procs[0]["context"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"context  cpu={ctx['cpu']!r} nproc={ctx['nproc']} "
          f"simd_engine={ctx['simd_engine']} compiler={ctx['compiler']!r} "
          f"build_type={ctx['build_type']} threads={threads} "
          f"cpus={sorted(pinned_cpus(MT_THREADS))}")
    print(f"inputs_digest {inputs_digest(procs, w)}")
    for p in procs:
        if value(p, "replica_drift") is not None:
            print(f"replica_drift {value(p, 'replica_drift'):.4f} ({p['workload']} traced)")
    for p in procs:
        for f in p["failures"]:
            print(f"FAILED check ({p['workload']} {p['mode']}): {f}")

    main_proc = procs[0]
    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END:
            metrics[name] = {"value": value(main_proc, name), "unit": unit}
            print_line(name, value(main_proc, name), unit)
        for generic, own in WORKLOAD_NAMES[args.workload].items():
            print_line(own, value(main_proc, generic),
                       main_proc["metrics"][generic]["unit"])
        samples = value(main_proc, "latency_samples")
        print_line("latency_samples", samples, "count")
    else:
        traced = [p for p in procs if p["mode"] == "traced"]
        for name, unit in PER_LAYER:
            v = derived.get(name)
            for p in traced:
                if v is None:
                    v = value(p, name)
            metrics[name] = {"value": 0.0 if v is None else v, "unit": unit}
            print_line(name, metrics[name]["value"], unit)
    print_line("error_rate", failed / attempted if attempted else 1.0, "ratio")
    print_line("checks_attempted", attempted, "count")

    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(2)
