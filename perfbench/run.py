#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
runner (perfbench/runner, linked against the library sources in src/)
under $CARGO_TARGET_DIR (default .bench_build); later runs reuse it.

--trace 0 measures the end-to-end metrics. --trace 1 is a separate run
that measures an untraced and a traced phase of S/2 seconds each and
prints the per-layer metrics: counters and program histograms come from
the untraced phase, span times from the traced one, and
trace.overhead.<metric> is the traced minus the untraced value of each
end-to-end metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A summary goes to standard
error. The command exits non-zero when any answer is wrong, when the
build fails, or when the runner fails. perfbench/WORKLOADS.md describes
the workloads and defines every metric.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("read-mapping", "occurrence-search", "serve-skewed", "ingest")

# serve-skewed: the offered rates of the ladder (runner/workloads.h),
# the p99 limit a rung must meet to count for max_qps_under_slo, and the
# reference rung whose latency is reported as p50_ms and p99_ms.
SERVE_RATES = (5000, 20000, 40000, 55000, 62000, 69000, 76000, 84000, 92000)
SERVE_P99_LIMIT_MS = 50.0
SERVE_REFERENCE_RUNG = 0
# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
# p99 is the median over this many equal windows of the measured time of
# each window's p99, so one burst of noise from the shared host moves at
# most one window (the runner's kLatencyWindows). serve-skewed has the
# samples for more, shorter windows (1,000 responses, 0.2 s, at its
# reference rung): a preempted vCPU stalls its open loop for
# milliseconds, and shorter windows confine each stall.
WINDOWS = 5
SERVE_WINDOWS = 30

END_TO_END = (
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("p50_ms", "ms"),
    ("bytes_per_char", "B/char"),
    ("max_qps_under_slo", "queries/s"),
)
# End-to-end metrics every run computes and prints in its summary but
# that the gate does not bound: on a shared 4-vCPU VM the quartile
# distance of p99_ms over ten runs of the same code was 0.7 to 2.9 of
# its median on read-mapping, serve-skewed and ingest, more than any
# bound the gate allows. The traced run reports it among the per-layer
# metrics.
UNGATED = (("p99_ms", "ms"),)

PER_LAYER = UNGATED + (
    ("fail_frac", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_query", "B"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.shed_frac", "ratio"),
    ("gen.lag_p99_ms", "ms"),
) + tuple(("gen.lag_p99_ms.at_%d" % r, "ms") for r in SERVE_RATES) + tuple(
    ("serve.p99_ms.at_%d" % r, "ms") for r in SERVE_RATES) + (
    ("serve.saturated_at", "queries/s"),
    ("engine.queue_wait_p99_us", "us"),
    ("engine.exec_p50_us", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.retries", "count"),
    ("engine.failed", "count"),
    ("engine.call_us", "us"),
    ("plan.us", "us"),
    ("plan.seeded_frac", "ratio"),
    ("plan.seed_len_mean", "chars"),
    ("core.locate_us", "us"),
    ("core.enumerate_us", "us"),
    ("core.occ_per_query", "count"),
    ("core.enumerate_useful_ratio", "ratio"),
    ("core.matcher_us", "us"),
    ("core.nodes_checked_per_query", "count"),
    ("core.link_traversals_per_query", "count"),
    ("core.chain_hops_per_query", "count"),
    ("approx.seed_locate_us", "us"),
    ("approx.verify_us", "us"),
    ("approx.candidates_per_query", "count"),
    ("approx.useful_ratio", "ratio"),
    ("kernel.bytes_compared_per_query", "B"),
    ("compact.build_s", "s"),
    ("compact.save_s", "s"),
    ("compact.open_s", "s"),
    ("storage.minor_faults_per_query", "count"),
    ("shard.fanout", "count"),
    ("shard.slowest_us", "us"),
    ("shard.merge_us", "us"),
    ("lifecycle.insert_us", "us"),
    ("lifecycle.flush_ms", "ms"),
    ("lifecycle.compact_ms", "ms"),
    ("lifecycle.write_amp", "ratio"),
    ("lifecycle.read_p99_during_bg_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.enum_approx_share", "ratio"),
) + tuple(("trace.overhead." + name, unit) for name, unit in END_TO_END + UNGATED)


# --- statistics ------------------------------------------------------------

def tail_percentile(values, q):
    """The q-quantile (nearest rank) of values, lowered until at least
    MIN_BEYOND samples lie strictly beyond the reported rank. Returns
    (value, quantile actually reported); (0.0, 0.0) when there are too
    few samples for any tail."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    rank = min(rank, n - MIN_BEYOND)
    if rank < 1:
        return 0.0, 0.0
    return ordered[rank - 1], rank / n


def median(values):
    return statistics.median(values) if values else 0.0


def hist_percentile(hist, q):
    """The q-quantile of a program histogram (bucket upper bound), with
    the same MIN_BEYOND rule as tail_percentile."""
    if not hist or hist["count"] == 0:
        return 0.0
    count = hist["count"]
    rank = min(max(1, math.ceil(q * count)), count - MIN_BEYOND)
    if rank < 1:
        return 0.0
    bounds = hist["bounds"]
    seen = 0
    for i, n in enumerate(hist["buckets"]):
        seen += n
        if seen >= rank:
            return bounds[i] if i < len(bounds) else bounds[-1]
    return bounds[-1]


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover (children clipped to the parent, overlaps
    counted once)."""
    children = {}
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i in range(len(spans["name"])):
        start, end = spans["start_us"][i], spans["end_us"][i]
        covered = union_length(
            (max(start, spans["start_us"][c]), min(end, spans["end_us"][c]))
            for c in children.get(i, ())
            if spans["end_us"][c] > start and spans["start_us"][c] < end)
        out.append(end - start - covered)
    return out


def unattributed_frac(spans, root="request"):
    """Share of the time of root spans named `root` that no descendant
    (layer) span covers."""
    names, parents = spans["name"], spans["parent"]
    descendants = {}
    for i, parent in enumerate(parents):
        top = parent
        while top >= 0 and parents[top] >= 0:
            top = parents[top]
        if top >= 0 and names[top] == root:
            descendants.setdefault(top, []).append(i)
    total = uncovered = 0.0
    for i, name in enumerate(names):
        if name != root or parents[i] >= 0:
            continue
        start, end = spans["start_us"][i], spans["end_us"][i]
        covered = union_length(
            (max(start, spans["start_us"][d]), min(end, spans["end_us"][d]))
            for d in descendants.get(i, ())
            if spans["end_us"][d] > start and spans["start_us"][d] < end)
        total += end - start
        uncovered += end - start - covered
    return uncovered / total if total > 0 else 0.0


# --- metrics ---------------------------------------------------------------

def chunks(values, n):
    """`values` cut into n contiguous, near-equal parts."""
    return [values[len(values) * k // n:len(values) * (k + 1) // n] for k in range(n)]


def windowed_p99(windows):
    """Median over windows of each window's p99 (MIN_BEYOND rule
    applied per window)."""
    return median([tail_percentile(w, 0.99)[0] for w in windows if len(w) > MIN_BEYOND])


def latency_windows(workload, phase):
    """The latency samples of the reported load, by time window."""
    s = phase["samples"]
    if workload == "serve-skewed":
        # In receipt order: contiguous parts are time windows.
        return chunks(s.get("latency_ms.rung%d" % SERVE_REFERENCE_RUNG, []), SERVE_WINDOWS)
    if workload == "ingest":
        # Reads in time order, cycle after cycle.
        return chunks(s.get("latency_ms", []), WINDOWS)
    return [s.get("latency_ms.w%d" % k, []) for k in range(WINDOWS)]


def serve_rungs(phase):
    """Per-rung verdicts of the rate ladder. The runner stops the ladder
    after its first backlogged rung; the rungs above it send nothing."""
    rungs = []
    v, s = phase["values"], phase["samples"]
    for k, rate in enumerate(SERVE_RATES):
        sent = v["rung%d.sent" % k] > 0
        latency = s.get("latency_ms.rung%d" % k, [])
        rungs.append({
            "rate": rate,
            "sent": sent,
            "achieved": v["rung%d.ok" % k] / v["rung%d.answer_s" % k] if sent else 0.0,
            "p50_ms": median(latency),
            "p99_ms": windowed_p99(chunks(latency, SERVE_WINDOWS)),
            "lag_p99_ms": tail_percentile(s.get("lag_ms.rung%d" % k, []), 0.99)[0],
            "backlogged": bool(v["rung%d.backlogged" % k]),
            "shed": v["rung%d.shed" % k],
        })
    return rungs


def end_to_end(workload, phase):
    v, s = phase["values"], phase["samples"]
    windows = latency_windows(workload, phase)
    lat = [x for w in windows for x in w]
    p99 = windowed_p99(windows)
    if workload == "ingest":
        # The reader is paced, so the rate the workload sustains is its
        # writer's: acknowledged inserts per second (ingest_docs_per_s).
        qps = median(s["ingest_docs_per_s"])
        max_qps = qps
    elif workload == "serve-skewed":
        # Answers per second from the start of the first backlogged rung
        # (the top rung if none) to the end of the drain.
        qps = v["saturated_answers"] / v["saturated_s"]
        passing = [r["achieved"] for r in serve_rungs(phase) if r["sent"] and
                   r["p99_ms"] <= SERVE_P99_LIMIT_MS and not r["backlogged"]]
        max_qps = max(passing, default=0.0)
    else:
        # Median over the windows of each window's completed queries (one
        # latency sample per batch) per second. A closed loop runs at its
        # capacity, so that is also the highest rate it sustains.
        qps = median([len(w) * v["batch"] / v["window_s"] for w in windows])
        max_qps = qps
    out = {
        "setup_s": median(s["setup_s"]),
        "qps": qps,
        "p50_ms": median(lat),
        "p99_ms": p99,
        "bytes_per_char": v.get("bytes_per_char") or median(s["bytes_per_char"]),
        "max_qps_under_slo": max_qps,
    }
    return out


def span_groups(spans):
    """Per request id: {span name: [self times]}."""
    by_request = {}
    for name, req, own in zip(spans["name"], spans["request"], self_times(spans)):
        by_request.setdefault(req, {}).setdefault(name, []).append(own)
    return by_request


def per_layer(workload, untraced, traced):
    """Per-layer metrics: counters from the untraced phase, span times
    from the traced phase."""
    a, b = untraced, traced
    va, sa, ha = a["values"], a["samples"], a["histograms"]
    vb = b["values"]
    m = {name: 0.0 for name, _ in PER_LAYER}

    def reg(name):
        return va.get("reg." + name, 0.0)

    def ratio(x, y):
        return x / y if y else 0.0

    attempted = max(1, a["attempted"])
    m["fail_frac"] = (a["failed"] + a["wrong"]) / attempted
    queries = reg("engine.queries") or va.get("completed", 0.0)

    # Spans of the traced phase.
    spans = b["spans"]
    groups = span_groups(spans)
    names, parents = spans["name"], spans["parent"]
    if workload == "serve-skewed":
        traced_queries = sum(1 for n, p in zip(names, parents) if n == "request" and p < 0)
    else:
        # A closed-loop request span covers a whole engine batch.
        traced_queries = vb.get("completed", 0.0)

    def total(name):
        return sum(sum(g.get(name, ())) for g in groups.values())

    def per_query(name):
        return ratio(total(name), traced_queries)

    m["trace.unattributed_frac"] = unattributed_frac(spans)
    m["engine.call_us"] = per_query("engine")

    # wire + serve + shard (serve-skewed)
    m["wire.encode_us"] = per_query("wire.encode")
    m["wire.decode_us"] = per_query("wire.decode")
    m["wire.bytes_per_query"] = ratio(va.get("serve.bytes", 0.0), va.get("serve.queries", 0.0))
    m["serve.queue_wait_p99_us"] = hist_percentile(ha.get("serve.queue_wait_us"), 0.99)
    m["serve.shed_frac"] = va.get("serve.shed", 0.0) / attempted
    if workload == "serve-skewed":
        rungs = serve_rungs(a)
        lags = []
        for k, r in enumerate(rungs):
            m["gen.lag_p99_ms.at_%d" % r["rate"]] = r["lag_p99_ms"]
            m["serve.p99_ms.at_%d" % r["rate"]] = r["p99_ms"]
            lags += sa.get("lag_ms.rung%d" % k, [])
        m["gen.lag_p99_ms"] = tail_percentile(lags, 0.99)[0]
        m["serve.saturated_at"] = float(next((r["rate"] for r in rungs if r["backlogged"]), 0))
        fan = ha.get("shard.fanout")
        m["shard.fanout"] = ratio(fan["sum"], fan["count"]) if fan else 0.0
        replays = [g for g in groups.values() if "shard.execute" in g]
        slowest = [max(g.get("shard.part", [0.0])) for g in replays]
        m["shard.slowest_us"] = ratio(sum(slowest), len(replays))
        m["shard.merge_us"] = ratio(
            sum(max(0.0, sum(g["shard.execute"]) - w) for g, w in zip(replays, slowest)),
            len(replays))

    # engine
    m["engine.queue_wait_p99_us"] = hist_percentile(ha.get("engine.queue_wait_us"), 0.99)
    m["engine.exec_p50_us"] = hist_percentile(ha.get("engine.exec_us"), 0.5)
    m["engine.cache_hit_ratio"] = ratio(reg("engine.cache_hits"), reg("engine.queries"))
    m["engine.retries"] = reg("engine.retries")
    m["engine.failed"] = reg("engine.failed")

    # plan, core, approx (closed loops: the traced replay)
    m["plan.us"] = per_query("plan")
    m["plan.seeded_frac"] = ratio(vb.get("replay.seeded", 0.0), vb.get("replay.approx", 0.0))
    m["plan.seed_len_mean"] = ratio(vb.get("replay.seed_len", 0.0), vb.get("replay.seeded", 0.0))
    m["core.locate_us"] = per_query("core.locate")
    enumerate_us = sum(max(0.0, sum(g["core.findall"]) - sum(g.get("core.locate", ())))
                       for g in groups.values() if "core.findall" in g)
    m["core.enumerate_us"] = ratio(enumerate_us, traced_queries)
    m["core.occ_per_query"] = ratio(vb.get("replay.occurrences", 0.0), vb.get("replay.findall", 0.0))
    m["core.enumerate_useful_ratio"] = ratio(vb.get("replay.occurrences", 0.0), vb.get("replay.scanned", 0.0))
    m["core.matcher_us"] = per_query("core.matcher")
    m["core.nodes_checked_per_query"] = ratio(reg("core.vertebra_steps"), queries)
    m["core.link_traversals_per_query"] = ratio(reg("core.link_traversals"), queries)
    m["core.chain_hops_per_query"] = ratio(reg("core.chain_hops"), queries)
    m["approx.seed_locate_us"] = per_query("approx.seed_locate")
    verify_us = sum(max(0.0, sum(g["approx.query"]) - sum(g.get("plan", ())) -
                        sum(g.get("approx.seed_locate", ())))
                    for g in groups.values() if "approx.query" in g)
    m["approx.verify_us"] = ratio(verify_us, traced_queries)
    m["approx.candidates_per_query"] = ratio(vb.get("replay.candidates", 0.0), vb.get("replay.approx", 0.0))
    m["approx.useful_ratio"] = ratio(vb.get("replay.verified", 0.0), vb.get("replay.candidates", 0.0))
    m["trace.enum_approx_share"] = ratio(
        m["core.enumerate_us"] + m["plan.us"] + m["approx.seed_locate_us"] + m["approx.verify_us"],
        m["engine.call_us"])

    # kernel, compact + storage
    kernel_bytes = sum(val for key, val in va.items()
                       if key.startswith("reg.kernel.") and key.endswith(".bytes_compared"))
    m["kernel.bytes_compared_per_query"] = ratio(kernel_bytes, queries)
    m["compact.build_s"] = median(sa.get("compact.build_s", []))
    m["compact.save_s"] = median(sa.get("compact.save_s", []))
    m["compact.open_s"] = median(sa.get("compact.open_s", []))
    m["storage.minor_faults_per_query"] = ratio(va.get("minor_faults", 0.0), va.get("completed", 0.0))

    # lifecycle (ingest)
    if workload == "ingest":
        m["lifecycle.insert_us"] = statistics.fmean(sa["lifecycle.insert_us"]) if sa.get("lifecycle.insert_us") else 0.0
        m["lifecycle.flush_ms"] = median(sa.get("lifecycle.flush_ms", []))
        m["lifecycle.compact_ms"] = median(sa.get("lifecycle.compact_ms", []))
        m["lifecycle.write_amp"] = ratio(va.get("artifact_bytes", 0.0), va.get("inserted_bytes", 0.0))
        m["lifecycle.read_p99_during_bg_ms"] = tail_percentile(
            sa.get("lifecycle.read_during_bg_ms", []), 0.99)[0]

    # tracing overhead: traced minus untraced, per end-to-end metric
    e2e_a, e2e_b = end_to_end(workload, a), end_to_end(workload, b)
    for name, _ in UNGATED:
        m[name] = e2e_a[name]
    for name in e2e_a:
        m["trace.overhead." + name] = e2e_b[name] - e2e_a[name]
    return m


# Workload-shape values the runner reports, echoed in the summary.
SHAPE = ("index_chars", "shards", "cache_bytes", "hot_set_bytes", "distinct_bytes",
         "distinct_used", "cycles", "docs", "deletes")


# --- build and run ---------------------------------------------------------

def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base)


def build(root):
    """Configures and builds the runner; returns its path. Serialized by
    a lock file so concurrent runs in one checkout build once."""
    base = build_dir(root)
    os.makedirs(base, exist_ok=True)
    out = os.path.join(base, "perfbench")
    with open(os.path.join(base, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if shutil.which("cmake") is None:
            raise RuntimeError("cmake not found")
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "spine_perfbench")


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_measurement(binary, root, args, deadline):
    work = os.path.join(build_dir(root), "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "result.json")
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work, "--out", out, "--cpus", str(cpu_count())]
        subprocess.run(cmd, check=True, timeout=max(1.0, deadline - time.monotonic()),
                       stdout=sys.stderr, stderr=sys.stderr)
        with open(out) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(workload, doc, metrics, units):
    print("perfbench %s seed %d inputs %s" % (workload, doc["seed"], doc["input_hash"]),
          file=sys.stderr)
    for phase in doc["phases"]:
        print("  phase traced=%s attempted=%d failed=%d wrong=%d checked=%d %s" % (
            phase["traced"], phase["attempted"], phase["failed"], phase["wrong"],
            phase["checked"], "; ".join("%s=%s" % kv for kv in sorted(phase["info"].items()))),
            file=sys.stderr)
        for error in phase["errors"]:
            print("    ! " + error, file=sys.stderr)
    shape = doc["phases"][0]["values"]
    print("  shape: " + " ".join("%s=%g" % (k, shape[k]) for k in SHAPE if k in shape),
          file=sys.stderr)
    if workload == "serve-skewed":
        for r in serve_rungs(doc["phases"][0]):
            if not r["sent"]:
                print("  rung %5d/s: not sent (the ladder stopped)" % r["rate"], file=sys.stderr)
                continue
            print("  rung %5d/s: achieved %.0f/s p50 %.3f ms p99 %.3f ms lag p99 %.3f ms backlogged %s shed %d"
                  % (r["rate"], r["achieved"], r["p50_ms"], r["p99_ms"], r["lag_p99_ms"], r["backlogged"],
                     r["shed"]), file=sys.stderr)
    if workload == "ingest":
        s = doc["phases"][0]["samples"]
        print("  ingest_docs_per_s %.6g docs/s (reported as qps); reader achieved %.6g reads/s"
              % (median(s["ingest_docs_per_s"]), median(s["reads_per_s"])), file=sys.stderr)
    for name, value in metrics.items():
        print("  %-40s %14.6g %s" % (name, value["value"], units[name]), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    try:
        binary = build(root)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    # The runner gets the rest of a 170 s budget (set-up, checks and
    # the measured window included).
    deadline = time.monotonic() + 170
    try:
        doc = run_measurement(binary, root, args, deadline)
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        print("perfbench: runner failed: %s" % e, file=sys.stderr)
        return 2

    phases = doc["phases"]
    if args.trace == 0:
        values = end_to_end(args.workload, phases[0])
        units = dict(END_TO_END)
    else:
        values = per_layer(args.workload, phases[0], phases[1])
        units = dict(PER_LAYER)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = sum(p["attempted"] for p in phases)
    wrong = sum(p["wrong"] for p in phases)
    failed = sum(p["failed"] for p in phases) + wrong
    summarize(args.workload, doc, metrics, units)
    if args.trace == 0:
        for name, unit in UNGATED:
            print("  %-40s %14.6g %s (not gated)" % (name, values[name], unit), file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
