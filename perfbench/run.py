#!/usr/bin/env python3
"""End-to-end benchmark for `repro` and `serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `repro` and the `perfbench` probe from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs the named
workload for S seconds with inputs made from the seed, checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
`end_to_end`); with --trace 1 they are the per-layer ones (`per_layer`),
taken from a traced run of the same workload beside an untraced one. The
line before it is the labelled record: workload, seed, scale, threads,
host (nproc, RAM, and `steal_frac`, the share of CPU time the host gave
to other guests during the run) and commit, with every metric the
workload measures and its sample counts. A failed output check, or any error or crash of the program under
test, exits 1 after printing both lines; a failed build, or a host the
benchmark cannot measure on, exits 2 without a result.

Workloads (`--scale` overrides the scale, for smoke tests):
  repro_stream_cold  repro --scale 0.2 --threads 2 --shards 16
                     --snapshot-dir <empty> all; its set-up runs the
                     default `repro --scale 0.2 --threads 2 all` twice
                     for the reference report
  serve_live         scale 0.01 event feed (~545k events) through the wire
                     format into a durable LiveService, one closed-loop
                     dashboard reader, then restore_durable; at least
                     three sessions a run, each in a process of its own
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

THREADS = 2
SHARDS = 16
REPRO_SETUP_REPS = 2
SERVE_MIN_SESSIONS = 3

WORKLOADS = {
    "repro_stream_cold": {"kind": "repro", "scale": 0.2},
    "serve_live": {"kind": "serve", "scale": 0.01},
}

# `cpu_s` is the CPU time the work took, from the kernel's accounting; it
# leaves out the time a shared host gave the cores to someone else, which
# `wall_s` counts, so it is the time metric the bounds hold. `wall_s` is
# reported beside it as a per-layer metric.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
}

# Per-layer metrics: span self times (`*_s` named after a span), counts, and
# the serve session's latency figures. A layer the workload does not pass
# through reports 0.
SPAN_LAYERS = [
    "sim.prepare", "sim.rows",
    "cluster.signatures", "cluster.lsh",
    "analytics.enrich",
    "snapshot.encode", "snapshot.open", "snapshot.decode",
    "query.fused",
    "analytics.marketplace", "analytics.design", "analytics.workers",
    "ingest.decode", "ingest.wal_append", "analytics.view_apply",
    "serve.checkpoint_write",
    "serve.recover_checkpoint_load", "ingest.wal_replay", "analytics.view_rebuild",
]
COUNTERS = {
    "sim.rows": "count",
    "cluster.docs": "count",
    "cluster.clusters": "count",
    "snapshot.bytes_written": "bytes",
    "snapshot.bytes_read": "bytes",
    "query.rows_scanned": "count",
    "ingest.events": "count",
    "ingest.wal_fsyncs": "count",
    "serve.checkpoints": "count",
    "serve.checkpoint_bytes": "bytes",
    "serve.checkpoint_retries": "count",
    "serve.dashboard_queries": "count",
    "ingest.wal_events_replayed": "count",
}
PER_LAYER = {f"{name}_s": "s" for name in SPAN_LAYERS}
PER_LAYER.update(COUNTERS)
PER_LAYER.update({
    "wall_s": "s",
    "query.fused_rows_per_s": "1/s",
    "repro.build_s": "s",
    "repro.analysis_s": "s",
    "ingest.wal_bytes_per_event": "bytes",
    "analytics.view_apply_growth": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "events_per_s": "1/s",
    "apply_batch_p50_ms": "ms",
    "apply_batch_p90_ms": "ms",
    "dashboard_p50_us": "us",
    "dashboard_p99_us": "us",
    "recover_s": "s",
    "ops_failed_frac": "ratio",
})


class SetupError(Exception):
    """Build or set-up failed: no result can be reported."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Host, commit, processes, files
# --------------------------------------------------------------------------

def host_labels():
    ram_gb = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    ram_gb = round(int(line.split()[1]) / 1024 / 1024, 1)
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "ram_gb": ram_gb}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def steal_frac(before, after):
    """Share of the CPU time between two `cpu_ticks` readings that the
    host gave to other guests, or None."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def git(root, *args):
    """Stdout of a git command in `root`, or None when it fails."""
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit_label(root):
    """The git commit, `<commit>-dirty-<tree hash>` when the working tree has
    changes, or `tree-<tree hash>` outside git."""
    head = git(root, "rev-parse", "HEAD")
    if not head:
        return "tree-" + tree_hash(root)
    if git(root, "status", "--porcelain"):
        return f"{head}-dirty-{tree_hash(root)}"
    return head


def tree_hash(root):
    """A short hash of the source files that go into the build."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for fp in files:
            if fp.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(fp, root).encode())
                with open(fp, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def dir_bytes(path):
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            try:
                total += os.lstat(os.path.join(d, f)).st_size
            except OSError:
                pass
    return total


def child_env():
    """The caller's environment without the program's own settings
    (`CROWD_SNAPSHOT_DIR`, `CROWD_KILL_AT`, ...) or rayon's, which would
    change what a workload runs."""
    return {k: v for k, v in os.environ.items() if not k.startswith(("CROWD_", "RAYON_"))}


def run_child(cmd, stdout_path=None, marker=None):
    """Runs `cmd` to completion and returns what the benchmark measures.

    Stdout goes to `stdout_path` when given, else is captured. Returns
    (exit code, wall seconds spawn to exit, seconds until the first stderr
    line starting with `marker` or None, that line, peak RSS in MB, CPU
    seconds (user + system, all threads), captured stdout bytes or None,
    stderr text).
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.PIPE
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE, env=child_env())
    captured = None
    marker_s = marker_line = None
    err_lines = []
    status = None
    try:
        if stdout_path is None:
            # The probes write little to stderr; drain stdout first.
            captured = proc.stdout.read()
        for line in proc.stderr:
            if marker and marker_s is None and line.startswith(marker):
                marker_s = time.perf_counter() - t0
                marker_line = line.decode(errors="replace").strip()
            err_lines.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        if stdout_path:
            out.close()
        if status is None:
            # Interrupted before the child was reaped: stop it and wait.
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = b"".join(err_lines).decode(errors="replace")
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, marker_s, marker_line, usage.ru_maxrss / 1024.0, cpu, captured, stderr


def build(root):
    """Builds `repro` and the probe in release mode; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        raise SetupError("no Cargo.toml at the repository root: run from a full checkout")
    for cmd in (
        ["cargo", "build", "--offline", "--release", "--bin", "repro"],
        ["cargo", "build", "--offline", "--release", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SetupError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(root, target, "release")
    return os.path.join(release, "repro"), os.path.join(release, "perfbench")


def read_spans(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            run = runs.setdefault(rec["run"], {"spans": [], "counters": {}})
            if rec["kind"] == "span":
                run["spans"].append(rec)
            else:
                run["counters"][rec["name"]] = rec["value"]
    return runs


def layer_metrics(run):
    """Per-layer figures of one traced run (spans + counters)."""
    layers, unattributed, _total = stats.self_times(run["spans"])
    out = {f"{name}_s": layers.get(name, 0.0) for name in SPAN_LAYERS}
    unknown = set(layers) - set(SPAN_LAYERS)
    if unknown:
        raise SetupError(f"spans with no per-layer metric: {sorted(unknown)}")
    for name in COUNTERS:
        out[name] = float(run["counters"].get(name, 0.0))
    fused_s = out["query.fused_s"]
    out["query.fused_rows_per_s"] = out["query.rows_scanned"] / fused_s if fused_s > 0 else 0.0
    events = out["ingest.events"]
    wal_bytes = run["counters"].get("ingest.wal_bytes", 0.0)
    out["ingest.wal_bytes_per_event"] = wal_bytes / events if events else 0.0
    applies = sorted(
        (s for s in run["spans"] if s["name"] == "analytics.view_apply"), key=lambda s: s["start_ns"]
    )
    decile = len(applies) // 10
    if decile:
        cost = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in applies]
        first, last = statistics.mean(cost[:decile]), statistics.mean(cost[-decile:])
        out["analytics.view_apply_growth"] = last / first if first > 0 else 0.0
    else:
        out["analytics.view_apply_growth"] = 0.0
    out["trace.unattributed_s"] = unattributed
    return out


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


# --------------------------------------------------------------------------
# repro workloads
# --------------------------------------------------------------------------

def parse_enriched(line):
    """`enriched: N instances, M sampled batches, K clusters` -> (N, M, K)."""
    words = line.replace(",", " ").split()
    return int(words[1]), int(words[3]), int(words[6])


def run_repro(args, bins, work, result):
    repro, probe = bins
    base = [repro, "--scale", str(args.scale), "--seed", str(args.seed), "--threads", str(THREADS)]

    # Set-up: the reference report from the default monolithic build (one
    # shard, no snapshot), made REPRO_SETUP_REPS times; every report must
    # match the first.
    setup = []
    failures = []
    reference = None
    for k in range(REPRO_SETUP_REPS):
        path = os.path.join(work, f"reference-{k}.txt")
        t0 = time.perf_counter()
        rc, *_rest, err = run_child(base + ["all"], path)
        setup.append(time.perf_counter() - t0)
        with open(path, "rb") as f:
            report = f.read()
        reference = report if reference is None else reference
        if rc != 0 or report != reference:
            # The program failed its default build: a failed operation, not
            # a fault of the host.
            failures.append(f"reference run {k}: exit {rc}, matches the first: {report == reference}; "
                            f"{err[-2000:]}")
            result.update(attempted=k + 1, failures=failures, samples={})
            return
    setup_s = statistics.median(setup)

    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "disk_mb": [], "build_s": [], "analysis_s": []}
    traced = []
    attempted = REPRO_SETUP_REPS
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < args.seconds:
        out_dir = os.path.join(work, f"run-{i}")
        os.makedirs(out_dir)
        streamed = ["--shards", str(SHARDS), "--snapshot-dir", os.path.join(out_dir, "snapshots")]
        report = os.path.join(out_dir, "report.txt")
        rc, wall, build_s, enriched, rss, cpu, _, err = run_child(base + streamed + ["all"], report, b"enriched:")
        attempted += 1
        with open(report, "rb") as f:
            matches = f.read() == reference
        ok = rc == 0 and matches and enriched is not None
        if not ok:
            failures.append(f"run {i}: exit {rc}, report matches reference: {matches}; {err[-500:]}")
        else:
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(cpu)
            samples["peak_rss_mb"].append(rss)
            samples["disk_mb"].append(dir_bytes(out_dir) / 1e6)
            samples["build_s"].append(build_s)
            samples["analysis_s"].append(wall - build_s)
        shutil.rmtree(out_dir)

        if args.trace and ok:
            traced.append(run_traced_repro(args, probe, work, i, wall, enriched, failures))
            attempted += 1
        i += 1

    result["setup_s"] = setup_s
    result["samples"] = dict(samples, setup_s=setup)
    result["attempted"] = attempted
    result["failures"] = failures
    if not samples["wall_s"]:
        return
    result["end_to_end"] = {
        "setup_s": setup_s,
        "cpu_s": statistics.median(samples["cpu_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "disk_mb": statistics.median(samples["disk_mb"]),
    }
    result["record_extra"] = {
        "wall_s": statistics.median(samples["wall_s"]),
        "ops_failed_frac": len(failures) / attempted,
    }
    if args.trace:
        ok_traced = [t for t in traced if t is not None]
        if not ok_traced:
            return
        layers = {k: median_of(ok_traced, k) for k in ok_traced[0]}
        layers["wall_s"] = statistics.median(samples["wall_s"])
        layers["repro.build_s"] = statistics.median(samples["build_s"])
        layers["repro.analysis_s"] = statistics.median(samples["analysis_s"])
        for name in ("events_per_s", "apply_batch_p50_ms", "apply_batch_p90_ms",
                     "dashboard_p50_us", "dashboard_p99_us", "recover_s"):
            layers[name] = 0.0
        layers["ops_failed_frac"] = len(failures) / attempted
        result["per_layer"] = layers


def run_traced_repro(args, probe, work, i, untraced_wall, enriched, failures):
    """One traced composition beside untraced run `i`; its layer figures, or None."""
    traces = os.path.join(work, "..", "traces")
    os.makedirs(traces, exist_ok=True)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{i}"
    spans = os.path.join(traces, f"{run_id}.jsonl")
    snap_dir = os.path.join(work, f"traced-{i}")
    cmd = [probe, "repro", "--seed", str(args.seed), "--scale", str(args.scale),
           "--threads", str(THREADS), "--snapshot-dir", snap_dir, "--shards", str(SHARDS),
           "--spans", spans, "--run-id", run_id]
    rc, wall, _, _, _, _, out, err = run_child(cmd)
    shutil.rmtree(snap_dir, ignore_errors=True)
    if rc == 2:
        raise SetupError(f"repro probe could not run: {err[-2000:]}")
    if rc != 0:
        failures.append(f"traced run {i}: exit {rc}: {err[-500:]}")
        return None
    summary = json.loads(out.decode().strip().splitlines()[-1])
    expect = parse_enriched(enriched)
    got = (summary["n_instances"], summary["n_enriched"], summary["n_clusters"])
    if got != expect:
        failures.append(f"traced run {i}: built {got}, repro reported {expect}")
        return None
    (run,) = read_spans(spans).values()
    layers = layer_metrics(run)
    layers["trace.overhead_frac"] = wall / untraced_wall
    return layers


# --------------------------------------------------------------------------
# serve_live
# --------------------------------------------------------------------------

def run_serve(args, bins, work, result):
    """Sessions until `--seconds` have passed, at least SERVE_MIN_SESSIONS,
    each in a probe process of its own that first makes the feed (the
    set-up) and then runs it."""
    _, probe = bins
    traces = os.path.join(work, "..", "traces")
    os.makedirs(traces, exist_ok=True)
    setup, sessions, traced, failures = [], [], [], []
    attempted = 0
    started = time.perf_counter()
    i = 0
    while i < SERVE_MIN_SESSIONS or time.perf_counter() - started < args.seconds:
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{i}"
        cmd = [probe, "serve", "--seed", str(args.seed), "--scale", str(args.scale),
               "--threads", str(THREADS), "--dir", os.path.join(work, "serve"),
               "--trace", str(args.trace), "--spans", os.path.join(traces, f"{run_id}.jsonl"),
               "--run-id", run_id]
        rc, _wall, _, _, _, _, out, err = run_child(cmd)
        if rc == 2:
            raise SetupError(f"serve probe could not run: {err[-2000:]}")
        if rc != 0:
            # A crash inside the program (a panic exits 101, a signal < 0).
            attempted += 1
            failures.append(f"serve probe {i} exited {rc}: {err[-2000:]}")
            break
        data = json.loads(out.decode().strip().splitlines()[-1])
        setup.append(data["setup_s"])
        for name, s in (("session", data["session"]), ("traced session", data["traced"])):
            if s is not None:
                attempted += s["attempted"]
                failures += [f"{name} {i}: {m}" for m in s["failures"]]
        if data["session"] is not None:
            sessions.append(data["session"])
        if data["traced"] is not None:
            traced.append((run_id, data["traced"], data["session"]))
        attempted += len(data["errors"])
        failures += [f"probe {i}: {m}" for m in data["errors"]]
        if data["errors"]:
            break
        i += 1
    if not sessions:
        result.update(attempted=max(attempted, 1), failures=failures, samples={})
        return

    batch_ms = [x for s in sessions for x in s["batch_ms"]]
    dash_us = [x for s in sessions for x in s["dashboard_us"]]
    notes = []
    for name, xs, p in (("apply_batch_p90_ms", batch_ms, 90.0), ("dashboard_p99_us", dash_us, 99.0)):
        if not stats.supports(len(xs), p):
            notes.append(f"{name}: {len(xs)} samples leave fewer than {stats.TAIL_MIN} beyond p{p:g}")
            log(f"warning: {notes[-1]}")
    serve_metrics = {
        "events_per_s": statistics.median(s["events"] / s["ingest_s"] for s in sessions),
        "apply_batch_p50_ms": statistics.median(batch_ms),
        "apply_batch_p90_ms": stats.percentile(batch_ms, 90.0),
        "dashboard_p50_us": statistics.median(dash_us),
        "dashboard_p99_us": stats.percentile(dash_us, 99.0),
        "recover_s": statistics.median(s["recover_s"] for s in sessions),
        "wall_s": statistics.median(s["wall_s"] for s in sessions),
        "ops_failed_frac": len(failures) / attempted,
    }
    setup_s = statistics.median(setup)
    result.update({
        "setup_s": setup_s,
        "attempted": attempted,
        "failures": failures,
        "samples": {
            "setup_s": setup,
            "wall_s": [s["wall_s"] for s in sessions],
            "cpu_s": [s["cpu_s"] for s in sessions],
            "apply_batch_ms": batch_ms,
            "dashboard_us": dash_us,
        },
        "end_to_end": {
            "setup_s": setup_s,
            "cpu_s": statistics.median(s["cpu_s"] for s in sessions),
            "peak_rss_mb": statistics.median(s["peak_rss_bytes"] / 2**20 for s in sessions),
            "disk_mb": statistics.median(s["disk_bytes"] for s in sessions) / 1e6,
        },
        "record_extra": serve_metrics,
        "notes": notes,
    })
    if args.trace and traced:
        per_run = []
        for run_id, t, untraced in traced:
            (run,) = read_spans(os.path.join(traces, f"{run_id}.jsonl")).values()
            layers = layer_metrics(run)
            layers["trace.overhead_frac"] = t["wall_s"] / untraced["wall_s"]
            per_run.append(layers)
        layers = {k: median_of(per_run, k) for k in per_run[0]}
        layers["repro.build_s"] = 0.0
        layers["repro.analysis_s"] = 0.0
        layers.update(serve_metrics)
        result["per_layer"] = layers


# --------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=None, help="override the workload's scale (smoke tests)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.scale is None:
        args.scale = wl["scale"]

    root = os.getcwd()
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    result = {}
    try:
        bins = build(root)
        ticks = cpu_ticks()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        if wl["kind"] == "repro":
            run_repro(args, bins, work, result)
        else:
            run_serve(args, bins, work, result)
    except SetupError as e:
        log(str(e))
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = result["failures"]
    for f in failures:
        log(f"FAILED {f}")
    wanted = PER_LAYER if args.trace else END_TO_END
    values = result.get("per_layer" if args.trace else "end_to_end")
    correct = not failures and values is not None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "threads": THREADS,
        **host_labels(),
        "steal_frac": steal_frac(ticks, cpu_ticks()),
        "commit": commit_label(root),
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": {
            **{k: {"value": v, "unit": END_TO_END[k]} for k, v in (result.get("end_to_end") or {}).items()},
            **{k: {"value": v, "unit": PER_LAYER[k]} for k, v in (result.get("record_extra") or {}).items()},
        },
        "samples": {k: stats.summarize(v) for k, v in result["samples"].items() if v},
        "failures": failures,
        "notes": result.get("notes", []),
    }
    print(json.dumps({"record": record}))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in wanted.items()} if values else {}
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
