#!/usr/bin/env python3
"""DBSCOUT benchmark: the batch engines and the durable streaming service.

Run from the root of a checkout:

    python3 perfbench/run.py --workload osm2d --seed 1 --seconds 30 --trace 0

Every run builds the programs from source into .bench_build/ (perfbench/
CMakeLists.txt), makes its inputs from --seed under .bench_run/, runs both
halves of the workload, checks every output, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (perfbench/README.md has
the list, the units and which metric each layer moves). The exit code is
nonzero when a correctness check fails.

Other modes:
  --digest      print SHA-256 digests of the inputs one seed makes, and exit
  --sweep       stream rate sweep: latency per offered rate and the knee
  --self-test   plant a wrong answer for each correctness check and expect
                every planted run to fail
  --plant X     plant one wrong answer (batch, label or ack) into this run
"""

import argparse
import bisect
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNS = ROOT / ".bench_run"
NPROC = os.cpu_count() or 1
ENGINES = ["sequential", "shared", "parallel", "external"]

# Sizes and the reasons for them are in perfbench/README.md.
WORKLOADS = {
    "osm2d": {
        "kind": "osm2d", "n": 2_000_000, "eps": 1e6, "min_pts": 100,
        "stripe_points": 500_000,
        "stream": {"eps": 5e5, "min_pts": 20, "ingest_rate": 150,
                   "query_rate": 300, "ttl": 3.0,
                   "batch": 64, "preload": 20_000,
                   "snapshot_interval": 128 * 1024},
    },
    "clustered4d": {
        "kind": "clustered4d", "n": 20_000, "eps": 2.5, "min_pts": 50,
        "stripe_points": 7_000,
        "stream": {"eps": 2.5, "min_pts": 20, "ingest_rate": 30,
                   "query_rate": 300, "ttl": 3.0,
                   "batch": 64, "preload": 20_000,
                   "snapshot_interval": 128 * 1024},
    },
}

# Units of every metric this script can report.
UNITS = {
    "setup_s": "s", "rss_mb": "MB", "seq_s": "s", "shared_s": "s",
    "dataflow_s": "s", "external_s": "s", "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms", "query_p50_us": "us", "query_p99_us": "us",
    "recovery_s": "s", "disk_bytes_per_pt": "B/pt",
    "error_rate": "ratio",
    "data.load_s": "s", "grid.build_s": "s", "grid.neighbor_probe_s": "s",
    "grid.occupied_per_probe": "ratio", "grid.cells": "count",
    "grid.dense_cells": "count", "grid.stencil_offsets": "count",
    "core.grid_s": "s", "core.dense_cell_map_s": "s",
    "core.core_points_s": "s", "core.core_cell_map_s": "s",
    "core.outliers_s": "s", "core.dist_comps_per_pt": "comps/pt",
    "core.shared_first_call_extra_s": "s", "simd.count_within_mpts": "Mpt/s",
    "dataflow.shuffled_records": "count", "dataflow.records_per_pt": "rec/pt",
    "external.stripes": "count", "external.spilled_records": "count",
    "external.max_stripe_points": "count",
    "service.frame_decode_us": "us", "service.queue_wait_us": "us",
    "service.apply_pass_us": "us", "service.snapshot_publish_us": "us",
    "service.reply_encode_us": "us", "service.unattributed_us": "us",
    "service.closure_gap_pct": "%", "service.query_dispatch_us": "us",
    "service.query_unattributed_us": "us", "service.batches_per_pass": "ratio",
    "service.shed": "count", "service.codec_us": "us",
    "core.insert_us_per_pt": "us/pt", "core.remove_us_per_pt": "us/pt",
    "core.classify_p50_us": "us", "storage.wal_commit_p50_us": "us",
    "storage.wal_commit_p99_us": "us", "storage.fsyncs_per_pass": "ratio",
    "storage.compactions": "count", "storage.wal_bytes_per_pt": "B/pt",
    "storage.snapshot_bytes": "B", "storage.open_s": "s",
    "obs.trace_overhead_pct": "%", "load.late_p99_us": "us",
}

INGEST = 0  # request kind in pb_tool load's request log


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


class Tracer:
    """The benchmark's own spans, written as Chrome trace events."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.events = []

    def span(self, name, start, end, pid=0, tid=0, **args):
        self.events.append({"name": name, "ph": "X", "pid": pid, "tid": tid,
                            "ts": (start - self.t0) * 1e6,
                            "dur": (end - start) * 1e6, "args": args})


TRACER = Tracer()


class Timed:
    def __init__(self, name, **args):
        self.name, self.args = name, args

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.seconds = self.end - self.start
        TRACER.span(self.name, self.start, self.end, **self.args)
        log(f"  {self.name}: {self.seconds:.3f}s")


# ---------------------------------------------------------------------------
# Processes


def run_tool(args, timeout=120):
    """Runs a helper to completion and returns the JSON object it printed
    last; raises if it fails."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=ENV)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"timed out: {' '.join(map(str, args))}")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, args))} exited "
                           f"{proc.returncode}: {err.decode()[-2000:]}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None


def timed_process(args, timeout=120):
    """Runs a program as a user would; returns (wall s, peak RSS MB, exit)."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, cwd=ROOT, env=ENV)
    deadline = start + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    if proc.returncode != 0:
        log(f"{args[0]} exited {proc.returncode}: {err[-1000:]}")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Server:
    """dbscout_serve as a separate process on a fixed local port."""

    def __init__(self, cfg, data_dir, trace_spans=None):
        s = cfg["stream"]
        self.port = free_port()
        self.args = [str(BUILD / "tools" / "dbscout_serve"),
                     f"--eps={s['eps']}", f"--min-pts={s['min_pts']}",
                     f"--port={self.port}", f"--data-dir={data_dir}",
                     f"--ttl-seconds={s['ttl']}",
                     f"--snapshot-interval={s['snapshot_interval']}"]
        if trace_spans:
            self.args.append(f"--trace-spans={trace_spans}")
        self.proc = None
        self.max_rss_mb = 0.0
        LIVE_SERVERS.add(self)

    def start(self, timeout=60):
        """Starts the server; returns seconds until it reports ready (the
        banner is printed only after recovery, when HEALTH says ready)."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.args, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, cwd=ROOT,
                                     env=ENV)
        line = b""
        while b"listening" not in line:
            line = self.proc.stdout.readline()
            if not line or time.perf_counter() - start > timeout:
                self.kill()
                raise RuntimeError("dbscout_serve did not become ready")
        return time.perf_counter() - start

    def kill(self):
        """SIGKILL, then reap; records the process's peak RSS."""
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGKILL)
        _, _, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = -9
        self.proc.stdout.close()
        self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
        self.proc = None
        LIVE_SERVERS.discard(self)


# Every server started and not yet reaped; main() kills them on any exit.
LIVE_SERVERS = set()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def tool(*args):
    return [str(BUILD / "pb_tool"), *[str(a) for a in args]]


# ---------------------------------------------------------------------------
# Build and environment


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: the repository's sources (src/, tools/, cmake/) are "
            "not next to perfbench/; run from the root of a full checkout")
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    logf = BUILD / "build.log"
    with open(logf, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), f"-j{NPROC}",
                      "--target", "dbscout_tool", "dbscout_serve",
                      "pb_tool"])
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT, env=ENV) != 0:
                log(Path(logf).read_text()[-4000:])
                log("perfbench: build failed")
                sys.exit(1)


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        fields = [int(x) for x in
                  Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


START_TICKS = cpu_ticks()


def environment(run_dir, simd_isa, lateness):
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=")[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, cwd=ROOT)
        commit = r.stdout.strip() or commit
    digest = hashlib.sha256()
    for sub in ("src", "tools", "cmake", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                digest.update(str(p.relative_to(ROOT)).encode())
                digest.update(p.read_bytes())
    steal, total = (a - b for a, b in zip(cpu_ticks(), START_TICKS))
    try:
        loadavg = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError):
        loadavg = -1.0
    return {
        "nproc": NPROC, "cpu": cpu, "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
        "data_dir_fs": filesystem_of(run_dir), "simd_isa": simd_isa,
        "load_sends": lateness["sends"],
        "load_late_p50_us": lateness["p50"], "load_late_p99_us":
        lateness["p99"], "load_late_max_us": lateness["max"],
        # Interference from outside the benchmark: CPU time the hypervisor
        # gave to others during the run, and the 1-minute load average.
        "cpu_steal_pct": 100.0 * steal / total if total else 0.0,
        "loadavg_1m": loadavg,
    }


def filesystem_of(path):
    best, fs = "", "?"
    try:
        for line in Path("/proc/mounts").read_text().splitlines():
            parts = line.split()
            mount = parts[1]
            if str(path).startswith(mount) and len(mount) > len(best):
                best, fs = mount, parts[2]
    except OSError:
        pass
    return fs


# ---------------------------------------------------------------------------
# Inputs


def stream_points(cfg, seconds):
    s = cfg["stream"]
    ingests = int(s["ingest_rate"] * seconds) + 1
    return s["preload"] + (ingests + 64) * s["batch"]


def make_inputs(cfg, seed, run_dir, stream_seconds):
    """Writes the batch input and the stream's points; deterministic in
    (workload, seed)."""
    batch_file = run_dir / "batch.bin"
    stream_file = run_dir / "stream.bin"
    run_tool(tool("gen", f"--kind={cfg['kind']}", f"--n={cfg['n']}",
                  f"--seed={seed}", f"--out={batch_file}"))
    run_tool(tool("gen", f"--kind={cfg['kind']}",
                  f"--n={stream_points(cfg, stream_seconds)}",
                  f"--seed={seed + 1_000_003}",
                  f"--out={stream_file}"))
    return batch_file, stream_file


def start_preloaded(cfg, run_dir, name, trace_spans=None):
    data_dir = run_dir / name
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir()
    acks = run_dir / f"{name}.acks"
    acks.unlink(missing_ok=True)
    server = Server(cfg, data_dir, trace_spans)
    server.start()
    s = cfg["stream"]
    run_tool(tool("preload", f"--port={server.port}",
                  f"--stream={run_dir / 'stream.bin'}",
                  f"--count={s['preload']}", "--batch=4096", f"--acks={acks}"))
    return server, data_dir, acks


def setup(cfg, seed, run_dir, stream_seconds, reps=3):
    """Input generation plus server start and preload, repeated; returns the
    median seconds."""
    times = []
    for rep in range(reps):
        with Timed("setup", rep=rep) as t:
            make_inputs(cfg, seed, run_dir, stream_seconds)
            server, data_dir, _ = start_preloaded(cfg, run_dir, "setup")
        server.kill()
        shutil.rmtree(data_dir, ignore_errors=True)
        times.append(t.seconds)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Batch half


def run_engine(cfg, engine, batch_file, out_file):
    args = [str(BUILD / "tools" / "dbscout"), "detect",
            f"--input={batch_file}", f"--eps={cfg['eps']}",
            f"--min-pts={cfg['min_pts']}", f"--engine={engine}",
            f"--output={out_file}"]
    if engine == "external":
        args.append(f"--stripe-points={cfg['stripe_points']}")
    with Timed(f"detect {engine}", tid=1):
        return timed_process(args)


def batch_round(cfg, batch_file, run_dir, plant, rnd):
    """One fresh process per engine; checks every outlier set against the
    sequential engine's, byte for byte."""
    walls, rss, failed, problems = {}, 0.0, 0, []
    outputs = {}
    for engine in ENGINES:
        out_file = run_dir / f"outliers_{engine}.txt"
        out_file.unlink(missing_ok=True)
        wall, peak, code = run_engine(cfg, engine, batch_file, out_file)
        walls[engine] = wall
        rss = max(rss, peak)
        if code != 0 or not out_file.exists():
            failed += 1
            problems.append(f"{engine} exited {code}")
            continue
        outputs[engine] = out_file.read_bytes()
    if plant == "batch" and "shared" in outputs:
        outputs["shared"] += b"0\n"  # one planted extra outlier
    reference = outputs.get("sequential")
    for engine, data in outputs.items():
        if reference is not None and data != reference:
            problems.append(f"round {rnd}: {engine} outliers differ from "
                            "sequential")
    return walls, rss, failed, problems


def batch_half(cfg, batch_file, run_dir, budget, plant, min_rounds=3):
    start = time.perf_counter()
    walls = {e: [] for e in ENGINES}
    rss, failed, attempted, problems = 0.0, 0, 0, []
    rnd = 0
    while rnd < min_rounds or time.perf_counter() - start < budget:
        w, peak, f, p = batch_round(cfg, batch_file, run_dir, plant, rnd)
        for e in ENGINES:
            walls[e].append(w[e])
        rss, failed, attempted = max(rss, peak), failed + f, attempted + 4
        problems += p
        rnd += 1
    # The fastest round: interference from outside (other tenants of the
    # host) only ever slows a process down, and across identical runs the
    # fastest round spread half as much as the median round (README).
    return {e: min(v) for e, v in walls.items()}, rss, attempted, failed, \
        problems


# ---------------------------------------------------------------------------
# Stream half


def read_requests(path):
    rows = []
    with open(path) as f:
        for r in csv.DictReader(f):
            rows.append({"kind": int(r["kind"]), "scheduled":
                         float(r["scheduled"]), "sent": float(r["sent"]),
                         "done": float(r["done"]), "status": int(r["status"]),
                         "trace_id": r["trace_id"], "offset": int(r["offset"]),
                         "count": int(r["count"]), "epoch": int(r["epoch"])})
    return rows


def append_acks(rows, acks):
    with open(acks, "a") as f:
        for r in rows:
            if r["kind"] == INGEST and r["status"] == 0:
                f.write(f"{r['epoch']} {r['count']} {r['offset']}\n")


def load(cfg, server, run_dir, seconds, seed, traced, offset, acked, tag,
         ingest_rate=None):
    s = cfg["stream"]
    req_file = run_dir / f"requests_{tag}.csv"
    with Timed(f"load {tag}", tid=2) as t:
        summary = run_tool(tool(
            "load", f"--port={server.port}",
            f"--stream={run_dir / 'stream.bin'}", f"--offset={offset}",
            f"--acked={acked}",
            f"--ingest-rate={ingest_rate or s['ingest_rate']}",
            f"--query-rate={s['query_rate']}",
            f"--seconds={seconds}", f"--batch={s['batch']}",
            f"--eps={s['eps']}", f"--seed={seed}",
            f"--trace={1 if traced else 0}", f"--requests={req_file}"),
            timeout=seconds + 60)
    rows = read_requests(req_file)
    for r in rows:
        if r["done"] > 0:
            start = t.start + 0.2 + r["sent"]
            TRACER.span("ingest" if r["kind"] == INGEST else "query", start,
                        t.start + 0.2 + r["done"], pid=1,
                        tid=10 + r["kind"], trace_id=r["trace_id"])
    return summary, rows


def latency_stats(rows, warmup=0.0):
    """Latency over requests scheduled after `warmup` seconds (by then the
    preload has expired and the window is in steady state); failures and
    lateness over all requests."""
    ok = [r for r in rows if r["status"] == 0 and r["done"] > 0]
    measured = [r for r in ok if r["scheduled"] >= warmup]
    ingest = [r for r in measured if r["kind"] == INGEST]
    query = [r for r in measured if r["kind"] != INGEST]
    ing = [(r["done"] - r["scheduled"]) for r in ingest]
    qry = [(r["done"] - r["scheduled"]) for r in query]
    late = [(r["sent"] - r["scheduled"]) * 1e6 for r in rows]
    n = len(ing)
    quarter = max(1, n // 4)
    first = sorted(ing[:quarter])
    last = sorted(ing[-quarter:])
    return {
        "ingest_p50_ms": quantile(ing, 0.5) * 1e3,
        "ingest_p99_ms": quantile(ing, 0.99) * 1e3,
        "query_p50_us": quantile(qry, 0.5) * 1e6,
        "query_p99_us": quantile(qry, 0.99) * 1e6,
        "ingests": len(ing), "queries": len(query),
        "failed": len(rows) - len(ok), "attempted": len(rows),
        # > 1 when latency grows through the run: a backlog.
        "backlog_ratio": (quantile(last, 0.5) / quantile(first, 0.5))
        if first and quantile(first, 0.5) > 0 else 0.0,
        "late": {"sends": len(rows), "p50": quantile(late, 0.5),
                 "p99": quantile(late, 0.99), "max": max(late, default=0.0)},
    }


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def verify(cfg, server, run_dir, acks, plant):
    s = cfg["stream"]
    with Timed("verify", tid=3):
        result = run_tool(tool(
            "verify", f"--port={server.port}",
            f"--stream={run_dir / 'stream.bin'}", f"--acks={acks}",
            f"--eps={s['eps']}", f"--min-pts={s['min_pts']}",
            f"--plant={plant if plant in ('label', 'ack') else ''}"))
    return result


def restart_cycle(cfg, data_dir, run_dir, acks, plant, restarts=3,
                  trace_spans=None):
    """kill -9 has just happened. Restarts on the same directory `restarts`
    times; the first restart is verified. Returns (recovery seconds per
    restart, verify result, peak RSS MB)."""
    recovery, result, rss = [], None, 0.0
    for i in range(restarts):
        server = Server(cfg, data_dir, trace_spans)
        with Timed("restart", tid=3, n=i) as t:
            server.start()
        recovery.append(t.seconds)
        try:
            if i == 0:
                result = verify(cfg, server, run_dir, acks, plant)
        finally:
            server.kill()
        rss = max(rss, server.max_rss_mb)
    return recovery, result, rss


def warmup_seconds(cfg):
    """Latency is measured once the preload has expired."""
    return cfg["stream"]["ttl"] + 0.5


def stream_half(cfg, seed, run_dir, seconds, plant):
    # The batch half's spill and output files would otherwise be written
    # back while the WAL fsyncs.
    os.sync()
    server, data_dir, acks = start_preloaded(cfg, run_dir, "data")
    try:
        summary, rows = load(cfg, server, run_dir, seconds, seed, False,
                             cfg["stream"]["preload"],
                             cfg["stream"]["preload"], "e2e")
    finally:
        server.kill()
    append_acks(rows, acks)
    stats = latency_stats(rows, warmup_seconds(cfg))
    points = sum(r["count"] for r in rows
                 if r["kind"] == INGEST and r["status"] == 0)
    points += cfg["stream"]["preload"]
    disk = dir_bytes(data_dir) / points
    recovery, result, rss = restart_cycle(cfg, data_dir, run_dir, acks, plant)
    problems = []
    if not result["ok"]:
        problems.append("stream: " + result["problem"])
    if summary["broken"]:
        problems.append("stream: a connection broke")
    stats.update({"recovery_s": statistics.median(recovery),
                  "disk_bytes_per_pt": disk,
                  "rss_mb": max(rss, server.max_rss_mb), "verify": result})
    return stats, problems


# ---------------------------------------------------------------------------
# Traced run: per-layer numbers


def load_spans(prefix, name):
    path = Path(f"{prefix}trace_{name}.json")
    return json.loads(path.read_text())["traceEvents"]


def parse_metrics(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name = key.split("{")[0]
        try:
            values[name] = values.get(name, 0.0) + float(value)
        except ValueError:
            pass
    return values


def stage_breakdown(rows, prefix):
    """Per-request accounting of traced ingests and queries from the
    server's spans. Each ingest's stages: frame_decode, queue_wait, its apply
    pass's self time, that pass's wal_commit and snapshot_publish, and
    reply_encode; what the client waited beyond them is unattributed
    (socket, session, ticket wake-up and generator lateness)."""
    by_id = {}
    for name in ("frame_decode", "queue_wait", "reply_encode", "ingest",
                 "query"):
        for ev in load_spans(prefix, name):
            tid = ev["args"].get("trace_id")
            if tid:
                by_id.setdefault(tid, {})[name] = ev
    passes = sorted(load_spans(prefix, "apply_pass"), key=lambda e: e["ts"])
    commits = sorted(load_spans(prefix, "wal_commit"), key=lambda e: e["ts"])
    publishes = sorted(load_spans(prefix, "snapshot_publish"),
                       key=lambda e: e["ts"])
    starts = [p["ts"] for p in passes]

    def nested(spans, p):
        lo, hi = p["ts"], p["ts"] + p["dur"]
        return sum(e["dur"] for e in spans
                   if e["ts"] >= lo - 1 and e["ts"] + e["dur"] <= hi + 1)

    pass_parts = {}
    stages = {k: [] for k in ("frame_decode", "queue_wait", "apply_pass",
                              "wal_commit", "snapshot_publish",
                              "reply_encode", "unattributed", "client")}
    q_dispatch, q_unattr = [], []
    for r in rows:
        spans = by_id.get(r["trace_id"])
        if r["status"] != 0 or r["done"] <= 0 or not spans:
            continue
        client_us = (r["done"] - r["scheduled"]) * 1e6
        decode = spans.get("frame_decode", {}).get("dur", 0.0)
        encode = spans.get("reply_encode", {}).get("dur", 0.0)
        if r["kind"] != INGEST:
            root = spans.get("query", {}).get("dur", 0.0)
            q_dispatch.append(root)
            q_unattr.append(client_us - decode - root - encode)
            continue
        qw = spans.get("queue_wait")
        if qw is None:
            continue
        i = bisect.bisect_right(starts, qw["ts"] + qw["dur"]) - 1
        if i < 0:
            continue
        p = passes[i]
        if i not in pass_parts:
            pass_parts[i] = (nested(commits, p), nested(publishes, p))
        wal, pub = pass_parts[i]
        apply_self = p["dur"] - wal - pub
        parts = {"frame_decode": decode, "queue_wait": qw["dur"],
                 "apply_pass": apply_self, "wal_commit": wal,
                 "snapshot_publish": pub, "reply_encode": encode}
        for k, v in parts.items():
            stages[k].append(v)
        stages["unattributed"].append(client_us - sum(parts.values()))
        stages["client"].append(client_us)
    med = {k: quantile(v, 0.5) for k, v in stages.items()}
    parts_sum = sum(med[k] for k in stages if k != "client")
    return {
        "service.frame_decode_us": med["frame_decode"],
        "service.queue_wait_us": med["queue_wait"],
        "service.apply_pass_us": med["apply_pass"],
        "service.snapshot_publish_us": med["snapshot_publish"],
        "service.reply_encode_us": med["reply_encode"],
        "service.unattributed_us": med["unattributed"],
        "service.closure_gap_pct": 100.0 * (parts_sum - med["client"]) /
        med["client"] if med["client"] else 0.0,
        "service.query_dispatch_us": quantile(q_dispatch, 0.5),
        "service.query_unattributed_us": quantile(q_unattr, 0.5),
        "storage.wal_commit_p50_us": quantile([c["dur"] for c in commits],
                                              0.5),
        "storage.wal_commit_p99_us": quantile([c["dur"] for c in commits],
                                              0.99),
        "_accounted_ingests": len(stages["client"]),
        "_client_p50_us": med["client"],
        "_wal_commit_in_pass_p50_us": med["wal_commit"],
    }


def traced_run(cfg, seed, run_dir, seconds, plant):
    m, problems = {}, []
    batch_file = run_dir / "batch.bin"
    s = cfg["stream"]
    # Batch layers: each timed around a public call in a helper process.
    with Timed("layers", tid=1):
        layers = run_tool(tool(
            "layers", f"--input={batch_file}", f"--eps={cfg['eps']}",
            f"--min-pts={cfg['min_pts']}",
            f"--stripe-points={cfg['stripe_points']}"), timeout=150)
    isa = layers.pop("simd.isa")
    layers.pop("hits")
    m.update(layers)
    extra = []
    for rep in range(3):
        with Timed("shared first/second call", tid=1, rep=rep):
            r = run_tool(tool("shared2", f"--input={batch_file}",
                                    f"--eps={cfg['eps']}",
                                    f"--min-pts={cfg['min_pts']}"))
        extra.append(r["first_s"] - r["second_s"])
    m["core.shared_first_call_extra_s"] = statistics.median(extra)
    # One round of the four engines, for the batch correctness check.
    _, _, failed, p = batch_round(cfg, batch_file, run_dir, plant, 0)
    problems += p

    # Stream: one load on a server of its own, every other request stamped
    # with a trace id; then the server's own accounting, kill -9, restart
    # and verify.
    server, data_dir, acks = start_preloaded(cfg, run_dir, "data",
                                             trace_spans=1 << 20)
    prefix = str(run_dir / "fetch_")
    try:
        _, rows = load(cfg, server, run_dir, seconds, seed, True,
                       s["preload"], s["preload"], "traced")
        with Timed("fetch", tid=3):
            fetched = run_tool(tool("fetch", f"--port={server.port}",
                                          f"--out-prefix={prefix}"))
    finally:
        server.kill()
    append_acks(rows, acks)
    stamped = latency_stats([r for r in rows if r["trace_id"] != "0" * 16],
                            warmup_seconds(cfg))
    plain = latency_stats([r for r in rows if r["trace_id"] == "0" * 16],
                          warmup_seconds(cfg))
    m["obs.trace_overhead_pct"] = 100.0 * (
        stamped["ingest_p50_ms"] - plain["ingest_p50_ms"]) / \
        plain["ingest_p50_ms"]
    breakdown = stage_breakdown(
        [r for r in rows if r["scheduled"] >= warmup_seconds(cfg)], prefix)
    m.update({k: v for k, v in breakdown.items() if not k.startswith("_")})
    metrics = parse_metrics(prefix + "metrics.txt")
    passes = metrics.get("dbscout_apply_batch_size_count", 0.0)
    points = metrics.get("dbscout_ingest_points_total", 0.0)
    m["service.batches_per_pass"] = \
        metrics.get("dbscout_apply_batch_size_sum", 0.0) / passes \
        if passes else 0.0
    m["service.shed"] = metrics.get("dbscout_ingest_shed_total", 0.0)
    m["storage.fsyncs_per_pass"] = \
        metrics.get("dbscout_wal_fsync_total", 0.0) / passes if passes else 0.0
    m["storage.compactions"] = metrics.get(
        "dbscout_snapshot_compactions_total", 0.0)
    m["storage.wal_bytes_per_pt"] = \
        metrics.get("dbscout_wal_bytes_total", 0.0) / points if points else 0.0
    m["storage.snapshot_bytes"] = metrics.get("dbscout_snapshot_bytes", 0.0)
    # CollectionStore::Open on copies of the killed server's directory.
    opens = []
    for rep in range(3):
        copy = run_dir / f"open_copy_{rep}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(data_dir, copy)
        for coll in sorted(p for p in copy.iterdir() if p.is_dir()):
            with Timed("CollectionStore::Open", tid=3, rep=rep):
                r = run_tool(tool("store-open", f"--dir={coll}"))
            opens.append(r["storage.open_s"])
        shutil.rmtree(copy, ignore_errors=True)
    m["storage.open_s"] = statistics.median(opens)
    recovery, result, _ = restart_cycle(cfg, data_dir, run_dir, acks, plant,
                                        restarts=1, trace_spans=1 << 20)
    m["recovery_s"] = recovery[0]
    if not result["ok"]:
        problems.append("stream: " + result["problem"])
    # The stream's exact batches through the incremental API in-process.
    with Timed("replay", tid=3):
        replay = run_tool(tool(
            "replay", f"--stream={run_dir / 'stream.bin'}", f"--acks={acks}",
            f"--window-begin={result['window_begin']}", f"--eps={s['eps']}",
            f"--min-pts={s['min_pts']}", f"--seed={seed}"), timeout=150)
    replay.pop("replayed_points")
    m.update(replay)
    failed += sum(1 for r in rows if r["status"] != 0 or r["done"] <= 0)
    attempted = 4 + len(rows)
    m["error_rate"] = failed / attempted
    lateness = latency_stats(rows, warmup_seconds(cfg))["late"]
    m["load.late_p99_us"] = lateness["p99"]
    m["ingest_p99_ms"] = plain["ingest_p99_ms"]
    m["query_p99_us"] = plain["query_p99_us"]
    details = {"breakdown": breakdown, "fetch": fetched,
               "stamped": stamped, "plain": plain}
    return m, problems, attempted, failed, isa, lateness, details


# ---------------------------------------------------------------------------
# Modes


def simd_isa():
    r = run_tool(tool("isa"))
    return r["isa"]


def benchmark(args):
    cfg = WORKLOADS[args.workload]
    if args.small:
        cfg = dict(cfg, n=min(cfg["n"], 200_000))
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    stream_seconds = args.seconds * 0.5
    setup_s = setup(cfg, args.seed, run_dir, stream_seconds)
    # Write back the set-up's files now, so that their writeback does not
    # land inside the measured batch rounds.
    os.sync()
    if args.trace:
        m, problems, attempted, failed, isa, lateness, details = traced_run(
            cfg, args.seed, run_dir, stream_seconds, args.plant)
        write_chrome_trace(run_dir)
    else:
        walls, rss, attempted, failed, problems = batch_half(
            cfg, run_dir / "batch.bin", run_dir, args.seconds * 0.45,
            args.plant, min_rounds=1 if args.small else 3)
        stats, p = stream_half(cfg, args.seed, run_dir, stream_seconds,
                               args.plant)
        problems += p
        attempted += stats["attempted"]
        failed += stats["failed"]
        m = {"setup_s": setup_s, "rss_mb": max(rss, stats["rss_mb"]),
             "seq_s": walls["sequential"], "shared_s": walls["shared"],
             "dataflow_s": walls["parallel"], "external_s": walls["external"]}
        for k in ("ingest_p50_ms", "query_p50_us", "disk_bytes_per_pt"):
            m[k] = stats[k]
        # Too noisy on a shared 4-vCPU host to gate (README); printed here,
        # and reported by the traced run.
        for k in ("ingest_p99_ms", "query_p99_us", "recovery_s"):
            print(f"{k + ' (not gated)':34s} {stats[k]:16.6g} {UNITS[k]}")
        isa, lateness, details = simd_isa(), stats["late"], stats
    env = environment(run_dir, isa, lateness)
    correct = not problems
    for p in problems:
        log("CHECK FAILED: " + p)
    print("environment: " + json.dumps(env))
    for name, value in m.items():
        print(f"{name:34s} {value:16.6g} {UNITS[name]}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "metrics": m,
              "problems": problems, "error_rate": failed / max(attempted, 1),
              "details": details}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1,
                                                    default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in m.items()},
    }))
    return 0 if correct else 1


def write_chrome_trace(run_dir):
    """The benchmark's spans (pid 0 and 1) plus the server's (pid 2) in one
    Chrome trace. Server timestamps are on the server's clock, shifted by
    the median gap between client send and server decode."""
    events = list(TRACER.events)
    prefix = str(run_dir / "fetch_")
    shift = []
    client = {e["args"]["trace_id"]: e for e in TRACER.events
              if e.get("pid") == 1 and e["args"].get("trace_id", "0" * 16)
              != "0" * 16}
    server = []
    for name in ("frame_decode", "queue_wait", "apply_pass", "wal_commit",
                 "snapshot_publish", "reply_encode", "ingest", "query"):
        for ev in load_spans(prefix, name):
            ev = dict(ev, pid=2)
            server.append(ev)
            c = client.get(ev["args"].get("trace_id"))
            if c is not None and name == "frame_decode":
                shift.append(c["ts"] - ev["ts"])
    delta = statistics.median(shift) if shift else 0.0
    for ev in server:
        ev["ts"] += delta
    events += server
    (run_dir / "trace.json").write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}))


def digest(args):
    cfg = WORKLOADS[args.workload]
    run_dir = RUNS / f"digest-{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    files = make_inputs(cfg, args.seed, run_dir, args.seconds / 2)
    out = {"workload": args.workload, "seed": args.seed,
           "stream_config": cfg["stream"]}
    for f in files:
        out[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def sweep(args):
    """Stream half alone at increasing offered rates. The knee is the first
    rate whose ingest p99 exceeds 5x the lowest rate's, whose latency grows
    through the run (backlog ratio > 2), or that fails requests."""
    cfg = WORKLOADS[args.workload]
    run_dir = RUNS / f"sweep-{args.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    rates = [int(r) for r in args.rates.split(",")]
    seconds = args.seconds
    top = dict(cfg, stream=dict(cfg["stream"], ingest_rate=max(rates)))
    make_inputs(top, args.seed, run_dir, seconds)
    table, knee, base = [], None, None
    for rate in rates:
        server, data_dir, acks = start_preloaded(cfg, run_dir, "data")
        try:
            _, rows = load(cfg, server, run_dir, seconds, args.seed, False,
                           cfg["stream"]["preload"], cfg["stream"]["preload"],
                           f"r{rate}", ingest_rate=rate)
        finally:
            server.kill()
        st = latency_stats(rows, warmup_seconds(cfg))
        base = base or st["ingest_p99_ms"]
        row = {"ingest_rate": rate, "ingest_p50_ms": st["ingest_p50_ms"],
               "ingest_p99_ms": st["ingest_p99_ms"],
               "query_p99_us": st["query_p99_us"], "failed": st["failed"],
               "backlog_ratio": st["backlog_ratio"],
               "late_p99_us": st["late"]["p99"]}
        table.append(row)
        print(json.dumps(row), flush=True)
        if knee is None and (st["ingest_p99_ms"] > 5 * base or
                             st["backlog_ratio"] > 2 or st["failed"]):
            knee = rate
    result = {"workload": args.workload, "seconds": seconds, "rows": table,
              "query_rate": cfg["stream"]["query_rate"],
              "knee_ingest_rate": knee}
    (run_dir / "sweep.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


def self_test(args):
    """Runs the workload small, once clean and once per planted wrong
    answer; each planted run must fail its check and exit nonzero."""
    expected = {None: 0, "batch": 1, "label": 1, "ack": 1}
    ok = True
    for plant, want in expected.items():
        cmd = [sys.executable, str(Path(__file__)), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "4",
               "--trace", "0", "--small"]
        if plant:
            cmd += ["--plant", plant]
        code = subprocess.call(cmd, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, cwd=ROOT)
        good = (code != 0) == bool(want)
        ok &= good
        print(f"plant={plant or 'none':6s} exit={code} "
              f"{'as expected' if good else 'UNEXPECTED'}")
    print(json.dumps({"self_test_passed": ok}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="osm2d",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--plant", choices=("batch", "label", "ack"))
    parser.add_argument("--small", action="store_true",
                        help="small batch input (self-test)")
    parser.add_argument("--digest", action="store_true")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--rates", default="25,50,100,150,200,300,400",
                        help="ingest requests/s for --sweep")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    RUNS.mkdir(exist_ok=True)
    build()
    try:
        if args.digest:
            return digest(args)
        if args.sweep:
            return sweep(args)
        if args.self_test:
            return self_test(args)
        return benchmark(args)
    finally:
        for server in list(LIVE_SERVERS):
            server.kill()


ENV = dict(os.environ, TMPDIR=str(RUNS))

if __name__ == "__main__":
    sys.exit(main())
