#!/usr/bin/env python3
"""Bench regression gate: perfbench medians against BENCH_perfbench.json.

    tools/bench_gate.sh [build-dir]           run, compare, exit 1 on a regression
    tools/bench_gate.sh --record [build-dir]  run, rewrite BENCH_perfbench.json
    python3 tools/bench_gate.py --self-test   the comparison on planted results

The gate runs BENCHMARK.json's command (perfbench/run.py) untraced for
BENCHMARK.json's run_seconds, once per seed in SEEDS for every workload,
and compares each workload's median of every end-to-end metric with the
committed median. A metric fails when it is worse than the committed
median by more than its BENCHMARK.json bound in its `better` direction,
when it is *better* by more than that bound ("stale baseline: re-record":
a gain the baseline does not hold would let a later regression back to
the old level pass), or when the fresh runs or the committed file lack
it. A workload fails
when any run reports "correct": false or when its failed/attempted share
is above the committed one. bench_kernels, built in build-dir (default
`build`), is gated as well: it runs KERNEL_RUNS times, and the median of
every dispatched micro-kernel throughput and of the phase 3+5 speedup
may fall at most KERNEL_TOLERANCE below BENCH_kernels.json.

Medians of five runs, because one run on a shared host moves by 5-20%
(perfbench/README.md). Run on an otherwise idle machine: a concurrent
compile alone can cost 2x.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_perfbench.json"
SEEDS = (1, 2, 3, 4, 5)
# Single bench_kernels runs spread by about +-20% on a shared 4-vCPU host,
# so each row is gated on the median of several runs, like perfbench.
KERNEL_RUNS = 5
KERNEL_TOLERANCE = 0.10


def summarize(runs):
    """Median and quartiles of every metric all of one workload's runs
    report, plus the summed attempted and failed operation counts."""
    names = (set.intersection(*(set(r["metrics"]) for r in runs))
             if runs else ())
    metrics = {}
    for name in sorted(names):
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else values * 3)
        metrics[name] = {"median": median, "q1": q1, "q3": q3}
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def kernel_rows(doc):
    rows = {f"micro[{r['kernel']}/d{r['dims']}].dispatched_mpts":
            r["dispatched_mpts"] for r in doc.get("micro", [])}
    rows["end_to_end.phase35_speedup"] = doc.get(
        "end_to_end", {}).get("phase35_speedup")
    return rows


def kernel_medians(docs):
    """Each row's median over the bench_kernels runs that report it."""
    values = {}
    for doc in docs:
        for check, value in kernel_rows(doc).items():
            if value is not None:
                values.setdefault(check, []).append(value)
    return {check: statistics.median(v) for check, v in values.items()}


def compare(spec, baseline, fresh, kernels_old, kernels_runs):
    """One (verdict, check, committed, fresh, change) row per gated check.
    `fresh` maps each workload to its runs: {"correct", "attempted",
    "failed", "metrics": {name: value}}; `kernels_runs` is the list of
    fresh bench_kernels results."""
    rows = []

    def add(ok, check, old, new, change=""):
        rows.append(("PASS" if ok else "FAIL", check, old, new, change))

    def spread(q):
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"

    for workload in (w["name"] for w in spec["workloads"]):
        runs = fresh.get(workload, [])
        old = baseline.get("workloads", {}).get(workload)
        new = summarize(runs)
        correct = sum(1 for r in runs if r["correct"])
        add(runs and correct == len(runs), f"{workload}.correct", "all runs",
            f"{correct}/{len(runs)} runs")
        if old is None:
            add(False, f"{workload}.failed_share", "missing", "-")
        else:
            old_share = old["failed"] / max(old["attempted"], 1)
            new_share = new["failed"] / max(new["attempted"], 1)
            add(new_share <= old_share, f"{workload}.failed_share",
                f"{old['failed']}/{old['attempted']}",
                f"{new['failed']}/{new['attempted']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            o = (old or {}).get("metrics", {}).get(name)
            n = new["metrics"].get(name)
            if o is None or n is None:
                add(False, f"{workload}.{name}",
                    "missing" if o is None else spread(o),
                    "missing" if n is None else spread(n))
                continue
            change = n["median"] / o["median"] - 1
            worse = change if metric["better"] == "lower" else -change
            note = f"{change:+.1%} (bound {metric['bound']:.0%})"
            if -worse > metric["bound"]:
                note += " stale baseline: re-record"
            add(abs(worse) <= metric["bound"], f"{workload}.{name}",
                spread(o), spread(n), note)

    new_kernels = kernel_medians(kernels_runs)
    for check, o in kernel_rows(kernels_old).items():
        n = new_kernels.get(check)
        if o is None or n is None:
            add(False, f"kernels.{check}", str(o), str(n))
            continue
        add(n >= o * (1 - KERNEL_TOLERANCE), f"kernels.{check}", f"{o:.4g}",
            f"{n:.4g}", f"{n / o - 1:+.1%} (bound {KERNEL_TOLERANCE:.0%})")
    return rows


def run_perfbench(spec, workload, seed):
    """One untraced perfbench run: (result, environment). perfbench's
    progress goes to stderr and passes through."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    print(f"==> {' '.join(cmd)}", flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result, env = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("environment: "):
            env = json.loads(line[len("environment: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        sys.exit(f"bench_gate: {workload} seed {seed} printed no result "
                 f"(exit code {proc.returncode})")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}
            }, env


def build_kernels(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-B", str(build_dir), "-S", str(ROOT)],
                       check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1), "--target", "bench_kernels"],
                   check=True)
    return build_dir / "bench" / "bench_kernels"


def kernels_results(binary):
    # bench_kernels writes BENCH_kernels.json into its working directory;
    # a temporary one keeps the committed file intact.
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(KERNEL_RUNS):
            print(f"==> {binary} ({run + 1}/{KERNEL_RUNS})", flush=True)
            subprocess.run([str(binary)], cwd=tmp, check=True,
                           stdout=subprocess.DEVNULL)
            docs.append(
                json.loads((Path(tmp) / "BENCH_kernels.json").read_text()))
    return docs


def write_baseline(spec, fresh, env):
    lines = ["{",
             f'  "command": {json.dumps(spec["command"])},',
             f'  "run_seconds": {spec["run_seconds"]},',
             f'  "seeds": {json.dumps(list(SEEDS))},',
             f'  "environment": {json.dumps(env)},',
             '  "workloads": {']
    for i, (workload, runs) in enumerate(fresh.items()):
        s = summarize(runs)
        lines.append(f'    "{workload}": {{"attempted": {s["attempted"]}, '
                     f'"failed": {s["failed"]}, "metrics": {{')
        metrics = [f'      "{name}": ' + json.dumps(
            {k: float(f"{v:.4g}") for k, v in q.items()})
            for name, q in s["metrics"].items()]
        lines.append(",\n".join(metrics))
        lines.append("    }}" + ("," if i + 1 < len(fresh) else ""))
    lines += ["  }", "}"]
    BASELINE.write_text("\n".join(lines) + "\n")


def self_test():
    """Plants each kind of regression, and a stale baseline, into fresh
    results and expects the comparison to fail on it, and to pass an
    in-bound result. A case whose expectation is a string must fail with
    that string in a failing row."""
    spec = {"workloads": [{"name": "w"}], "end_to_end": [
        {"name": "seq_s", "better": "lower", "bound": 0.2},
        {"name": "mpts", "better": "higher", "bound": 0.1}]}

    def runs(seq_s=1.0, mpts=100.0, drop=None, incorrect=0, failed=0):
        out = []
        for i in range(len(SEEDS)):
            metrics = {"seq_s": seq_s + 0.01 * i, "mpts": mpts - 0.5 * i}
            metrics.pop(drop, None)
            out.append({"correct": i >= incorrect, "attempted": 1000,
                        "failed": failed if i == 0 else 0,
                        "metrics": metrics})
        return {"w": out}

    def kernels(mpts=500.0):
        return {"micro": [] if mpts is None else
                [{"kernel": "count_within", "dims": 2,
                  "dispatched_mpts": mpts}],
                "end_to_end": {"phase35_speedup": 1.5}}

    def kernel_runs(*mpts):
        """One bench_kernels result per throughput; 500 by default."""
        return [kernels(m) for m in (mpts or (500.0,) * KERNEL_RUNS)]

    baseline = {"workloads": {"w": summarize(runs()["w"])}}
    cases = [
        ("in bound", runs(seq_s=1.15, mpts=95.0), kernel_runs(*[460.0] * 5),
         True),
        ("lower-better median past its bound", runs(seq_s=1.3),
         kernel_runs(), False),
        ("higher-better median past its bound", runs(mpts=85.0),
         kernel_runs(), False),
        ("faster within its bound", runs(seq_s=0.85, mpts=105.0),
         kernel_runs(), True),
        ("lower-better median beats its bound", runs(seq_s=0.7),
         kernel_runs(), "stale baseline: re-record"),
        ("higher-better median beats its bound", runs(mpts=120.0),
         kernel_runs(), "stale baseline: re-record"),
        ("metric missing from the fresh runs", runs(drop="mpts"),
         kernel_runs(), False),
        ("a run with correct: false", runs(incorrect=1), kernel_runs(),
         False),
        ("higher failed share", runs(failed=1), kernel_runs(), False),
        ("no runs of a workload", {}, kernel_runs(), False),
        ("one slow kernel run out of five", runs(),
         kernel_runs(300.0, 500.0, 505.0, 495.0, 510.0), True),
        ("slow kernel median", runs(),
         kernel_runs(440.0, 430.0, 600.0, 445.0, 600.0), False),
        ("kernel row missing", runs(), kernel_runs(*[None] * 5), False),
    ]
    bad = 0
    for label, fresh, kernels_new, want in cases:
        rows = compare(spec, baseline, fresh, kernels(), kernels_new)
        passed = all(r[0] == "PASS" for r in rows)
        ok = passed == (want is True)
        if isinstance(want, str):
            ok = ok and any(want in r[4] for r in rows if r[0] == "FAIL")
        bad += not ok
        print(f"  {'ok  ' if ok else 'BAD '} {label}: gate "
              f"{'passed' if passed else 'failed'}")
    print("bench_gate self-test: " + ("PASS" if bad == 0 else f"{bad} FAILED"))
    return 1 if bad else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir", nargs="?", default="build",
                        help="build tree for bench_kernels (default: build)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite BENCH_perfbench.json from fresh runs")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison on planted results")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.record and not BASELINE.exists():
        sys.exit(f"bench_gate: no {BASELINE.name}; record one with --record")
    # Build before measuring: a compile beside a run skews it.
    kernels_bin = None if args.record else build_kernels(ROOT / args.build_dir)
    fresh, env = {}, None
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            result, run_env = run_perfbench(spec, workload, seed)
            fresh.setdefault(workload, []).append(result)
            env = env or run_env
    print("environment: " + json.dumps(env))

    if args.record:
        wrong = [w for w, rs in fresh.items() if not all(r["correct"]
                                                        for r in rs)]
        if wrong:
            print(f"bench_gate: not recording, incorrect runs in {wrong}")
            return 1
        write_baseline(spec, fresh, env)
        print(f"bench_gate: wrote {BASELINE.name}")
        return 0

    rows = compare(spec, json.loads(BASELINE.read_text()), fresh,
                   json.loads((ROOT / "BENCH_kernels.json").read_text()),
                   kernels_results(kernels_bin))
    width = max(len(r[1]) for r in rows)
    print(f"  {'':4}  {'check':<{width}}  {'committed':<28}  {'fresh':<28}"
          "  change")
    for verdict, check, old, new, change in rows:
        print(f"  {verdict}  {check:<{width}}  {old:<28}  {new:<28}  {change}")
    failures = sum(r[0] == "FAIL" for r in rows)
    print(f"bench_gate: {failures} of {len(rows)} checks failed" if failures
          else f"bench_gate: all {len(rows)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
