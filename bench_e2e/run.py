#!/usr/bin/env python3
"""Builds dmis_bench from the checkout's sources and runs the end-to-end benchmark.

One run (the form BENCHMARK.json's command takes):
  python3 bench_e2e/run.py --workload train_fullvol --seed 1 --seconds 20 --trace 0

Several seeds, each in a fresh process, with the spread of every metric:
  python3 bench_e2e/run.py --workload train_fullvol,sweep --seeds 1-10 --out set.json

Two such sets (for example the parent commit and a change) side by side,
judged against the bounds in BENCHMARK.json:
  python3 bench_e2e/run.py --compare base.json change.json

Every workload at toy size, untraced and traced (a functional check):
  python3 bench_e2e/run.py --smoke

The build goes to .bench_build/ (or $CARGO_TARGET_DIR) under the checkout
root; build output goes to stderr, so the last stdout line of a run is the
benchmark's result.
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_e2e")
WORKLOADS = ["train_fullvol", "train_widepatch", "sweep", "serve_mixed"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds dmis_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to bench_e2e/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "--target", "dmis_bench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    return os.path.join(out, "dmis_bench")


@functools.lru_cache(maxsize=None)
def git_sha():
    # The ceiling keeps git from adopting a repository that merely
    # encloses this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def bench_args(binary, workload, seed, seconds, trace, extra=()):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", build_dir(), "--git-sha", git_sha(), *extra]


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, host context, result).

    The context and result are the first and last stdout lines, parsed
    (None when absent or malformed)."""
    res = subprocess.run(bench_args(binary, workload, seed, seconds, trace, extra),
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines() or [""]
    parsed = []
    for line in (lines[0], lines[-1]):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(None)
    context = parsed[0].get("context") if parsed[0] else None
    return res.returncode, context, parsed[1]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(runs):
    """Per workload and metric: the values over seeds and their spread."""
    table = {}
    for run in runs:
        metrics = table.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, {"unit": m["unit"], "values": []})
            metrics[name]["values"].append(m["value"])
    for metrics in table.values():
        for m in metrics.values():
            med, q1, q3, iqr = spread(m["values"])
            m.update(median=med, q1=q1, q3=q3, iqr_share=iqr)
    return table


def run_seeds(args):
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else args.workload.split(",")
    seeds = parse_seeds(args.seeds)
    runs = []
    host = None
    ok = True
    for workload in workloads:
        for seed in seeds:
            rc, context, result = run_once(binary, workload, seed, args.seconds,
                                           args.trace)
            if rc != 0 or result is None or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {rc})", file=sys.stderr)
                ok = False
                continue
            host = host or {k: v for k, v in context.items()
                            if k not in ("workload", "seed")}
            runs.append({"workload": workload, "seed": seed, "result": result})
            print(f"{workload} seed {seed}: ok", file=sys.stderr)
    table = summarize(runs)
    for workload, metrics in table.items():
        count = len(next(iter(metrics.values()))["values"])
        print(f"\n{workload} ({count} seeds)")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
        for name, m in metrics.items():
            print(f"  {name:32} {m['median']:12.5g} {m['q1']:12.5g} "
                  f"{m['q3']:12.5g} {m['iqr_share']:8.2%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "host": host, "summary": table}, f,
                      indent=1)
    return 0 if ok else 1


def compare(base_path, change_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    with open(base_path) as f:
        base = json.load(f)["summary"]
    with open(change_path) as f:
        change = json.load(f)["summary"]
    worse = 0
    print(f"{'workload':16} {'metric':30} {'base':>11} {'change':>11} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for workload in base:
        for name, b in base[workload].items():
            c = change.get(workload, {}).get(name)
            m = metric_spec.get(name)
            if c is None or m is None:
                continue
            delta = (c["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            bound = m.get("bound")
            loss = delta if m["better"] == "lower" else -delta
            if bound is None:
                verdict = ""
            elif loss > bound:
                verdict, worse = "WORSE", worse + 1
            elif max(b["iqr_share"], c["iqr_share"]) > bound:
                verdict = "unresolved (spread > bound)"
            else:
                verdict = "ok"
            print(f"{workload:16} {name:30} {b['median']:11.5g} {c['median']:11.5g} "
                  f"{delta:+8.2%} {'' if bound is None else format(bound, '.0%'):>6}  {verdict}")
    return 1 if worse else 0


def smoke():
    binary = build()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, _, result = run_once(binary, workload, 1, 1, trace, ["--smoke"])
            good = rc == 0 and result is not None and result["correct"]
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}",
                  file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload, or a comma list / 'all' with --seeds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="seed list such as 1,2,3 or 1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --seeds: write every run and the summary here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--allow-debug", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.seeds:
        return run_seeds(args)
    binary = build()
    extra = ["--allow-debug"] if args.allow_debug else []
    argv = bench_args(binary, args.workload, args.seed, args.seconds, args.trace, extra)
    return subprocess.run(argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
