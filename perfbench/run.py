#!/usr/bin/env python3
"""Build the benchmark and run it pinned to one CPU.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload serve-hot --seed 7 --seconds 20 --trace 0

builds `perfbench` from source (release, offline, into $CARGO_TARGET_DIR,
default `.bench_build`), runs it for one workload pinned to the highest
CPU this process may use, and passes its output through: `# ` diagnostic
lines, then one JSON line. It exits non-zero, printing no result, when
the build or the run fails.

Repeat mode interleaves workloads across runs and summarises them:

    python3 perfbench/run.py --repeat 10 [--sets 2] [--trace]

Round i runs every workload once per set with seed `--seed + i`, rotating
the workload order each round and alternating which set goes first. For
each workload and metric it prints the median, quartiles, min and max,
and the spread (interquartile range over median). With `--sets 2` it also
prints how far set B's median is from set A's, against the metric's bound
in BENCHMARK.json, and checks that runs of one seed gave one answer
digest. With `--trace` each round makes an untraced and a traced run and
the summary adds the tracing overhead (traced minus untraced end-to-end
medians).
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# A run normally ends well within this; a hung one is killed and fails.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark; returns the binary's path or exits 1."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("run.py: the repository's crates are missing; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {done.returncode}")
    return os.path.join(target_dir(), "release", "perfbench")


def pinned_cpu():
    return max(os.sched_getaffinity(0))


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload pinned to one CPU; returns (exit code, stdout)."""
    cpu = pinned_cpu()
    scratch = os.path.join(target_dir(), "perfbench-scratch")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", scratch]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def traced_e2e(stdout):
    """The end-to-end numbers a traced run prints on its diagnostic line."""
    m = re.search(r"e2e \(traced\)[^:\n]*:.*throughput_ops_s=([\d.]+).*p50_us=([\d.]+) p90_us=([\d.]+)", stdout)
    if not m:
        return {}
    return {"throughput_ops_s": float(m[1]), "latency_p50_us": float(m[2]),
            "latency_p90_us": float(m[3])}


def digest_of(stdout):
    m = re.search(r"answer_digest=([0-9a-f]+)", stdout)
    return m[1] if m else None


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, values[0], values[-1], spread


def repeat(args, binary, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    sets = "AB"[: args.sets]
    # values[(set, workload, metric)] -> [values]; digests[(workload, seed)] -> {digest}
    values, digests, traced = {}, {}, {}
    failures = 0
    for i in range(args.repeat):
        seed = args.seed + i
        order = names[i % len(names):] + names[: i % len(names)]
        for w in order:
            for s in (sets if i % 2 == 0 else sets[::-1]):
                for trace in ([0, 1] if args.trace else [0]):
                    code, out = run_once(binary, w, seed, args.seconds, trace)
                    res = result_of(out) if code == 0 else None
                    if not res or not res["correct"]:
                        failures += 1
                        print(f"run.py: {w} seed {seed} set {s} trace {trace} failed", file=sys.stderr)
                        continue
                    digests.setdefault((w, seed), set()).add(digest_of(out))
                    for name, m in res["metrics"].items():
                        values.setdefault((s, w, name), []).append(m["value"])
                    if trace:
                        for name, v in traced_e2e(out).items():
                            traced.setdefault((s, w, name), []).append(v)
                    print(f"# done {w} seed={seed} set={s} trace={trace}", file=sys.stderr, flush=True)

    print(f"{'workload':14} {'metric':30} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    for w in names:
        metrics = sorted({k[2] for k in values if k[1] == w},
                         key=lambda n: (n not in bounds, n))
        for name in metrics:
            for s in sets:
                vals = values.get((s, w, name))
                if not vals:
                    continue
                med, q1, q3, lo, hi, spread = summary(vals)
                bound = bounds.get(name)
                flag = "" if bound is None or spread <= bound else "  SPREAD>BOUND"
                print(f"{w:14} {name:30} {s:3} {med:12.4f} {q1:12.4f} {q3:12.4f} {lo:12.4f} "
                      f"{hi:12.4f} {spread:7.3f} {bound if bound is not None else '-':>6}{flag}")
            if len(sets) == 2 and (("A", w, name) in values) and (("B", w, name) in values):
                a = statistics.median(values[("A", w, name)])
                b = statistics.median(values[("B", w, name)])
                worse = (b - a) / a if better.get(name) == "lower" else (a - b) / a
                bound = bounds.get(name)
                verdict = "" if bound is None else ("  ok" if worse <= bound else "  WORSE>BOUND")
                print(f"{w:14} {name:30} B vs A: {worse:+.4f} worse{verdict}")
    if args.trace:
        print("tracing overhead (traced minus untraced median, end-to-end):")
        for w in names:
            for name in ("throughput_ops_s", "latency_p50_us", "latency_p90_us"):
                un = values.get(("A", w, name))
                tr = traced.get(("A", w, name))
                if un and tr:
                    a, b = statistics.median(un), statistics.median(tr)
                    print(f"  {w:14} {name:18} untraced {a:12.3f} traced {b:12.3f} "
                          f"overhead {b - a:+12.3f} ({(b - a) / a:+.2%})")
    split = {k: v for k, v in digests.items() if len(v) > 1}
    print(f"answer digests: {len(digests)} (workload, seed) pairs, "
          f"{'all runs of a seed agree' if not split else f'{len(split)} disagree: {split}'}")
    print(f"failed runs: {failures}")
    return 1 if failures or split else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = p.parse_args()
    args.trace = int(args.trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()
    if args.repeat:
        return repeat(args, binary, spec)
    if not args.workload:
        p.error("--workload is required outside --repeat")
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    shutil.rmtree(os.path.join(target_dir(), "perfbench-scratch"), ignore_errors=True)
    if code != 0 or result_of(out) is None:
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
