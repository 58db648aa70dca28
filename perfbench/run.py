#!/usr/bin/env python3
"""Repository benchmark: build the system under test from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload plain-open --seed 1 --seconds 20 --trace 0

builds `hqd`, `hqrouter` and the `perfbench` binary (into $CARGO_TARGET_DIR,
default `.bench_build`), runs the workload, and prints the result as the last
line of stdout. Each result is also saved with its full config under
`perfbench/out/results/`.

    python3 perfbench/run.py compare BASE_GLOB HEAD_GLOB

compares two sets of saved results metric by metric against the bounds in
BENCHMARK.json, and refuses when their configs differ in anything but the seed
and the commit.

    python3 perfbench/run.py spread GLOB

prints, per workload and metric, the median and the interquartile range as a
share of the median over a set of saved results.
"""

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(BENCH_DIR, "out")
RESULTS_DIR = os.path.join(OUT_DIR, "results")
WORKLOADS = ("dedup-batch", "plain-open", "durable-routed")
RUN_TIMEOUT_S = 170
# Config keys that identify a run rather than its setup.
IDENTITY_KEYS = ("seed", "commit", "source_digest")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the source files the benchmark builds, in path order."""
    h = hashlib.sha256()
    paths = []
    for pattern in ("Cargo.toml", "Cargo.lock", "src/**/*.rs", "crates/**/*.rs",
                    "crates/**/Cargo.toml", "vendor/**/*.rs", "vendor/**/Cargo.toml",
                    "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src/*.rs"):
        paths.extend(glob.glob(os.path.join(ROOT, pattern), recursive=True))
    for path in sorted(set(paths)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(target):
    """Builds the daemons and the benchmark; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bin", "hqd.rs")):
        fail("no repository sources here (src/bin/hqd.rs is missing); nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "hqd", "--bin", "hqrouter"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}", 1)


def kill_group(proc):
    """Kills `proc` and every process of its group, and waits until none is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    binary = os.path.join(target, "release")
    commit = commit_id()
    digest = source_digest()
    cmd = [os.path.join(binary, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hqd", os.path.join(binary, "hqd"), "--hqrouter", os.path.join(binary, "hqrouter"),
           "--out", OUT_DIR, "--commit", commit]
    # A session of its own, so that on a timeout the daemons it started go
    # down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        fail(f"run exceeded {RUN_TIMEOUT_S}s", 1)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}", proc.returncode or 1)
    config = {}
    for line in lines:
        if line.startswith("config "):
            config = json.loads(line[len("config "):])
    config["source_digest"] = digest
    result = json.loads(lines[-1])
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1000)}.json"
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump({"config": config, "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def load(pattern):
    runs = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        fail(f"no results match {pattern}")
    return runs


def setup_of(config):
    return {k: v for k, v in config.items() if k not in IDENTITY_KEYS}


def by_workload(runs):
    groups = {}
    for r in runs:
        groups.setdefault((r["config"]["workload"], r["config"]["trace"]), []).append(r)
    return groups


def iqr_share(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def spread(args):
    for (workload, trace), runs in sorted(by_workload(load(args.pattern)).items()):
        print(f"{workload} (trace {trace}, {len(runs)} runs)")
        metrics = runs[0]["result"]["metrics"]
        for name in metrics:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, share = iqr_share(values)
            print(f"  {name:<40} median {med:>14.4f} {metrics[name]['unit']:<6} "
                  f"IQR/median {share:.4f}")


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, head = by_workload(load(args.base)), by_workload(load(args.head))
    refused = False
    for key in sorted(set(base) & set(head)):
        setups = {json.dumps(setup_of(r["config"]), sort_keys=True) for r in base[key] + head[key]}
        if len(setups) > 1:
            print(f"{key[0]}: configs differ; refusing to compare:")
            for s in sorted(setups):
                print(f"  {s}")
            refused = True
            continue
        print(f"{key[0]} (base {len(base[key])} runs, head {len(head[key])} runs)")
        for name in base[key][0]["result"]["metrics"]:
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in base[key])
            h = statistics.median(r["result"]["metrics"][name]["value"] for r in head[key])
            change = (h - b) / abs(b) if b else 0.0
            verdict = ""
            if name in bounds:
                worse = -change if bounds[name]["better"] == "higher" else change
                verdict = "WORSE beyond bound" if worse > bounds[name]["bound"] else "within bound"
            print(f"  {name:<40} base {b:>12.4f}  head {h:>12.4f}  {change:+.3f}  {verdict}")
    if refused:
        sys.exit(3)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("head")
        compare(p.parse_args(sys.argv[2:]))
        return
    if len(sys.argv) > 1 and sys.argv[1] == "spread":
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("pattern")
        spread(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    run(args)


if __name__ == "__main__":
    main()
