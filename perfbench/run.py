#!/usr/bin/env python3
"""Run one workload of the dual-cube serving benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload prefix-single --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` when that is unset, then runs the binary for the named
workload in a process of its own, so peak memory belongs to that workload.
The workload's constants come from `perfbench/workloads.json`. The last
line of standard output is the JSON result; the exit code is the binary's,
nonzero when any output or exact counter failed verification.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170


def layer_shapes(spec):
    """Every shape of every workload, in order of first appearance."""
    seen = []
    for wl in spec["workloads"].values():
        for item in wl["shapes"]:
            op_n = ":".join(item.split(":")[:2])
            if op_n not in seen:
                seen.append(op_n)
    return ",".join(seen)


def command_output(cmd, cwd=ROOT):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def sources_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that carry no git metadata."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            paths += [os.path.join(dirpath, f) for f in filenames]
    paths += [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for path in sorted(paths):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    toplevel = command_output(["git", "rev-parse", "--show-toplevel"])
    rev = None
    if toplevel and os.path.realpath(toplevel) == os.path.realpath(ROOT):
        rev = command_output(["git", "rev-parse", "HEAD"])
    return "nproc={} rustc={!r} git={} sources={}".format(
        len(os.sched_getaffinity(0)),
        command_output(["rustc", "-V"]) or "unknown",
        rev or "none",
        sources_digest(),
    )


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    wl = spec["workloads"][args.workload]
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--shapes", ",".join(wl["shapes"]),
        "--outstanding", str(wl["outstanding"]),
        "--max-lanes", str(wl["max_lanes"]),
    ]
    if args.trace:
        spans = os.path.join(".bench_out", "spans-{}-seed{}.json".format(args.workload, args.seed))
        cmd += [
            "--layer-shapes", layer_shapes(spec),
            "--spans", spans,
        ]
    print("# host: " + fingerprint(), flush=True)
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload did not finish in {} s".format(CHILD_TIMEOUT_S), file=sys.stderr)
        return 1
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    lines = child.stdout.strip().splitlines()
    if child.returncode == 0 and not (lines and lines[-1].startswith("{")):
        print("perfbench: the workload printed no result", file=sys.stderr)
        return 1
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
