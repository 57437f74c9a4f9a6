#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper|scale|serve|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--tamper pin|plan]

Run from the repository root. It builds the shipped `bgserve` binary
from the repository workspace and the `perfbench` package next to this
file, both with the repository's `[profile.release]`, into
$CARGO_TARGET_DIR (default `.bench_build`). Each workload then runs in
its own `perfbench` process, so each has its own peak RSS. The last line
of standard output is one JSON result object; the exit code is nonzero
when the build fails or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper", "scale", "serve"]


def release_profile_env():
    """CARGO_PROFILE_RELEASE_* variables reproducing the root profile."""
    with open(os.path.join(ROOT, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    return env


def build(target):
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"perfbench: no Cargo workspace at {ROOT}: nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        (["cargo", "build", "--release", "--quiet", "-p", "bgserve", "--bin", "bgserve"], env),
        (
            ["cargo", "build", "--release", "--quiet", "--manifest-path",
             os.path.join(HERE, "Cargo.toml")],
            dict(env, **release_profile_env()),
        ),
    ]
    for cmd, cmd_env in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, env=cmd_env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def meta(args):
    """What produced these numbers: command, commit, host, seed, workloads."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    return {
        "command": [sys.executable, *sys.argv],
        "commit": commit,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workloads": why,
    }


def run_one(target, workload, args):
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bgserve", os.path.join(target, "release", "bgserve"),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tamper", choices=["pin", "plan"])
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target)
    print(json.dumps({"_meta": meta(args)}))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in workloads:
        code, lines, result = run_one(target, w, args)
        if result is None:
            sys.exit(f"perfbench: {w} printed no result (exit code {code})")
        for line in lines[:-1]:
            print(line)
        if len(workloads) == 1:
            print(lines[-1])
            sys.exit(code)
        worst = max(worst, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
