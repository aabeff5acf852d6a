#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seconds <s>]

The first form builds the benchmark package (perfbench/Cargo.toml) in
release mode, runs one workload in its own process and passes its output
through. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; its metric names are checked
against BENCHMARK.json (`end_to_end` with `--trace 0`, `per_layer` with
`--trace 1`). The exit code is non-zero when the build fails, a check
fails, or the metric names disagree with BENCHMARK.json.

`--all` runs every workload untraced and traced on the default seed, and
untraced on the held-out seed, then prints a table of every end-to-end
metric and every nonzero per-layer metric (layers a workload never calls
read 0), including the tracing overhead.

Build output goes to $CARGO_TARGET_DIR, or to .bench_build at the
repository root when it is unset.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["plan-search", "serve-mixed", "decode-kernels"]
# The seed the bounds were set on, and a second one that claims must also
# hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Seconds the process may take beyond its measuring time (set-up, the
# modeled scorecard and the host probes).
SLACK_S = 150


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def binary(env):
    exe = "mas-perfbench.exe" if os.name == "nt" else "mas-perfbench"
    return Path(env["CARGO_TARGET_DIR"]) / "release" / exe


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(env, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result or None)."""
    cmd = [
        str(binary(env)), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    try:
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=seconds + SLACK_S,
        )
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout or ""
        print(out, end="")
        print(f"error: {workload} did not finish in {seconds + SLACK_S} s", file=sys.stderr)
        return 124, out.splitlines(), None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, lines, result


def check_names(result, trace):
    """Differences between the emitted metrics and BENCHMARK.json."""
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"metric {n} is not in BENCHMARK.json" for n in got if n not in want]
    problems += [
        f"metric {n} has unit {got[n]}, BENCHMARK.json says {u}"
        for n, u in want.items() if n in got and got[n] != u
    ]
    return problems


def single(args, env):
    code, lines, result = run_one(env, args.workload, args.seed, args.seconds, args.trace)
    problems = [] if result is None else check_names(result, args.trace)
    if result is None or problems:
        for line in lines[:-1] if result is not None else lines:
            print(line)
        for p in problems or ["the last line is not a JSON result"]:
            print(f"error: {p}", file=sys.stderr)
        return code or 3
    print("\n".join(lines))
    return code


def full(args, env):
    rows = []
    status = 0
    for workload in WORKLOADS:
        for seed, trace in [(DEFAULT_SEED, False), (DEFAULT_SEED, True), (HELD_OUT_SEED, False)]:
            code, lines, result = run_one(env, workload, seed, args.seconds, trace)
            for line in lines[:-1]:
                if not line.startswith("metric "):
                    print(f"[{workload} seed {seed} trace {int(trace)}] {line}")
            if result is None or code != 0 or check_names(result, trace):
                print(f"error: {workload} seed {seed} trace {int(trace)} failed", file=sys.stderr)
                status = 1
                continue
            rows.append((workload, seed, trace, result))
    print("\n| workload | seed | metric | value | unit |\n|---|---|---|---|---|")
    for workload, seed, trace, result in rows:
        for name, m in result["metrics"].items():
            if trace and m["value"] == 0:
                continue  # a layer this workload never calls, or a zero count
            print(f"| {workload} | {seed}{' traced' if trace else ''} | {name} | {m['value']:.6g} | {m['unit']} |")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both seeds")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    env["CARGO_TARGET_DIR"] = str((ROOT / env["CARGO_TARGET_DIR"]).resolve())
    if not build(env):
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    return full(args, env) if args.all else single(args, env)


if __name__ == "__main__":
    sys.exit(main())
