#!/usr/bin/env python3
"""Builds and runs the router benchmark; the last stdout line is the result.

    python3 perfbench/run.py --workload fwd_64 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only check the build is current.

--trace 0 prints the end-to-end metrics of one run. --trace 1 makes two
runs of the same binary, workload and seed, each half as long: an untraced
one and a traced one. It prints the traced run's per-layer metrics plus
trace.overhead_frac, the share of untraced throughput that tracing costs,
and writes the traced run's spans to <build>/spans/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def stop_group(proc):
    """Stops proc's process group and waits until every member is gone.

    SIGTERM comes first: ninja starts each compiler in a process group of
    its own, and on SIGTERM it stops and reaps them before it exits.
    """
    for sig, grace_s in ((signal.SIGTERM, 20), (signal.SIGKILL, 10)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            proc.poll()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
    proc.wait()


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "rb_perfbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            # Its own process group, so a timeout also stops the compilers
            # the build tool started.
            try:
                proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        start_new_session=True)
            except OSError as e:
                fail(f"build step {cmd[:2]} did not start: {e}")
            try:
                rc = proc.wait(timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                stop_group(proc)
                fail(f"build step {cmd[:2]} did not finish in {BUILD_TIMEOUT_S} s")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    return build_dir / "rb_perfbench"


def run_driver(binary, args, timeout_s):
    """Runs the driver; returns (non-result stdout lines, result dict)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {timeout_s:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line")
    return lines[:-1], result


def detail_of(lines):
    for line in lines:
        if line.startswith('{"detail"'):
            return json.loads(line)["detail"]
    fail("driver printed no detail line")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fwd_64", "rtr_nat_64", "ipsec_abilene"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    opt = ap.parse_args()
    if opt.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = build(build_dir)
    # The run budget starts after the build: a cold build may take most of
    # its own budget and must not starve the runs that follow it.
    started = time.monotonic()
    budget = lambda: max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    common = ["--workload", opt.workload, "--seed", str(opt.seed)]

    if opt.trace == 0:
        lines, result = run_driver(binary, common + ["--seconds", str(opt.seconds)],
                                   budget())
        print("\n".join(lines))
        print(json.dumps(result))
        return

    half = str(opt.seconds / 2)
    spans_dir = build_dir / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans = spans_dir / f"{opt.workload}-seed{opt.seed}.json"
    plain_lines, plain = run_driver(binary, common + ["--seconds", half, "--setups", "1"],
                                    budget())
    traced_lines, traced = run_driver(
        binary, common + ["--seconds", half, "--trace", "1", "--spans-out", str(spans)],
        budget())
    untraced_mpps = plain["metrics"]["throughput_mpps"]["value"]
    traced_mpps = detail_of(traced_lines)["throughput_mpps"]
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_frac"] = {
        "value": 1.0 - traced_mpps / untraced_mpps if untraced_mpps > 0 else 0.0,
        "unit": "frac"}
    print("\n".join("# untraced: " + l for l in plain_lines))
    print("\n".join(traced_lines))
    print(f"# trace: untraced_mpps={untraced_mpps:.4f} traced_mpps={traced_mpps:.4f} "
          f"spans={spans}")
    print(json.dumps({
        "correct": bool(plain["correct"] and traced["correct"]),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
