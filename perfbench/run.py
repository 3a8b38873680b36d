#!/usr/bin/env python3
"""Build the perfbench program from source inside the checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload kv_point_lf --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout (the Go build cache included). The last line of standard output
is the JSON result. A run whose program crashes or hangs is reported as
failed, with its seed, and is not retried; a hung program is sent SIGQUIT,
so its standard error ends with every goroutine's stack. A checkout the program cannot be
built in makes this script exit non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 160
QUIT_GRACE_S = 5  # for the stack dump SIGQUIT triggers
USAGE_EXIT = 64  # perfbench's exit code for bad arguments (main.go)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d)


def go_env(out):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "mod"),
        "HOME": os.path.join(out, "home"),
        "XDG_CONFIG_HOME": os.path.join(out, "home", ".config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    os.makedirs(os.path.join(out, "home"), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-trimpath", "-buildvcs=false", "-o", binary, "."],
                           cwd=HERE, env=go_env(out), timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--commit", commit()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGQUIT)
        try:
            stdout, stderr = proc.communicate(timeout=QUIT_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        stderr = f"timed out after {RUN_TIMEOUT_S} s\n{stderr}"
        code = None
    if code == USAGE_EXIT:  # the program rejected its arguments
        sys.stderr.write(stderr)
        return 2
    lines = stdout.strip().splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None:
        sys.stdout.write(stdout)
        sys.stderr.write(stderr)
        return 0
    # The program crashed, hung or printed no result: record the run as
    # failed with its seed, keeping what it printed for diagnosis.
    for line in lines:
        print(line)
    sys.stderr.write(stderr[-20000:])
    print(f"run failed (workload {args.workload}, seed {args.seed}, exit {code}): "
          f"{stderr.strip().splitlines()[0] if stderr.strip() else 'no result'}")
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
