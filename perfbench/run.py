#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload squeezenet64-fp32 --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ in the
current directory (Go build cache, binary, result and trace files). The
program's last line of standard output is the run's JSON result; on a
build failure nothing is printed to standard output and the exit code is
not 0.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    binary = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })

    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
