#!/usr/bin/env python3
"""Build and run the HeteroMap end-to-end benchmark.

Usage, from the repository root:

    python3 hmbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Workloads: serve-hot, serve-cold, deploy-real (see hmbench/METRICS.md).
The benchmark package is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Its standard output ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. The exit
code is non-zero if the build fails, an argument is bad, or any output check
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "hmbench"


def tool_output(cmd):
    """First line of a tool's output, or "unknown" where it cannot run."""
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
        return done.stdout.strip().splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(PACKAGE / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("hmbench: build failed", file=sys.stderr)
        return 1
    # Provenance the binary cannot find out itself.
    env["HMBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    in_repo = tool_output(["git", "rev-parse", "--show-toplevel"]) == str(ROOT)
    env["HMBENCH_COMMIT"] = (
        tool_output(["git", "rev-parse", "HEAD"]) if in_repo else "unknown"
    )
    binary = target / "release" / "hmbench"
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
