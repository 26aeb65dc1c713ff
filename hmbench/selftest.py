#!/usr/bin/env python3
"""Self-test of the hmbench benchmark, at tiny size.

Run from the repository root:

    python3 hmbench/selftest.py

For every workload, untraced and traced, it checks that:
  * every metric named in BENCHMARK.json is emitted, finite, with its unit,
    and no other metric is;
  * no output check failed (failed == 0, so failed_frac is 0);
  * the traced serial decomposition holds: the timed child calls of a
    request sum to no more than serve.request_ns.
It also checks that bad arguments, and a tree holding only BENCHMARK.json
and the benchmark's own files, make the command exit non-zero without a
result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The children of one request on each workload's serve path. deploy-real
# measures the serve layers on the serve-hot inputs.
HIT_PATH = ["model.ivector_ns", "serve.key_ns", "serve.cache_get_ns", "core.deploy_ns"]
CHILDREN = {
    "serve-hot": HIT_PATH,
    "serve-cold": HIT_PATH + ["predict.infer_ns", "serve.cache_insert_ns"],
    "deploy-real": HIT_PATH,
}


def run(args, cwd=ROOT, env=None):
    done = subprocess.run(
        ["python3", "hmbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def check_run(workload, trace):
    code, lines, err = run(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    )
    problems = []
    if code != 0 or not lines:
        return [f"exit {code}: {err[-400:]}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"checks: attempted {result['attempted']} failed {result['failed']}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, unit in wanted.items():
        metric = got.get(name)
        if metric is None:
            problems.append(f"missing {name}")
        elif metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, want {unit!r}")
        elif not (isinstance(metric.get("value"), (int, float)) and math.isfinite(metric["value"])):
            problems.append(f"{name}: value {metric.get('value')!r} not finite")
    problems += [f"unexpected {name}" for name in got if name not in wanted]
    if trace and not problems:
        children = sum(got[name]["value"] for name in CHILDREN[workload])
        request = got["serve.request_ns"]["value"]
        if children > request:
            problems.append(f"children {children:.0f} ns > serve.request_ns {request:.0f} ns")
    return problems


def check_refusals():
    problems = []
    code, lines, _ = run(["--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0"])
    if code == 0 or (lines and lines[-1].startswith("{")):
        problems.append("an unknown workload did not fail")
    # A tree with only BENCHMARK.json and the benchmark's files cannot build.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "hmbench", bare / "hmbench")
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    code, lines, _ = run(
        ["--workload", "serve-hot", "--seed", "1", "--seconds", "1", "--trace", "0"], bare, env
    )
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or (lines and lines[-1].startswith("{")):
        problems.append("a bare tree did not fail")
    return problems


def main():
    failures = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            problems = check_run(workload, trace)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload:12} trace={trace} {status}", flush=True)
    problems = check_refusals()
    failures += bool(problems)
    print("refusals     " + ("ok" if not problems else "FAIL: " + "; ".join(problems)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
