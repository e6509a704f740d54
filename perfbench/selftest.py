#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks BENCHMARK.json's limits (names, units, bounds, ``setup_s``), runs
the runner's unit tests, then checks at smoke sizes that every workload
prints a result line of the expected shape with every end-to-end (``--trace 0``) or
per-layer (``--trace 1``) metric in its declared unit, that all output
checks pass, that digests repeat across runs, and that the benchmark exits
non-zero without a result in a directory holding only BENCHMARK.json and
the benchmark's own files. Exits non-zero on the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(args, cwd=ROOT, timeout=300):
    cmd = [sys.executable, "perfbench/run.py"] + args
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def check_definition(bench):
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("workload count")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        fail("names must be unique and well formed")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric {m['name']}: unit or direction")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"metric {m['name']}: bound {m['bound']}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must carry the largest bound")


def check_result(lines, declared, trace):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"result not correct: {lines[-1][:300]}")
    if list(result["metrics"]) != list(declared):
        fail(f"trace {trace}: metrics {list(result['metrics'])} != {list(declared)}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            fail(f"metric {name}: {m}")
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} is not a number")
        if trace == 0 and not m["value"] > 0:
            fail(f"end-to-end metric {name} is {m['value']}")
    return json.loads(lines[0])["meta"]


def check_bare_directory(bench):
    bare = os.path.join(ROOT, ".perfbench-tmp", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        fail("benchmark must exit non-zero without a result outside a full checkout")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    check_definition(bench)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", "perfbench/Cargo.toml"], cwd=ROOT, env=env)
    if unit.returncode != 0:
        fail("runner unit tests")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        digests = []
        for trace, declared in ((0, e2e), (0, e2e), (1, layers)):
            code, lines, err = run(["--workload", w["name"], "--seed", "3", "--seconds", "4",
                                    "--trace", str(trace), "--smoke"])
            if code != 0:
                fail(f"{w['name']} trace {trace} exited {code}: {err[-2000:]}")
            digests.append(check_result(lines, declared, trace)["digests"])
        if len({json.dumps(d, sort_keys=True) for d in digests}) != 1:
            fail(f"{w['name']}: digests differ across runs: {digests}")
        print(f"selftest: {w['name']} ok", flush=True)
    check_bare_directory(bench)
    print("selftest: bare directory exits non-zero ok")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
