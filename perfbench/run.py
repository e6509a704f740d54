#!/usr/bin/env python3
"""Repository benchmark command.

Builds the benchmark runner (``perfbench/``) and ``thriftyd`` from source,
runs one workload in its own process, checks its outputs and prints one
JSON result line last:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the workload untraced and then traced (each for half
the seconds, each in its own process) and reports the per-layer metrics,
with ``trace_overhead_frac`` comparing the two runs' replay throughput.
Lines before the last carry run metadata and the untraced/traced
end-to-end numbers. ``--smoke`` shrinks every workload (self-test only).
Run it from the repository root; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE, ROOT)
# Wall time the runner processes of one run may take, the build excluded.
RUN_LIMIT_S = 160.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def target_dir():
    # Absolute: the runner hands the thriftyd path to a daemon it starts in
    # a scratch directory.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the runner and thriftyd (release). Returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "thrifty-daemon", "--bin", "thriftyd"],
    ]
    for cmd in steps:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            raise RuntimeError(f"missing {cmd[cmd.index('--manifest-path') + 1]}: "
                               "run from the repository root of a full checkout")
        result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "thriftyd")


def spin_rate(seconds):
    """Loop iterations per second of one busy process."""
    code = ("import time\n"
            f"end = time.perf_counter() + {seconds}\n"
            "n = 0\n"
            "while time.perf_counter() < end:\n"
            "    n += 1\n"
            "print(n)\n")
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)


def effective_cores(seconds=0.2):
    """Two-process spin test: work two concurrent spinners get done,
    relative to one spinner alone (about 1.0 on one effective core)."""
    alone = spin_rate(seconds)
    a = int(alone.communicate()[0])
    pair = [spin_rate(seconds), spin_rate(seconds)]
    b = sum(int(p.communicate()[0]) for p in pair)
    return round(b / max(a, 1), 3)


def source_digest():
    """SHA-256 over the sources the benchmark builds (commit stand-in when
    the checkout is not a git repository)."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "shims", BENCH_DIR]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_runner(runner, thriftyd, args, seconds, trace, deadline, daemon=True):
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace), "--thriftyd", thriftyd]
    if args.smoke:
        cmd.append("--smoke")
    if not daemon:
        cmd.append("--no-daemon")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"runner exceeded {timeout:.0f} s")
    if result.returncode != 0:
        raise RuntimeError(f"runner exited with {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; choose one of {names}")
        return 2
    try:
        runner, thriftyd = build()
    except RuntimeError as e:
        log(str(e))
        return 1
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if args.trace:
            # The untraced half replays in process only: it supplies the
            # digests and the throughput the traced replay is compared with.
            half = args.seconds / 2
            untraced = run_runner(runner, thriftyd, args, half, 0, deadline, daemon=False)
            traced = run_runner(runner, thriftyd, args, half, 1, deadline)
            runs = [untraced, traced]
        else:
            runs = [run_runner(runner, thriftyd, args, args.seconds, 0, deadline)]
    except (RuntimeError, ValueError, IndexError) as e:
        log(str(e))
        return 1

    checks = {}
    for r in runs:
        for name, ok in r["checks"].items():
            checks[f"{'traced' if r['trace'] else 'untraced'}.{name}"] = ok
    digests = runs[-1]["digests"]
    if len(runs) == 2:
        checks["digests_traced_equal_untraced"] = all(
            runs[0]["digests"][k] == v for k, v in digests.items() if k in runs[0]["digests"])
    committed = load_json(os.path.join(HERE, "digests.json"))
    if not args.smoke and str(args.seed) in committed:
        want = committed[str(args.seed)].get(args.workload)
        checks["digests_match_committed"] = want == digests
        if want != digests:
            log(f"digests {digests} differ from committed {want}")

    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    final = runs[-1]
    if args.trace:
        qps_untraced = runs[0]["metrics"]["replay_qps"]["value"]
        qps_traced = runs[1]["metrics"]["replay_qps"]["value"]
        final["metrics"]["trace_overhead_frac"] = {
            "value": qps_untraced / qps_traced - 1.0, "unit": "frac"}
        wanted = layer
    else:
        wanted = e2e
    missing = [n for n in wanted if n not in final["metrics"]]
    if missing:
        log(f"runner did not report {missing}")
        return 1
    metrics = {n: final["metrics"][n] for n in wanted}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_profile": "release",
        "thread_override": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "effective_cores": effective_cores(),
        "samples": final["samples"],
        "digests": digests,
        "checks": checks,
    }
    print(json.dumps({"meta": meta}))
    for r in runs:
        label = "traced" if r["trace"] else "untraced"
        e2e_values = {n: r["metrics"][n]["value"] for n in e2e}
        print(json.dumps({label: {"end_to_end": e2e_values, "detail": r["detail"]}}))

    correct = all(checks.values())
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        log("output check failed: " + ", ".join(k for k, ok in checks.items() if not ok))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
