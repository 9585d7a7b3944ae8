#!/usr/bin/env python3
"""Fleet-simulator benchmark: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 fleetbench/run.py --workload <burst_1k|sparse_10k|elastic_mamut> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `fleetbench` package (release, offline; into $CARGO_TARGET_DIR,
default `.bench_build`), then runs repetitions of the workload for
`--seconds`, each in a fresh process so every repetition's peak RSS is its
own. `--trace 0` reports the end-to-end metrics, medians over the untraced
repetitions; `--trace 1` alternates traced and untraced repetitions and
reports the per-layer metrics (medians over the traced ones) plus the
tracing overhead. Every repetition is checked (conservation; exact counts
and summary digest at the default seed; byte-identical summaries across
repetitions and between traced and untraced runs). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Every workload's repetition stays well under this; a hung child is
# killed and counted as a failed repetition.
REP_TIMEOUT_S = 60.0
MIN_REPS = 3
MAX_REPS = 64


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as err:
        log(f"cannot run cargo: {err}")
        return None
    if done.returncode != 0:
        log("benchmark build failed")
        return None
    binary = os.path.join(ROOT, target, "release", "fleetbench")
    return binary if os.path.isfile(binary) else None


def repetition(binary, workload, seed, traced):
    """Runs one repetition in a fresh process.

    Returns (record, stdout lines before the record, peak RSS in KiB,
    error or None).
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(REP_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read().decode("utf-8", "replace")
        child.stdout.close()
        # wait4 reaps the child and reports its own resource usage.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    lines = out.strip().splitlines()
    if child.returncode != 0:
        return None, lines, 0, f"exit code {child.returncode}"
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, lines, 0, "no result line"
    return record, lines[:-1], usage.ru_maxrss, None


def check(record, pinned, seed, reference):
    """Output checks of one repetition; returns a list of failures."""
    failures = list(record["failures"])
    if seed == pinned["default_seed"]:
        expect = pinned["workloads"][record["workload"]]
        for name, value in expect["counts"].items():
            got = record["counts"].get(name)
            if got != value:
                failures.append(f"{name}: {got} != pinned {value}")
        if record["digest"] != expect["digest"]:
            failures.append(f"digest {record['digest']} != pinned {expect['digest']}")
    if reference is not None and record["digest"] != reference:
        kind = "traced" if record["traced"] else "untraced"
        failures.append(f"{kind} summary digest {record['digest']} differs from {reference}")
    return failures


def median(values):
    return statistics.median(values) if values else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "pinned.json")) as f:
        pinned = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    if args.seed < 0:
        log("the seed must be a non-negative integer")
        return 2

    binary = build()
    if binary is None:
        return 1

    traced_mode = args.trace == 1
    untraced, traced = [], []
    attempted = failed = 0
    reference = None
    last_table = []
    deadline = time.monotonic() + args.seconds

    def one(trace_this):
        nonlocal attempted, failed, reference, last_table
        attempted += 1
        record, lines, rss_kib, error = repetition(binary, args.workload, args.seed, trace_this)
        if error is not None:
            failed += 1
            log(f"repetition {attempted} failed: {error}")
            return
        failures = check(record, pinned, args.seed, reference)
        if failures:
            failed += 1
            log(f"repetition {attempted} failed its checks:", *failures, sep="\n  ")
            return
        if reference is None:
            reference = record["digest"]
        record["peak_rss_mb"] = rss_kib / 1024.0
        (traced if trace_this else untraced).append(record)
        if trace_this:
            last_table = lines

    # The end-to-end run opens with one traced repetition (the check that
    # tracing leaves the summary byte-identical) and fills the rest of the
    # window with untraced ones; the per-layer run alternates the two.
    while attempted < MAX_REPS and (
        time.monotonic() < deadline or len(untraced) < MIN_REPS
    ):
        if attempted >= 2 * MIN_REPS and failed == attempted:
            break  # nothing succeeds; stop early
        one(attempted % 2 == 1 if traced_mode else attempted == 0)

    metrics = {}
    run_s = median([r["run_s"] for r in untraced])
    if not traced_mode:
        values = {
            "frames_per_s": median([r["counts"]["frames"] / r["run_s"] for r in untraced]),
            "setup_s": median([r["setup_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        for m in spec["end_to_end"]:
            if values.get(m["name"]) is not None:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if len(untraced) >= 2:
            q1, _, q3 = statistics.quantiles([r["run_s"] for r in untraced], n=4)
            log(
                f"{args.workload} seed {args.seed}: run_s median {run_s:.4f} s, "
                f"quartiles {q1:.4f}-{q3:.4f} s over {len(untraced)} repetitions"
            )
    else:
        traced_run_s = median([r["run_s"] for r in traced])
        print(
            f"{args.workload} seed {args.seed}: per-layer report of the last traced "
            f"repetition (the JSON line holds medians over {len(traced)})"
        )
        for line in last_table:
            print(line)
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_pct":
                value = None
                if run_s and traced_run_s:
                    value = (traced_run_s / run_s - 1.0) * 100.0
                    print(
                        f"[trace]\n  {name}  {value:.3f} %  traced run_s median "
                        f"{traced_run_s:.4f} s (n={len(traced)}) vs untraced "
                        f"{run_s:.4f} s (n={len(untraced)})"
                    )
            else:
                value = median([
                    r["layer"][name]["value"]
                    for r in traced
                    if r["layer"].get(name, {}).get("value") is not None
                ])
            if value is not None:
                metrics[name] = {"value": value, "unit": m["unit"]}

    expected = spec["per_layer"] if traced_mode else spec["end_to_end"]
    complete = all(m["name"] in metrics for m in expected)
    if not complete:
        log("some metrics could not be measured")
    result = {
        "correct": failed == 0 and complete and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
