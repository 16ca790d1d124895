"""Benchmark of `splitsuper analyze` and `splitsuper decompose`.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads are ``corpus``, ``ladder`` and ``prime`` (see README.md).  The
run times fresh-interpreter imports of ``splitsuper.cli`` (setup_s), starts
one worker process that runs the measured passes, checks every report it
produced with the independent checker, and prints one JSON object as the
last line of standard output.  With ``--trace 1`` it prints the per-layer
metrics of one traced round instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from probe import rescale  # noqa: E402

SETUP_LAUNCHES = 15
SETUP_INTERVAL_S = 0.01
WORKER_TIMEOUT_S = 160


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("SLL_ORACLE_BOUND", None)
    return env


# A launch: a fresh interpreter that imports splitsuper.cli under a sampler
# and reports the sampler's time and probe durations.
SETUP_CHILD = """
import json, sys
sys.path.insert(0, {here!r})
from probe import Sampler
with Sampler(interval={interval}) as sampler:
    import splitsuper.cli
print(json.dumps([sampler.spent, [d for _, d in sampler.samples]]))
"""


def measure_setup() -> tuple:
    """Wall time of a fresh interpreter importing splitsuper.cli, from its
    launch to its exit, net of its sampler and rescaled by the probes it
    sampled: (median wall, median rescaled) over the launches that follow
    one discarded launch, which writes the bytecode."""
    argv = [sys.executable, "-c", SETUP_CHILD.format(here=HERE, interval=SETUP_INTERVAL_S)]
    env = worker_env()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60, capture_output=True)
    wall, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        spent, probes = json.loads(done.stdout)
        wall.append(elapsed)
        scaled.append(rescale(elapsed - spent, probes))
    return statistics.median(wall), statistics.median(scaled)


def pass_time(lines, command: str, round_index: int) -> tuple:
    """(wall seconds, rescaled seconds) of one pass: the sum over its
    commands, each taken net of the sampler and rescaled by the probe
    times sampled while it ran."""
    wall = scaled = 0.0
    for line in lines:
        if line["round"] == round_index and line["command"] == command:
            wall += line["seconds"]
            scaled += rescale(line["net"], line["probes"])
    return wall, scaled


def check_reports(workload: str, seed: int, lines) -> tuple:
    """(attempted, failed, list of check failures) over every command."""
    mems = {m.key: m for m in workloads.members(workload)}
    problems = []
    failed = 0
    for line in lines:
        member = mems[line["key"]]
        if line["rc"] != 0:
            failed += 1
            continue
        signs = workloads.round_signs(seed, line["round"], member)
        doc = workloads.document(member, signs)
        try:
            report = json.loads(line["stdout"])
            bad = check.CHECKS[line["command"]](member, doc, report)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
            bad = [f"unreadable report: {exc!r}"]
        for name in bad:
            problems.append(f"round {line['round']} {line['command']} {member.key}: {name}")
    return len(lines), failed, problems


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "splitsuper", "cli.py")):
        print(f"error: no splitsuper sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if not args.trace:
        setup_wall, setup_s = measure_setup()
        print(f"setup: wall {setup_wall:.4f} s, rescaled {setup_s:.4f} s", file=sys.stderr)

    workdir = os.path.join(HERE, "work", f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    results = os.path.join(workdir, "results.jsonl")
    try:
        subprocess.run(
            [
                sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
                str(args.seconds), str(args.trace), results, workdir,
            ],
            cwd=ROOT, env=worker_env(), check=True, timeout=WORKER_TIMEOUT_S,
        )
        with open(results, encoding="utf-8") as fh:
            records = [json.loads(text) for text in fh]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = records[-1]["summary"]
    lines = records[:-1]

    attempted, failed, problems = check_reports(args.workload, args.seed, lines)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    rounds = range(summary["rounds"])
    passes = {
        command: [pass_time(lines, command, r) for r in rounds] for command in ("analyze", "decompose")
    }
    for command, values in passes.items():
        print(
            f"{command}: wall {[round(w, 3) for w, _ in values]} s, "
            f"rescaled {[round(s, 3) for _, s in values]} s",
            file=sys.stderr,
        )
    probes = [p for line in lines for p in line["probes"]]
    if probes:
        print(f"probe: median {statistics.median(probes):.6f} s", file=sys.stderr)

    if args.trace:
        traced_round = summary["rounds"]
        traced, untraced = (
            sum(pass_time(lines, c, r)[1] for c in ("analyze", "decompose")) for r in (traced_round, 0)
        )
        values = dict(summary["trace"])
        values["trace.overhead_s"] = traced - untraced
        metrics = {
            name: metric(value, "s" if name.endswith("_s") else "count")
            for name, value in values.items()
        }
        trace_path = os.path.join(HERE, "work", f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": summary["spans"], "metrics": values}, fh)
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "analyze_s": metric(statistics.median(s for _, s in passes["analyze"]), "s"),
            "decompose_s": metric(statistics.median(s for _, s in passes["decompose"]), "s"),
            "peak_rss_mb": metric(summary["maxrss_kb"] / 1024, "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
