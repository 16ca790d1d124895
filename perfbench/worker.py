"""Runs the measured passes in one process: `analyze --json` and then
`decompose --json` over a round's documents, round after round, through
``splitsuper.cli.main``.

Usage (from the repository root, with src on PYTHONPATH; run.py does this):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE RESULTS WORKDIR

Each command's report, exit code and wall time go to RESULTS as JSON lines,
with the probe times sampled while it ran (see probe.py); a last line holds
the run summary.  With TRACE 1 the worker runs one untraced round and then one
traced round of the same make-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import MIN_SAMPLES, Sampler, probe  # noqa: E402

COMMANDS = ("analyze", "decompose")


def run_round(cli_main, docs, round_index, out, sampler=None):
    """One analyze pass and one decompose pass over the round's documents.

    With a sampler, each command's time is also given net of the time spent
    in the sampler, with the probe times sampled during it.
    """
    for command in COMMANDS:
        for member, path in docs:
            argv = [command, path, "--json"]
            if member.field != "Q":
                argv += ["--field", member.field]
            buf, err = io.StringIO(), io.StringIO()
            spent = sampler.spent if sampler else 0.0
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli_main(argv)
            end = time.perf_counter()
            net = end - start
            probes = []
            if sampler:
                net -= sampler.spent - spent
                probes = sampler.window(start, end)
            out.write(json.dumps({
                "round": round_index,
                "command": command,
                "key": member.key,
                "rc": rc,
                "seconds": end - start,
                "net": net,
                "probes": probes,
                "stdout": buf.getvalue(),
                "stderr": err.getvalue(),
            }) + "\n")


def write_documents(workload, seed, round_index, mems, workdir):
    docs = []
    for position, (member, _, text) in enumerate(
        workloads.round_documents(workload, seed, round_index, mems)
    ):
        path = os.path.join(workdir, f"r{round_index:02d}_{position:02d}_{member.key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        docs.append((member, path))
    return docs


def main(argv) -> int:
    workload, seed, seconds, trace, results, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    import splitsuper.cli as cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"splitsuper was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    mems = workloads.members(workload)
    summary = {}
    with open(results, "w", encoding="utf-8") as out, Sampler() as sampler:
        while len(sampler.samples) < MIN_SAMPLES:
            probe()
        begin = time.perf_counter()
        round_index = 0
        while True:
            docs = write_documents(workload, seed, round_index, mems, workdir)
            run_round(cli.main, docs, round_index, out, sampler)
            round_index += 1
            if trace:
                break
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / round_index > seconds:
                break
        summary["rounds"] = round_index
        summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            docs = write_documents(workload, seed, round_index, mems, workdir)
            tracer.install()
            try:
                run_round(cli.main, docs, round_index, out, sampler)
            finally:
                tracer.remove()
            summary["trace"] = tracer.metrics()
            summary["spans"] = tracer.spans
        out.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
