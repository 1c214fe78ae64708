"""Benchmark of the revival pipeline, driven through its command line.

    python3 bench/run.py --workload depth_sweep --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: each command starts when
the previous one has ended.  Commands go through ``qrevival.cli.main``,
called in-process, with stdout captured.  A run repeats the workload's round
of commands whole until ``--seconds`` have passed, then checks every output
and prints one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from spans recorded around each layer) with ``--trace 1``.

The program is imported from ``src/`` next to this directory and from
nowhere else.  Results and traces go to ``bench/out/``.
"""

from __future__ import annotations

import os

# BLAS threads are capped at the 2 cores of the reference machine before
# numpy loads; the cap is recorded with every result.
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
WARMUP = (("spectrum", "--epsilon", "12"),
          ("revivals", "--epsilon", "12", "--x0", "0.1", "--sigma", "0.08"))


def import_program():
    """``qrevival.cli`` from this checkout's ``src/``; exit 1 if it is absent."""
    if not (SRC / "qrevival" / "cli.py").is_file():
        sys.exit(f"bench: no program at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import qrevival.cli
    if Path(qrevival.cli.__file__).resolve().parent != SRC / "qrevival":
        sys.exit(f"bench: imported qrevival from {qrevival.cli.__file__}, not {SRC}")
    return qrevival.cli


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one small round, to test that the workload runs end to end")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(args) -> float:
    """Median time from a fresh interpreter until the first command is ready.

    Each probe imports the program and builds the workload's inputs in a new
    process.  The first probe, which may compile bytecode, is discarded.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            sys.exit(f"bench: set-up probe failed with exit code {code}")
        times.append(ready - start)
    return statistics.median(times[1:])


class Invoker:
    """Runs one CLI command in-process and returns (exit code, stdout, stderr)."""

    def __init__(self, main):
        self.main = main

    def __call__(self, args):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                self.main.main(args=list(args), prog_name="qrevival", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a command that crashes is a failed operation
                err.write(f"{type(exc).__name__}: {exc}\n")
                code = 1
        return code, out.getvalue(), err.getvalue()


def timed_rounds(ops, invoke, seconds, recorder=None):
    """Closed loop over whole rounds until ``seconds`` have passed."""
    records = []          # (op index, duration, exit code, sha256, bytes)
    first = {}            # op index -> (exit code, stdout, stderr) of its first run
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            if recorder is None:
                code, out, err = invoke(op.args)
            else:
                recorder.op = len(records)
                code, out, err = recorder.call(
                    "cli", invoke, (op.args,),
                    counter=lambda a, k, r: {"bytes": len(r[1].encode())})
            t1 = time.perf_counter()
            data = out.encode()
            records.append((i, t1 - t0, code, hashlib.sha256(data).hexdigest(), len(data)))
            first.setdefault(i, (code, out, err))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return records, first, rounds, time.perf_counter() - start


def verify(workload, ops, records, first, invoke):
    """Problems with the outputs, the repeats and the exact invariants."""
    import checks
    import invariants

    problems = []
    for i, op in enumerate(ops):
        code, out, _ = first[i]
        if code == 0:
            problems += [f"{op.label}: {p}" for p in checks.check(op, out)]
    repeats, digests = repeat_problems(ops, records)
    problems += repeats
    problems += invariants.check(workload, ops, first, digests, invoke)
    return problems


def repeat_problems(ops, records):
    """Commands whose repeats printed other bytes than their first run, and
    the digest of each command's first successful output."""
    problems, digests = [], {}
    for i, _, code, digest, _ in records:
        if code == 0 and digests.setdefault(i, digest) != digest:
            problems.append(f"{ops[i].label}: repeated command gave different output")
    return problems, digests


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()

    if args.setup_probe:
        workloads.build(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    ops = workloads.build(args.workload, args.seed, args.tiny)
    invoke = Invoker(cli.main)
    for warm in WARMUP:
        invoke(warm)

    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder()
        recorder.install()
    seconds = 0.0 if args.tiny else args.seconds
    records, first, rounds, elapsed = timed_rounds(ops, invoke, seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()

    failed = [r for r in records if r[2] != 0]
    problems = verify(args.workload, ops, records, first, invoke)
    durations = [r[1] for r in records]
    if args.trace:
        layers = recorder.layer_metrics(len(records))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "op_s.p50": {"value": statistics.median(durations), "unit": "s"},
            "ops_per_s": {"value": len(records) / elapsed, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": not problems, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    detail = dict(result, rounds=rounds, elapsed_s=elapsed, ops_per_round=len(ops),
                  ops_per_s=len(records) / elapsed, op_s_p50=statistics.median(durations),
                  peak_rss_mb=peak_rss_mb, problems=problems,
                  failures=[{"command": ops[i].label, "exit": code, "stderr": first[i][2]}
                            for i, _, code, _, _ in failed[:20]],
                  commands=[{"command": op.label,
                             "median_s": statistics.median(r[1] for r in records if r[0] == i),
                             "stderr": first[i][2]} for i, op in enumerate(ops)],
                  blas_threads=BLAS_THREADS, python=platform.python_version(),
                  cpus=os.cpu_count())
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if recorder is not None:
        labels = {n: ops[r[0]].label for n, r in enumerate(records)}
        recorder.write(OUT / f"{stem}.spans.jsonl", labels)
    for p in problems[:20]:
        print(f"bench: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
