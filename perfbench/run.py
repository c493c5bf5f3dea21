#!/usr/bin/env python3
"""Benchmark of the crosscavity command-line verbs.

Run from the repository root:

    python3 perfbench/run.py --workload render|readout|oracle --seed N \
        --seconds S --trace 0|1

One process, one closed-loop client: each operation is one call of
``crosscavity.cli.main(argv)`` made in-process after the previous one has
finished.  BLAS and OpenMP are pinned to one thread.  Every operation's
artifacts are checked in a separate checker process (``checks.py``) outside
the timed region; an operation fails on a non-zero exit, an exception or a
failed check.

``--trace 0`` prints the end-to-end metrics: throughput, median and tail
latency over whole seeded rounds of at least ``--seconds`` of operation
time, set-up time (median of fresh interpreters importing the CLI and
running the workload's opening operation) and peak resident memory.
``--trace 1`` runs a fixed number of rounds with the layer trace of
``tracing.py`` installed, repeats each operation untraced right after its
traced run for the tracing overhead, and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

import os
import sys

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads its BLAS
os.environ.pop("CROSSCAVITY_WORKERS", None)  # the workload sets --workers itself

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, argv, rounds, spec_document  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
MIN_OPS = 20  # so the tail percentile always has ten samples beyond it
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import crosscavity.cli as c; "
    "sys.exit(c.main(sys.argv[2:]))"
)


class Checker:
    """Client of the checker process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "checks.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def check(self, op, out_dir, stdout):
        self.proc.stdin.write(json.dumps({"op": op, "out": str(out_dir), "stdout": stdout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            return "checker process died"
        answer = json.loads(line)
        return None if answer["ok"] else answer["why"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Bench:
    """Runs operations, times them, checks them and tallies failures."""

    def __init__(self, cli, work, checker):
        self.cli = cli
        self.work = work
        self.checker = checker
        self.attempted = 0
        self.failures = []

    def _prepare(self, op):
        spec = self.work / "state.json"
        doc = spec_document(op)
        if doc is not None:
            spec.write_text(json.dumps(doc))
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        return argv(op, str(spec), str(out)), out

    def _verdict(self, op, rc, out, stdout):
        self.attempted += 1
        why = f"exit {rc!r}" if rc != 0 else self.checker.check(op, out, stdout)
        if why is not None:
            self.failures.append(f"{op['verb']} {op['builder']} {op['flags']}: {why}")
        shutil.rmtree(out, ignore_errors=True)

    def run(self, op):
        """One in-process CLI call; returns its latency in seconds."""
        args, out = self._prepare(op)
        captured = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = self.cli.main(args)
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        self._verdict(op, rc, out, captured.getvalue())
        return latency

    def probe(self, op):
        """A fresh interpreter imports the CLI and runs ``op``; returns its wall time."""
        args, out = self._prepare(op)
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), *args],
            capture_output=True, text=True, timeout=150,
        )
        wall = perf_counter() - start
        self._verdict(op, proc.returncode, out, proc.stdout)
        return wall


def tail(latencies):
    """Value, percentile and sample count at the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": PINNED_THREADS,
    }


def run_timed(bench, name, seed, seconds):
    workload = WORKLOADS[name]
    setup = [bench.probe(workload.opening) for _ in range(SETUP_PROBES)]
    bench.run(workload.opening)  # warm-up: lazy set-up finishes before timing
    latencies = []
    seeded = rounds(name, seed)
    while sum(latencies) < seconds or len(latencies) < MIN_OPS:
        latencies.extend(bench.run(op) for op in next(seeded))
    tail_s, percentile, count = tail(latencies)
    print(f"{name} seed {seed}: {len(latencies)} ops in {sum(latencies):.2f} s; "
          f"op_tail_ms is p{percentile:.1f} of {count} samples (10 beyond)")
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, []


def run_traced(bench, name, seed):
    workload = WORKLOADS[name]
    bench.run(workload.opening)
    seeded = rounds(name, seed)
    ops = [op for _ in range(workload.trace_rounds) for op in next(seeded)]
    tracer = Tracer()
    traced, plain = [], []
    for k, op in enumerate(ops):  # traced first, so cache misses land in the trace
        tracer.op = k
        tracer.install()
        try:
            traced.append(bench.run(op))
        finally:
            tracer.remove()
        plain.append(bench.run(op))
    tracer.write(OUT / f"trace-{name}.jsonl")  # spans of the latest traced run

    values = tracer.metrics()
    values["trace.overhead_ratio"] = sum(traced) / sum(plain)
    values["trace.ops"] = len(ops)
    problems = [f"{key} is 0, expected non-zero" for key in workload.exercises if values[key] == 0]
    problems += [f"{key} is {values[key]}, expected 0" for key in workload.bypasses if values[key] != 0]
    shares = ", ".join(f"{k} {v:.1%}" for k, v in tracer.layer_shares().items())
    print(f"{name} seed {seed}: {len(ops)} traced ops; self-time shares: {shares}")
    return {key: (value, unit_of(key)) for key, value in values.items()}, problems


def unit_of(key):
    if key.endswith("ms"):
        return "ms"
    if key.endswith(".bytes"):
        return "B"
    if key.endswith(("_ratio", "_per_radial_table")):
        return "ratio"
    return "count"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main():
    args = parse_args()
    if not (SRC / "crosscavity" / "cli.py").is_file():
        print(f"error: crosscavity sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crosscavity.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "crosscavity").resolve():
        print(f"error: imported crosscavity from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("environment: " + json.dumps(environment(), sort_keys=True))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checker = Checker()
    bench = Bench(cli, work, checker)
    try:
        if args.trace:
            metrics, problems = run_traced(bench, args.workload, args.seed)
        else:
            metrics, problems = run_timed(bench, args.workload, args.seed, args.seconds)
    finally:
        checker.close()
        shutil.rmtree(work, ignore_errors=True)

    for why in bench.failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    for why in problems:
        print(f"trace self-check FAILED: {why}", file=sys.stderr)
    print(f"error_rate {len(bench.failures)}/{bench.attempted}")
    print(json.dumps({
        "correct": not bench.failures and not problems,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
