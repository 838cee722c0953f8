"""Benchmark of cqpoly: the paper's ratio table, file solves and the tail probe.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-table --seed 1 --seconds 20 --trace 0

It imports cqpoly from ``src/`` of that checkout, builds the workload's
inputs from the seed, times whole rounds of the workload's operations for
the given number of seconds in this one single-threaded process, checks
the outputs against independent computations and prints one JSON object
as its last line. ``--trace 1`` makes a separate run that alternates
untraced rounds with rounds in which the public functions of each cqpoly
module are traced, and prints the per-layer metrics instead. See
perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True

# One BLAS/OpenMP thread; this must precede the first import of numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import spans
import timing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("paper-table", "file-solves", "tail-probe")


def import_program():
    """Import cqpoly from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "cqpoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cqpoly sources under {src}")
    sys.path.insert(0, str(src))
    import cqpoly

    if Path(cqpoly.__file__).resolve().parent != (src / "cqpoly").resolve():
        raise SystemExit(f"perfbench: imported cqpoly from {cqpoly.__file__}, not from {src}")


class Runner:
    """Set-up, timed rounds and the record of one workload in one process."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.clock = timing.Clock()
        self.tracer = tracer
        self.latencies: list[tuple[float, float]] = []
        self.busy = [0.0, 0.0]
        self.trials = 0
        self.attempted = 0
        self.first = None
        self.summary = None
        self.identical = True
        self.traced_rounds: list[dict] = []
        self.round_times: dict[bool, list[float]] = {False: [], True: []}

    def setup(self) -> tuple[list[float], list[float]]:
        raw, norm = [], []
        for _ in range(SETUP_REPEATS):
            self.clock.break_chain()
            _, r, n = self.clock.measure(self.workload.setup)
            raw.append(r)
            norm.append(n)
        return raw, norm

    def round(self, traced: bool) -> None:
        ops = self.workload.ops
        refs_before = len(self.clock.ref_times) - 1
        outputs, latencies = [], []
        if traced:
            self.tracer.install()
        try:
            for op in ops:
                out, raw, norm = self.clock.measure(op.run)
                outputs.append(out)
                latencies.append((raw, norm))
            finished, raw, norm = self.clock.measure(self.workload.finish, outputs)
        finally:
            if traced:
                self.tracer.uninstall()
        self.round_times[traced].append(norm + sum(n for _, n in latencies))
        if traced:
            refs = self.clock.ref_times[refs_before:]
            factor = timing.REF_NOMINAL_S / statistics.mean(refs)
            self.traced_rounds.append({"spans": self.tracer.take(), "factor": factor})
        else:
            self.latencies += latencies
            self.busy[0] += raw + sum(r for r, _ in latencies)
            self.busy[1] += norm + sum(n for _, n in latencies)
            self.trials += sum(op.trials for op in ops)
            self.attempted += len(ops)
        summary = [op.summary(out) for op, out in zip(ops, outputs)]
        if self.first is None:
            self.first, self.summary = (outputs, finished), summary
        elif summary != self.summary:
            self.identical = False


def run(args, workdir: Path) -> dict:
    import layers
    import workloads

    for _ in range(5):
        timing.reference_kernel()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, toy=args.toy)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workload, tracer)

    if tracer:
        tracer.install()
    try:
        setup_raw, setup_norm = runner.setup()
    finally:
        if tracer:
            tracer.uninstall()
    setup_spans = tracer.take() if tracer else []
    setup_factor = timing.REF_NOMINAL_S / statistics.mean(runner.clock.ref_times)

    start = time.perf_counter()
    traced = False
    while True:
        runner.round(traced)
        done = time.perf_counter() - start >= args.seconds
        if tracer:
            done = done and bool(runner.traced_rounds)
            traced = not traced
        if done:
            break
    measured = time.perf_counter() - start

    correct = runner.identical
    if not runner.identical:
        print("check failed: rounds gave different outputs", file=sys.stderr)
    quality = {"opt_ratio": 0.0, "rank1_fit": 0.0}
    try:
        quality = workload.check(*runner.first)
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if tracer:
        metrics = layers.per_layer(runner, setup_spans, setup_factor, SETUP_REPEATS)
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            fh.write("# id parent name start end self note, first traced round\n")
            for span in runner.traced_rounds[0]["spans"]:
                fh.write(json.dumps(span) + "\n")
    else:
        raw = [r for r, _ in runner.latencies]
        norm = [n for _, n in runner.latencies]
        values = {
            "setup_s": (statistics.median(setup_norm), statistics.median(setup_raw), "s"),
            "trials_per_s": (runner.trials / runner.busy[1], runner.trials / runner.busy[0], "1/s"),
            "op_p50_ms": (1000 * np.percentile(norm, 50), 1000 * np.percentile(raw, 50), "ms"),
            "op_p90_ms": (1000 * np.percentile(norm, 90), 1000 * np.percentile(raw, 90), "ms"),
        }
        print(
            f"{args.workload} seed {args.seed}: {len(runner.round_times[False])} rounds, "
            f"{runner.attempted} operations in {measured:.2f} s, host.ref_ms {runner.clock.ref_ms():.4f}; "
            + ", ".join(f"{k} {v[0]:.6g} (raw {v[1]:.6g})" for k, v in values.items())
        )
        metrics = {k: {"value": float(v[0]), "unit": v[2]} for k, v in values.items()}
        metrics["opt_ratio"] = {"value": quality["opt_ratio"], "unit": "ratio"}
        metrics["rank1_fit"] = {"value": quality["rank1_fit"], "unit": "ratio"}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return {"correct": bool(correct), "attempted": runner.attempted, "failed": 0, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of cqpoly.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    import_program()
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
