#!/usr/bin/env python3
"""opfuse benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are a readable report and a ``facts`` JSON line (machine,
inputs, iteration counts).  ``--workload all`` runs every workload in turn
and prints their reports.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads and inherited by every child
# process.  On a shared 2-vCPU machine OpenBLAS's second thread waits on
# the other tenants: predict-compare ran about 30% slower with it and its
# throughput spread across runs tripled.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("train-toy", "train-frozen-graph", "predict-compare")
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in its own process; their reports pass through."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=CHILD_TIMEOUT_S)
        worst = max(worst, proc.returncode)
    return worst


def git_commit() -> str | None:
    """HEAD commit read from .git without running git (absent in an export)."""
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build": blas.get("openblas configuration"),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to the end of the workload's set-up."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.split()[-1]) - start


def report(lines: list[tuple[str, float, str, str]], header: str) -> None:
    print(header)
    for name, value, unit, note in lines:
        print(f"  {name:<34} {value:>14.6g} {unit:<7} {note}")


class Run:
    """One measured run of a workload: set-up, a warm-up iteration, then a
    closed loop of iterations until ``seconds`` have passed.  The reference
    kernel of ``speed`` runs before and after every timed iteration and
    set-up probe, and the mean of the two times is kept with the sample."""

    def __init__(self, workload, tracing, speed, trace: bool):
        self.workload = workload
        self.speed = speed
        self.tracer = tracing.Tracer() if trace else None
        self.timed = []      # untraced outcomes, the end-to-end metrics' samples
        self.checked = []    # warm-up, traced and tracemalloc outcomes
        self.walls, self.traced_walls, self.runs = [], [], []
        self.refs = []       # reference kernel seconds beside each timed iteration
        self.setup_samples, self.setup_refs = [], []
        self.mem_peak_mb = 0.0

    def measure(self, args, input_dir: Path, work: Path) -> None:
        workload, tracer = self.workload, self.tracer
        if tracer is not None:
            with tracer.installed():
                state = workload.setup(input_dir)
        else:
            probe_setup(args.workload, args.seed)  # warms the file cache and .pyc files
            for _ in range(SETUP_PROBES):
                before = self.speed.kernel_s()
                self.setup_samples.append(probe_setup(args.workload, args.seed))
                self.setup_refs.append((before + self.speed.kernel_s()) / 2)
            state = workload.setup(input_dir)
        self.checked.append(workload.iterate(state, work))
        deadline = time.perf_counter() + args.seconds
        while not self.timed or time.perf_counter() < deadline:
            before = self.speed.kernel_s()
            start = time.perf_counter()
            self.timed.append(workload.iterate(state, work))
            self.walls.append(time.perf_counter() - start)
            self.refs.append((before + self.speed.kernel_s()) / 2)
            if tracer is not None:
                # Each untraced iteration is paired with a traced one.
                tracer.run = f"it{len(self.runs)}"
                self.runs.append(tracer.run)
                with tracer.installed():
                    start = time.perf_counter()
                    self.checked.append(workload.iterate(state, work))
                    self.traced_walls.append(time.perf_counter() - start)
        if tracer is not None:
            tracemalloc.start()
            self.checked.append(workload.iterate(state, work))
            self.mem_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    def verdict(self, raised: bool) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every checked output."""
        outcomes = self.checked + self.timed
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.failed for o in outcomes)
        # The same seeded work must give exactly the same outputs every time.
        failed += sum(o.attempted for o in outcomes[1:]
                      if o.signature != outcomes[0].signature)
        if raised:
            attempted = max(attempted, 1)
            return attempted, attempted, ["the run raised"]
        problems = []
        if self.tracer is not None:
            hits = self.tracer.hits()
            missing = [n for n in self.workload.uses if not hits[n]]
            forbidden = [n for n in self.workload.forbids if hits[n]]
            if missing:
                problems.append(f"boundaries never hit: {missing}")
            if forbidden:
                problems.append(f"boundaries that must not be hit: {forbidden}")
        return attempted, failed, problems

    def end_to_end(self, is_train: bool, failed: int, attempted: int):
        """Bounded metrics, then the report-only wall times, loss and error rate.

        Bounded times are read at reference speed: each sample is scaled by
        the reference kernel time measured beside it (see speed.py).
        """
        nominal = self.speed.NOMINAL_S
        rate = "train_records_per_s" if is_train else "predict_records_per_s"
        values = [("setup_s", statistics.median(
                       wall * nominal / ref for wall, ref in zip(self.setup_samples,
                                                                 self.setup_refs)),
                   "s", "at reference speed"),
                  ("records_per_s_ref", statistics.median(
                       o.records_per_s * ref / nominal for o, ref in zip(self.timed,
                                                                         self.refs)),
                   "1/s", f"{rate} at reference speed"),
                  ("peak_rss_mb",
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")]
        # Not bounded: wall times drift with the machine; the loss is exact
        # per seed (checked by verdict) and varies across seeds with the
        # model, and no error is expected.
        extra = [("setup_wall_s", statistics.median(self.setup_samples), "s", "wall"),
                 ("records_per_s", statistics.median(o.records_per_s for o in self.timed),
                  "1/s", f"{rate}, wall"),
                 ("ref_kernel_s", statistics.median(self.refs), "s",
                  f"reference kernel; {nominal} s at reference speed"),
                 ("final_loss" if is_train else "test_loss",
                  statistics.median(o.loss for o in self.timed), "nats",
                  "last epoch mean train loss" if is_train
                  else "mean test cross-entropy of the fused model"),
                 ("error_rate", failed / attempted, "ratio",
                  f"{failed} failed of {attempted} outputs")]
        return values, values + extra

    def per_layer(self, tracing):
        layer = self.tracer.metrics(self.runs)
        layer["model.loss"] = statistics.median(o.loss for o in self.timed)
        layer["mem.traced_peak_mb"] = self.mem_peak_mb
        iteration = statistics.median(self.traced_walls)
        layer["trace.overhead_s"] = iteration - statistics.median(self.walls)
        values = [(k, v, tracing.unit_of(k), "") for k, v in layer.items()]
        lines = [(k, v, u, f"{100 * v / iteration:5.1f}% of a traced iteration"
                  if k.endswith("_s") and k[:-2] not in tracing.SETUP_SPANS
                  and not k.startswith("trace.") else "")
                 for k, v, u, _ in values]
        return values, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import opfuse
        import inputs
        import speed
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the opfuse sources under {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if Path(opfuse.__file__).resolve().parent != SRC / "opfuse":
        print(f"error: opfuse was imported from {opfuse.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    # The opfuse CLI's default log level (OPFUSE_LOG=error).
    logging.basicConfig(level=logging.ERROR, format="%(levelname)s %(name)s: %(message)s")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(inputs.input_dir(args.workload, args.seed))
        print(time.monotonic())
        return 0

    input_dir = inputs.ensure_inputs(args.workload, args.seed, SRC)
    work = inputs.CACHE / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, tracing, speed, bool(args.trace))
    raised = False
    try:
        run.measure(args, input_dir, work)
    except Exception:  # reported as a failed run in the result line
        raised = True
        print(traceback.format_exc(), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = run.verdict(raised)
    correct = failed == 0 and not problems

    values, lines = [], []
    if not raised:
        if args.trace:
            values, lines = run.per_layer(tracing)
            trace_dir = inputs.CACHE / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            run.tracer.dump(trace_dir / f"{args.workload}-s{args.seed}.jsonl")
        else:
            values, lines = run.end_to_end(args.workload != "predict-compare",
                                           failed, attempted)
    facts = {"workload": args.workload, "why": workload.why, "trace": args.trace,
             "iterations": len(run.timed), "warm_up_iterations": 1,
             "records_per_s_samples": [o.records_per_s for o in run.timed],
             "setup_s_samples": run.setup_samples,
             "ref_kernel_s_samples": run.refs,
             "setup_ref_kernel_s_samples": run.setup_refs,
             "machine": machine_facts(args.seed),
             "inputs": json.loads((input_dir / "inputs.json").read_text()),
             "problems": problems}
    report(lines, f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
                  f"{len(run.timed)} timed iterations after 1 warm-up"
                  + ("" if correct else f"  INCORRECT: {problems or 'bad outputs'}"))
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, v, u, _ in values}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
