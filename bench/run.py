"""graftkit benchmark: one command, one process, one thread.

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; graftkit is imported from its src/.
With --trace 0 it prints the end-to-end metrics job_s, setup_s and
peak_heap_mib; with --trace 1 the per-layer metrics of a traced run. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; with --workload all, the three workloads
run in turn and that line sums their counts and names each metric
<workload>.<metric>. Results and spans are also written under
bench/out/. See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import fmean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 12
HASH_SEED = "0"

sys.path.insert(0, str(BENCH))
import timing  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_heap_mib": "MiB"}


def load_graftkit():
    """Import graftkit from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    # Cache bytecode even where the environment turns caching off, so that
    # the set-up children import graftkit as an installed copy would, not
    # compiling it, whatever the environment says.
    sys.dont_write_bytecode = False
    try:
        import graftkit
    except ImportError as exc:
        sys.exit(f"bench: cannot import graftkit from {src}: {exc}")
    if Path(graftkit.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: graftkit was imported from {graftkit.__file__}, "
                 f"not from {src}")
    return graftkit


def timed(fn):
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def time_kernel() -> float:
    seconds, checksum = timed(timing.reference_kernel)
    if checksum != timing.KERNEL_CHECKSUM:
        sys.exit(f"bench: reference kernel checksum {checksum} is not "
                 f"{timing.KERNEL_CHECKSUM}")
    return seconds


class Tally:
    """Repetitions attempted and failed, and the problems found. correct
    turns false when an output fails a check; a job that raises is a
    failed repetition with no output to judge."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def run(self, job=None, kernels=None):
        """One checked repetition; returns its job time, or None when the
        job raised. A repetition that fails a check still ran: its time
        counts, and it is counted as failed. With a kernels list, the
        kernel is timed right before and right after the job, before the
        check, so that the two calls sample the host speed the job saw."""
        self.attempted += 1
        if kernels is not None:
            kernels.append(time_kernel())
        try:
            seconds, outputs = timed(job or self.workload.job)
        except Exception as exc:  # a repetition that raises is a failure
            self.failed += 1
            self.problems.append(f"job raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if kernels is not None:
                kernels.append(time_kernel())
        try:
            problems = self.workload.check(outputs)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"output is malformed: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.correct = False
            self.problems += problems
        return seconds


def measure_setup(args, name: str) -> tuple:
    """Child interpreters that import graftkit and build the workload's
    inputs, alternated with the kernel. The first child is a warm-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--setup-child"]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    children, kernels = [], []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=False)
        if done.returncode != 0:
            sys.exit(f"bench: set-up child failed: {done.stderr.strip()}")
        if i:
            children.append(float(done.stdout.split()[-1]))
            kernels.append(time_kernel())
    return children, kernels


def setup_child(args) -> None:
    start = time.perf_counter()
    gk = load_graftkit()
    WORKLOADS[args.workload]().prepare(gk, args.seed)
    print(repr(time.perf_counter() - start))


def run_untraced(args, workload, tally):
    setup, setup_kernels = measure_setup(args, workload.name)
    tally.run()  # warm-up: caches, lazy imports, the first export digest
    tracemalloc.start()
    tally.run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    jobs, kernels = [], []
    deadline = time.perf_counter() + args.seconds
    while not kernels or time.perf_counter() < deadline:
        seconds = tally.run(kernels=kernels)
        if seconds is not None:
            jobs.append(seconds)
    if not jobs:
        sys.exit("bench: every repetition raised: " + tally.problems[-1])
    metrics = {
        "job_s": timing.normalised(jobs, kernels),
        "setup_s": timing.median_normalised(setup, setup_kernels),
        "peak_heap_mib": peak / 2 ** 20,
    }
    detail = {
        "job_raw_median_s": median(jobs),
        "job_raw_mean_s": fmean(jobs),
        "job_repetitions": len(jobs),
        "kernel_raw_median_s": median(kernels),
        "setup_raw_median_s": median(setup),
        "setup_kernel_raw_median_s": median(setup_kernels),
    }
    return {n: (v, END_TO_END[n]) for n, v in metrics.items()}, detail


def run_traced(args, workload, tally):
    """Alternate untraced repetitions, each between two kernel calls, and
    traced ones; counts come from the traced ones and must repeat
    exactly. A traced repetition's spans are dropped, or kept as text,
    before the next kernel call, so that they do not slow the collector
    during it."""
    trace = tracer.Tracer()
    tally.run()
    untraced, traced, kernels = [], [], []
    per_rep = []
    first_spans = None
    deadline = time.perf_counter() + args.seconds

    def traced_job():
        trace.reset()
        trace.install(workload.gk)
        try:
            return workload.job()
        finally:
            trace.uninstall()

    while not kernels or time.perf_counter() < deadline:
        seconds = tally.run(kernels=kernels)
        if seconds is not None:
            untraced.append(seconds)
        seconds = tally.run(traced_job)
        if seconds is not None:
            traced.append(seconds)
            per_rep.append(tracer.layer_metrics(
                trace.calls, trace.outcomes, tracer.self_times(trace.spans)))
            if first_spans is None:
                first_spans = spans_json(trace.spans)
        trace.reset()
    if not traced or not untraced:
        sys.exit("bench: every repetition raised: " + tally.problems[-1])
    scale = timing.NOMINAL_KERNEL_S / fmean(kernels)
    metrics = {}
    for name, (unit, _) in tracer.PER_LAYER.items():
        if name.startswith("trace."):
            continue
        values = [rep[name] for rep in per_rep]
        if unit == "s":
            metrics[name] = fmean(values) * scale
        else:
            if len(set(values)) != 1:
                tally.correct = False
                tally.problems.append(f"{name} differs between traced "
                                      f"repetitions: {sorted(set(values))}")
            metrics[name] = values[0]
    metrics["trace.job_s"] = timing.normalised(traced, kernels)
    metrics["trace.overhead_ratio"] = fmean(traced) / fmean(untraced)
    detail = {"traced_repetitions": len(traced),
              "untraced_job_s": timing.normalised(untraced, kernels),
              "kernel_raw_median_s": median(kernels)}
    return ({n: (v, tracer.PER_LAYER[n][0]) for n, v in metrics.items()},
            detail, first_spans)


def spans_json(spans) -> str:
    """Spans as compact JSON: name indices, nanoseconds from the first
    span's start, and parent indices (-1 for a root)."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    return json.dumps({"names": names,
                       "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [[index[n], round((s - origin) * 1e9),
                                  round((e - origin) * 1e9), p]
                                 for n, s, e, p in spans]},
                      separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_child:
        setup_child(args)
        return 0
    # String hashing is fixed so that set and dict layouts, and with them
    # the timings, do not vary with a per-process hash seed. exec keeps
    # this one process.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    gk = load_graftkit()
    if args.workload != "all":
        print(json.dumps(run_workload(gk, args, args.workload)))
        return 0
    results = {name: run_workload(gk, args, name) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def run_workload(gk, args, name: str) -> dict:
    """Run one workload, print its metrics and write its result file."""
    workload = WORKLOADS[name]()
    workload.prepare(gk, args.seed)
    tally = Tally(workload)
    spans = None
    if args.trace:
        metrics, detail, spans = run_traced(args, workload, tally)
    else:
        metrics, detail = run_untraced(args, workload, tally)

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"repetitions attempted {tally.attempted}  failed {tally.failed}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:42} {value:14.6f} {unit}")
    for metric, value in detail.items():
        print(f"  ({metric} {value:.6g})")
    for problem in tally.problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, detail=detail), handle, indent=1)
    if spans:
        (OUT / f"spans-{stem}.json").write_text(spans, encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
