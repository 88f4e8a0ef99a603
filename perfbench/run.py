#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ldscheme.

    python3 perfbench/run.py --workload rate-ou --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ./src; there
is no fallback to an installed copy, so the command fails when the sources
are missing.

--trace 0 measures set-up time in fresh interpreters, then runs passes over
the workload's task list (at least one, more until --seconds have passed)
and reports the end-to-end metrics as medians over passes.  --trace 1 runs
one untraced pass, reruns its Monte Carlo tasks at two workers, then runs
one traced pass and reports the per-layer metrics.  Every task's output is
checked against an exact answer in both modes.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # run records, spans and task scratch directories; ignored by git
SETUP_REPEATS = 5
TARGET_RELERR = 0.01

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "minimize_s": "s",
    "replica_steps_per_s": "1/s",
    "time_to_1pct_s": "s",
    "task_fail_ratio": "ratio",
    "task_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "wall_raw_s": "s",
    "setup_raw_s": "s",
}
# minimize_s is 0 on naive-mc and task_fail_ratio is 0 where every task
# succeeds; both are printed but kept out of the gated JSON metrics, which
# must never read 0 (task_ok_ratio carries the same information).  The raw
# wall-clock times are printed next to the normalized ones (see meter.py).
PRINT_ONLY = ("minimize_s", "task_fail_ratio", "wall_raw_s", "setup_raw_s")


def load_package():
    """Import ldscheme from ./src or exit with code 2."""
    if not (SRC / "ldscheme" / "__init__.py").is_file():
        print(f"error: no ldscheme sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ldscheme

    if Path(ldscheme.__file__).resolve().parent != (SRC / "ldscheme").resolve():
        print(f"error: imported ldscheme from {ldscheme.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload: str, repeats: int, meter) -> list:
    """(raw, normalized) seconds for a fresh interpreter to import ldscheme and build the models."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import ldscheme, models; "
            "models.build_models(sys.argv[3])")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE), workload], check=True)
        t1 = time.perf_counter()
        times.append((t1 - t0, meter.normalize(t0, t1)))
    return times


def _span_seconds(span) -> float:
    return span[1] - span[0]


@dataclass
class Outcome:
    task: object
    span: tuple  # perf_counter interval of the timed call
    assessment: object  # workloads.Assessment, or None after an error
    error: str = ""

    @property
    def seconds(self) -> float:
        return _span_seconds(self.span)

    @property
    def failed(self) -> bool:
        """The output is missing or wrong."""
        return bool(self.error) or not all(ok for _, ok, _ in self.assessment.checks)

    @property
    def ok(self) -> bool:
        """The output is right and every expected success flag is set."""
        return not self.failed and all(ok for _, ok in self.assessment.flags)


@dataclass
class Pass:
    span: tuple
    wall: float  # the root span's duration when traced, else the span's length
    outcomes: list

    def metrics(self, seconds=_span_seconds) -> dict:
        """End-to-end metrics of this pass; `seconds` turns an interval into a duration."""
        done = [o for o in self.outcomes if not o.error]
        mc_time = sum(seconds(o.span) for o in self.outcomes if o.task.role == "mc")
        steps = sum(o.assessment.replica_steps for o in done)
        return {
            "wall_s": seconds(self.span),
            "minimize_s": sum(seconds(o.span) for o in self.outcomes if o.task.role == "minimize"),
            "replica_steps_per_s": steps / mc_time if mc_time > 0.0 else 0.0,
            "time_to_1pct_s": sum(
                seconds(o.span) * o.assessment.relvar / TARGET_RELERR**2
                for o in done if o.task.estimate and o.assessment.relvar is not None
            ),
        }


def run_pass(tasks, seeds, workers=1, tracer=None, small=False) -> Pass:
    """Prepare, time and assess each task once; the pass excludes assessment."""
    import workloads

    raw = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        t0 = time.perf_counter()
        with tracer.span("pass") if tracer else nullcontext() as root:
            for i, (task, seed) in enumerate(zip(tasks, seeds)):
                if tracer:
                    tracer.trace_id = i
                with tracer.span(task.name) if tracer else nullcontext():
                    env = workloads.Env(Path(tmp), seed, workers, small)
                    start = time.perf_counter()
                    try:
                        call = task.prepare(env)
                        start = time.perf_counter()
                        result = call()
                        raw.append((task, (start, time.perf_counter()), result, ""))
                    except Exception as exc:  # a failed task is reported, the run goes on
                        raw.append((task, (start, time.perf_counter()), None, f"{type(exc).__name__}: {exc}"))
        t1 = time.perf_counter()
        outcomes = []
        for task, span, result, error in raw:
            assessment = None
            if not error:
                try:
                    assessment = task.assess(result)
                except Exception as exc:  # malformed output counts as a failed check
                    error = f"assessment: {type(exc).__name__}: {exc}"
            outcomes.append(Outcome(task, span, assessment, error))
    return Pass((t0, t1), root.duration if tracer else t1 - t0, outcomes)


def describe(p: Pass, label: str) -> list:
    lines = []
    for o in p.outcomes:
        if o.error:
            lines.append(f"# {label} {o.task.name}: {o.seconds:.3f} s  ERROR {o.error}")
            continue
        a = o.assessment
        bad = [f"{n} ({d})" for n, ok, d in a.checks if not ok] + [n for n, ok in a.flags if not ok]
        status = "ok" if o.ok else ("WRONG: " if o.failed else "unmet: ") + "; ".join(bad)
        lines.append(f"# {label} {o.task.name}: {o.seconds:.3f} s  digest {a.digest}  {status}")
    return lines


def _end_to_end(workload, seed, seconds, small, setup_repeats):
    import workloads
    from meter import SpeedMeter, pinned_to_one_cpu

    tasks = workloads.tasks(workload)
    passes, lines = [], []
    with pinned_to_one_cpu(), SpeedMeter() as meter:
        setup = measure_setup(workload, setup_repeats, meter)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            seeds = workloads.task_seeds(seed, len(passes), len(tasks))
            passes.append(run_pass(tasks, seeds, small=small))
            lines += describe(passes[-1], f"pass {len(passes) - 1}")
    per_pass = [p.metrics(lambda span: meter.normalize(*span)) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    outcomes = [o for p in passes for o in p.outcomes]
    fail_ratio = sum(not o.ok for o in outcomes) / len(outcomes)
    metrics.update(
        setup_s=statistics.median(norm for _, norm in setup),
        setup_raw_s=statistics.median(raw for raw, _ in setup),
        wall_raw_s=statistics.median(p.wall for p in passes),
        task_fail_ratio=fail_ratio,
        task_ok_ratio=1.0 - fail_ratio,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    probes = [e - s for s, e in zip(meter.starts, meter.ends)]
    lines.append(f"# {len(passes)} pass(es), {len(probes)} speed probes, median probe "
                 f"{1e3 * statistics.median(probes):.4f} ms; raw wall per pass: "
                 + ", ".join(f"{p.wall:.3f}" for p in passes))
    lines.append("# set-up runs, raw / normalized: " + ", ".join(f"{r:.3f}/{n:.3f}" for r, n in setup))
    shown = {k: metrics[k] for k in UNITS}
    gated = {k: v for k, v in metrics.items() if k not in PRINT_ONLY}
    return passes, lines, shown, gated


def _per_layer(workload, seed, small, nproc):
    import workloads
    from tracing import Tracer

    tasks = workloads.tasks(workload)
    lines = []
    seeds = workloads.task_seeds(seed, 0, len(tasks))
    base = run_pass(tasks, seeds, small=small)
    mc = [(t, s) for t, s in zip(tasks, seeds) if t.role == "mc"]
    workers = min(2, nproc)
    rerun = run_pass([t for t, _ in mc], [s for _, s in mc], workers=workers, small=small)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(tasks, seeds, tracer=tracer, small=small)
    finally:
        tracer.uninstall()
    for label, p in (("untraced", base), (f"workers={workers}", rerun), ("traced", traced)):
        lines += describe(p, label)
    digests = lambda p: {o.task.name: o.assessment.digest for o in p.outcomes if not o.error}
    lines.append(f"# traced outputs match untraced: {digests(traced) == digests(base)}; "
                 f"workers={workers} outputs match workers=1: "
                 f"{all(digests(base).get(k) == v for k, v in digests(rerun).items())}")
    speedup = sum(o.seconds for o in base.outcomes if o.task.role == "mc") / sum(o.seconds for o in rerun.outcomes)
    gated = tracer.layer_metrics()
    gated.update({
        "cli.bytes_written": sum(o.assessment.bytes_written for o in traced.outcomes if not o.error),
        "rare_event.workers2_speedup": speedup,
        "trace.wall_s": traced.wall,
        "trace.overhead_s": traced.wall - base.wall,
    })
    spans_path = OUT / f"spans-{workload}.csv.gz"
    tracer.write_spans(spans_path)
    lines.append(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    lines.append(f"# workers2 speedup {speedup:.3f} at workers={workers} "
                 f"({'reaches' if speedup >= 1.3 else 'below'} 1.3x)")
    for text, holds in workloads.predictions(workload, gated):
        lines.append(f"# prediction: {text}: {'holds' if holds else 'DOES NOT HOLD'}")
    return [base, rerun, traced], lines, gated, gated


def run_workload(workload, seed, seconds, trace, small=False, setup_repeats=SETUP_REPEATS) -> dict:
    """Run one workload; returns the result record (metrics, counts, env, log lines)."""
    env = environment()
    if trace:
        passes, lines, shown, gated = _per_layer(workload, seed, small, env["nproc"])
    else:
        passes, lines, shown, gated = _end_to_end(workload, seed, seconds, small, setup_repeats)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(o.failed for o in outcomes)
    return {
        "env": env,
        "lines": lines,
        "shown": shown,
        "gated": gated,
        "attempted": len(outcomes),
        "failed": failed,
        "correct": failed == 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# env: {json.dumps(res['env'])}")
    print("\n".join(res["lines"]))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    units.update(UNITS)
    for name, value in res["shown"].items():
        print(f"# {name:<38} {value:>16.6g} {units.get(name, '')}")
    record = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in res["gated"].items()},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps({**record, "env": res["env"], "seed": args.seed, "lines": res["lines"]}, indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
