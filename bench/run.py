#!/usr/bin/env python3
"""Closed-loop benchmark of minkbilliards, end to end and layer by layer.

    python3 bench/run.py --workload trace --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the package under ``src/`` of the tree
it sits in.  One client, one process, one op at a time: the next op starts
when the previous one has finished.  Ops run in rounds of a fixed mix, and
a run stops at the round boundary nearest to ``--seconds``, so every run
measures the same mix.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds, replays inner stages
outside the op spans, and prints the per-layer metrics.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path

from layers import derive
from tracer import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("trace", "exact", "search", "cli")
SETUP_PROBES = 3
# Tail percentile of each workload, fixed so that runs and commits compare
# alike.  For exact, search and cli it is the highest integer percentile that
# leaves at least 10 ops beyond it in a run of the usual length at the seed
# commit (3, 1 and 3 rounds: 36, 36 and 21 ops).  For trace that would be
# p99, but its ~25 ops beyond span a fraction of a second of a run, so its
# value follows the worst moment of load on a shared machine (IQR/median
# 0.24-0.54 over ten seeds); p90 leaves ~250 ops and two seconds beyond it.
TAIL_PCT = {"trace": 90, "exact": 72, "search": 72, "cli": 52}
TAIL_BEYOND = 10
# BLAS/OpenMP pinned to one thread; MBL_WORKERS unset keeps the default
# serial grid scan, so no process pool starts
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
MAX_FAILURES_SHOWN = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print 'ready <import_s>' and exit")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():    # a checkout without .git has no commit to name
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": PINNED_ENV["OMP_NUM_THREADS"],
        "MBL_WORKERS": os.environ.get("MBL_WORKERS", "unset"),
    }


def make_workload(name: str, seed: int, ctx):
    module = __import__(f"wl_{name}")
    return module.Workload(seed, ctx)


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """(value, ops beyond it) of the nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(times)))
    return sorted(times)[rank - 1], len(times) - rank


class Phase:
    """Result of one closed-loop measurement."""

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self.round_times: list[float] = []

    @property
    def ops_per_s(self) -> float:
        """Ops per second of timed wall time, taken from the median round
        (rounds hold the same mix), which a short burst of load on the
        machine does not move."""
        return len(self.op_times) / self.rounds / statistics.median(self.round_times)


def run_op(wl, op, tracer, phase: Phase) -> tuple[float, float]:
    """Run, check and (when traced) replay one op.

    Returns (op seconds, harness seconds spent checking and replaying).
    """
    phase.attempted += 1
    tracer.begin_op(op)
    t0 = time.perf_counter()
    try:
        with tracer.span("op." + wl.name):
            result = wl.execute(op, tracer)
    except Exception as exc:     # a raising op is a failed op; the run goes on
        t1 = time.perf_counter()
        phase.failures.append(f"{wl.name} {op.kind}: raised {exc!r}")
        return t1 - t0, 0.0
    t1 = time.perf_counter()
    bad = wl.check(op, result)
    if bad:
        phase.failures.append(f"{wl.name} {op.kind}: " + "; ".join(bad))
    if tracer.enabled:
        wl.replay(op, result, tracer)
    return t1 - t0, time.perf_counter() - t1


def measure(wl, tracers: list, seconds: float, ids: Iterator[int]) -> list[Phase]:
    """Whole rounds until the round boundary nearest to ``seconds``.

    Round k runs under ``tracers[k % len(tracers)]`` and stops only after
    every tracer has had as many rounds as the others, so a traced run
    alternates traced and untraced rounds and machine drift hits both
    alike.  Checking and replays are harness work and do not count as
    timed wall time.
    """
    phases = [Phase() for _ in tracers]
    round_times: list[float] = []
    start = time.perf_counter()
    harness = 0.0
    r = 0
    while True:
        phase, tracer = phases[r % len(tracers)], tracers[r % len(tracers)]
        r_start, r_harness = time.perf_counter(), 0.0
        for op in wl.round(r):
            op.op_id = next(ids)
            dt, h = run_op(wl, op, tracer, phase)
            phase.op_times.append(dt)
            r_harness += h
        harness += r_harness
        r_time = time.perf_counter() - r_start - r_harness
        round_times.append(r_time)
        phase.rounds += 1
        phase.round_times.append(r_time)
        r += 1
        elapsed = time.perf_counter() - start - harness
        if r % len(tracers) == 0 and elapsed + 0.5 * statistics.fmean(round_times) >= seconds:
            return phases


def setup_probes(args) -> tuple[list[float], list[float]]:
    """Set-up time from a fresh interpreter to ready, several times."""
    setups, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = child.stdout.readline()
        t1 = time.perf_counter()
        child.communicate()
        if child.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"setup probe failed (exit {child.returncode}): {line!r}")
        setups.append(t1 - t0)
        imports.append(float(line.split()[1]))
    return setups, imports


def peak_rss_mb(wl) -> float:
    kib = getattr(wl, "max_rss_kib", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def emit(result: dict, lines: list[str], remarks: list[str]) -> None:
    for line in lines + [f"# note: {r}" for r in dict.fromkeys(remarks)]:
        print(line)
    print(json.dumps(result), flush=True)


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import minkbilliards
    import_s = time.perf_counter() - t0
    if Path(minkbilliards.__file__).resolve().parent != ROOT / "src" / "minkbilliards":
        print(f"imported {minkbilliards.__file__}, not the package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from common import Ctx

    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Ctx(ROOT, work, sys.executable, child_env)
    try:
        wl = make_workload(args.workload, args.seed, ctx)
        warm = Phase()
        run_op(wl, wl.warmup(), NullTracer(), warm)
        if args.setup_probe:
            print(f"ready {import_s!r}", flush=True)
            return 0
        return report(args, wl, ctx, warm)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass        # another run still uses it


def report(args, wl, ctx, warm) -> int:
    setups, imports = setup_probes(args)
    head = [f"# minkbilliards benchmark: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds:g} trace={args.trace}",
            "# env " + json.dumps(environment())]
    if args.trace == 0:
        end_to_end(args, wl, ctx, warm, setups, head)
    else:
        per_layer(args, wl, ctx, warm, imports, head)
    return 0


def end_to_end(args, wl, ctx, warm: Phase, setups: list[float], head: list[str]) -> None:
    [phase] = measure(wl, [NullTracer()], args.seconds, itertools.count())
    pct = TAIL_PCT[args.workload]
    tail_v, beyond = tail(phase.op_times, pct)
    metrics = {
        "ops_per_s": (phase.ops_per_s, "ops/s"),
        "op_p50_ms": (statistics.median(phase.op_times) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MiB"),
    }
    failures = warm.failures + phase.failures
    attempted = warm.attempted + phase.attempted
    failed = len(failures)
    lines = head + [
        f"# ops: attempted={phase.attempted} failed={len(phase.failures)} "
        f"rounds={phase.rounds} measured_s={sum(phase.round_times):.3f} "
        f"tail=p{pct:g} of {len(phase.op_times)} ops ({beyond} beyond)",
        f"# setup_s samples: {[round(s, 4) for s in setups]}",
    ]
    if beyond < TAIL_BEYOND:
        lines.append(f"# warning: only {beyond} ops beyond the p{pct:g} tail")
    lines += [f"{k:<14} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
    # printed with the metrics but not in the JSON line: not bounded (see README)
    lines.append(f"{'op_tail_ms':<14} {tail_v * 1e3:>14.6g} ms (p{pct:g})")
    lines.append(f"{'fail_ratio':<14} {failed / attempted:>14.6g} ({failed}/{attempted})")
    lines += [f"# FAILED {f}" for f in failures[:MAX_FAILURES_SHOWN]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    emit(result, lines, ctx.remarks)


def per_layer(args, wl, ctx, warm: Phase, imports: list[float], head: list[str]) -> None:
    ids = itertools.count()
    tracer = Tracer()
    tracer.source = args.workload
    untraced, traced = measure(wl, [NullTracer(), tracer], args.seconds, ids)
    coverage = Phase()
    others = [w for w in WORKLOADS if w != args.workload]
    for other in others:
        tracer.source = other
        octx = type(ctx)(ctx.root, ctx.work / other, ctx.python, ctx.child_env, ctx.notes,
                         ctx.remarks)
        owl = make_workload(other, args.seed, octx)
        for op in owl.coverage():
            op.op_id = next(ids)
            run_op(owl, op, tracer, coverage)
    values = derive(tracer, args.workload, others)
    overhead = 1.0 - traced.ops_per_s / untraced.ops_per_s
    values["cli.import_s"] = (statistics.median(imports), "s", None)
    values["bench.tracing_overhead_ratio"] = (
        overhead, "ratio",
        f"untraced {untraced.ops_per_s:.6g} ops/s, traced {traced.ops_per_s:.6g} ops/s")
    for name, note in ctx.notes.items():
        v, u, _ = values[name]
        if v is None:
            values[name] = (v, u, note)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    phases = (warm, untraced, traced, coverage)
    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.attempted for p in phases)
    lines = head + [
        f"# untraced: {untraced.ops_per_s:.6g} ops/s over {len(untraced.op_times)} ops; "
        f"traced: {traced.ops_per_s:.6g} ops/s over {len(traced.op_times)} ops; "
        f"coverage ops: {coverage.attempted}",
        f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    for name, (v, u, note) in values.items():
        shown = "null" if v is None else f"{v:.6g}"
        lines.append(f"{name:<40} {shown:>12} {u}" + (f"   ({note})" if note else ""))
    lines.append(f"{'fail_ratio':<40} {len(failures) / attempted:>12.6g} "
                 f"({len(failures)}/{attempted})")
    lines += [f"# FAILED {f}" for f in failures[:MAX_FAILURES_SHOWN]]
    metrics = {}
    for name, (v, u, note) in values.items():
        metrics[name] = {"value": v, "unit": u}
        if v is None:
            metrics[name]["note"] = note
    emit({"correct": not failures, "attempted": attempted, "failed": len(failures),
          "metrics": metrics}, lines, ctx.remarks)


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"## workload {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print("## summary")
    metrics = {}
    for name, res in results.items():
        print(f"{name:<8} fail_ratio {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']})")
        for metric, m in res["metrics"].items():
            metrics[f"{name}.{metric}"] = m
            if args.trace == 0:
                print(f"{name:<8} {metric:<14} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "minkbilliards" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'minkbilliards'}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ.pop("MBL_WORKERS", None)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
