"""End-to-end benchmark of the converging-pairs system.

Run from the repository root::

    python3 perfbench/run.py --p-ref-ms 13.5 --workload truth --seed 1 --seconds 20 --trace 0

``--workload`` is ``truth`` (exact top-k, ``repro truth``), ``topk``
(Algorithm 1, ``repro topk``) or ``serve`` (``repro advance`` plus
requests to the service that ``repro serve`` runs).  Inputs are generated from
``--seed`` into ``.perfbench_work/`` and removed afterwards.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced pass with ``--trace 1``.  The
lines before it carry provenance and the per-class breakdown.  The
program is imported from ``src/``; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("truth", "topk", "serve")
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Every run has at least this many operations, so ten lie beyond p90.
MIN_OPS = 100
#: Set-ups per untraced run; ``serve`` sets up once per pass and runs at
#: least this many passes.
SETUP_REPEATS = {"truth": 5, "topk": 5, "serve": 3}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="reference-host seconds of timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--p-ref-ms", type=float, required=True,
                        help="probe time of the reference host (BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.p_ref_ms <= 0:
        parser.error("--seconds and --p-ref-ms must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(work)  # keeps the service's UNIX socket path short
    try:
        lines, result = run(args, work, work_root / "traces")
    finally:
        os.chdir(previous)
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(json.dumps(line, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args: argparse.Namespace, work: Path, trace_dir: Path
        ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    from clock import HostClock
    from tracer import preload

    preload()  # imports are not part of any timed set-up or operation
    host = HostClock(args.p_ref_ms)
    if args.workload == "serve":
        outcome = run_serve(args, work, host)
    else:
        outcome = run_batch_workload(args, work, host)
    if outcome.spans is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-s{args.seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(span.to_row()) + "\n")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": outcome.inputs,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "p_ref_ms": args.p_ref_ms,
        "probe_quartiles_ms": list(host.quartiles_ms()),
        "probes": len(host.samples),
    }
    lines = [{"provenance": provenance},
             {"breakdown": outcome.breakdown, "diagnostics": outcome.diagnostics}]
    units = END_TO_END_UNITS if not args.trace else outcome.units
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return lines, result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@dataclass
class Outcome:
    """Everything a workload hands back to :func:`run`."""

    inputs: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    breakdown: Dict[str, Any] = field(default_factory=dict)
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    spans: Optional[list] = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcome: Outcome, setup_norm: List[float], records: list) -> None:
    from measure import median, p90

    latencies = [rec.norm_s for rec in records]
    outcome.metrics.update({
        "setup_s": median(setup_norm),
        "latency_ms": median(latencies) * 1000.0,
        "latency_p90_ms": p90(latencies) * 1000.0,
        "ops_per_s": len(records) / sum(latencies),
        "peak_rss_mb": peak_rss_mb(),
    })


def trace_metrics(outcome: Outcome, host: Any, spans: list, untraced: list,
                  traced: list, setup_walls: List[float]) -> Dict[str, float]:
    """``bench.*`` metrics shared by every workload's traced run."""
    from layers import UNITS, layer_metrics
    from measure import median

    metrics = layer_metrics(spans, host.scale)
    metrics.update({
        "bench.probe_ms": median(host.samples) * 1000.0,
        "bench.loadgen_lag_ms": median(
            [r.lag_s * host.scale(r.t0, r.t0) for r in untraced]
        ) * 1000.0,
        "bench.wall_latency_ms": median([r.wall_s for r in untraced]) * 1000.0,
        "bench.wall_setup_s": median(setup_walls),
        "bench.trace_overhead_frac": (
            sum(r.norm_s for r in traced) / sum(r.norm_s for r in untraced) - 1.0
        ),
    })
    outcome.units = UNITS
    outcome.spans = spans
    return metrics


# ----------------------------------------------------------------------
# truth / topk
# ----------------------------------------------------------------------
def run_batch_workload(args: argparse.Namespace, work: Path, host: Any) -> Outcome:
    import batch
    import inputs
    from layers import empty_service_metrics, unattributed_frac
    from measure import SetupTimer, breakdown, run_batch
    from tracer import Tracer

    if args.workload == "truth":
        plan, jobs_of, execute, output_of, verify = (
            batch.TRUTH_PLAN, batch.truth_jobs, batch.run_truth,
            batch.truth_output, batch.verify_truth,
        )
        round_ops = len(batch.TRUTH_FORMS) * len(batch.TRUTH_PLAN)
    else:
        plan, jobs_of, execute, output_of, verify = (
            batch.TOPK_PLAN, batch.topk_jobs, batch.run_topk,
            batch.topk_output, batch.verify_topk,
        )
        round_ops = (len(batch.TOPK_PLAN) * len(batch.TOPK_SELECTORS)
                     * len(batch.TOPK_MS))
    outcome = Outcome()
    files = inputs.generate(work / "inputs", plan, args.seed)
    outcome.inputs = inputs.digest(files)

    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    timers = []
    for _ in range(repeats):
        pairs = None  # the timer's collection frees it, off the set-up's time
        # One step: the set-up takes under a fifth of a second, far less
        # than the seconds over which the host's speed drifts.
        timer = SetupTimer(host)
        pairs = timer(lambda: batch.setup(files))
        timers.append(timer)

    jobs = jobs_of(files, args.seed)
    if args.trace:
        # One round, so the traced list is fixed and counts repeat exactly.
        op_list = list(itertools.islice(jobs, round_ops))
        records = run_batch(iter(op_list), lambda j: execute(j, pairs), host,
                            round_ops=round_ops, target_s=None)
        tracer = Tracer()
        tracer.install()
        try:
            span = tracer.open("setup", "bench.op", op="setup")
            traced_pairs = batch.setup(files)
            tracer.close(span)
            traced = run_batch(iter(op_list), lambda j: execute(j, traced_pairs),
                               host, round_ops=round_ops, target_s=None,
                               tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        records = run_batch(jobs, lambda j: execute(j, pairs), host,
                            round_ops=round_ops, target_s=args.seconds,
                            min_ops=MIN_OPS)
        traced = []

    setup_norm = [timer.normalised_s() for timer in timers]
    setup_walls = [timer.wall_s() for timer in timers]
    by_id = {}
    firsts: Dict[str, Any] = {}
    for rec in records + traced:
        if rec.ok:
            rec.output = output_of(rec.output)
    for rec in records:
        if rec.ok and rec.job_id not in firsts:
            firsts[rec.job_id] = rec.output
    for job in itertools.islice(jobs_of(files, args.seed), round_ops):
        by_id[job.job_id] = job
    scales = {f.key: f.scale for f in files}
    verdicts = verify(firsts, by_id, pairs, scales)
    failed = sum(
        1 for rec in records
        if not (rec.ok and verdicts.get(rec.job_id) and rec.output == firsts[rec.job_id])
    )
    mismatched = sum(
        1 for a, b in zip(records, traced) if not (b.ok and b.output == a.output)
    )
    outcome.attempted = len(records) + len(traced)
    outcome.failed = failed + mismatched

    end_to_end(outcome, setup_norm, records)
    outcome.breakdown = breakdown(records)
    outcome.diagnostics = {
        "ops": len(records),
        "wall_latency_ms": statistics.median(r.wall_s for r in records) * 1000.0,
        "wall_setup_s": statistics.median(setup_walls),
        "setup_s_each": setup_norm,
        "verified_jobs": len(verdicts),
        "trace_mismatches": mismatched,
    }
    if args.trace:
        spans = tracer.spans
        metrics = trace_metrics(outcome, host, spans, records, traced, setup_walls)
        metrics.update(empty_service_metrics())
        metrics["bench.trace_unattributed_frac"] = unattributed_frac(spans)
        outcome.metrics = metrics
        outcome.breakdown = {"untraced": outcome.breakdown,
                             "traced": breakdown(traced)}
    return outcome


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def run_serve(args: argparse.Namespace, work: Path, host: Any) -> Outcome:
    import inputs
    import serve
    from layers import service_metrics, unattributed_frac
    from measure import SetupTimer, breakdown, run_batch
    from repro.datasets import io
    from tracer import Tracer

    outcome = Outcome()
    files = inputs.generate(
        work / "inputs", [(serve.SERVE_REGIME, serve.SERVE_SCALE, 0)], args.seed
    )
    outcome.inputs = inputs.digest(files)
    stream = files[0].path
    jobs = serve.request_jobs(args.seed, serve.node_pool(stream),
                              io.read_edge_stream(stream).num_events)
    loop = asyncio.new_event_loop()

    def serve_pass(tag: str, tracer: Any = None) -> tuple:
        """One set-up, then every request the stream has windows for."""
        if tracer is not None:
            tracer.install()
        try:
            timer = SetupTimer(host)
            span = tracer.open("setup", "bench.op", op="setup") if tracer else None
            hosted = serve.set_up(loop, stream, work / f"wal-{tag}",
                                  f"svc-{tag}.sock", timer)
            if span is not None:
                tracer.close(span)
            records = run_batch(
                iter(jobs), lambda j: serve.execute(loop, hosted, j),
                host, round_ops=len(jobs), target_s=None, tracer=tracer,
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        final = serve.final_answers(loop, hosted, jobs)
        loop.run_until_complete(serve.stop(hosted))
        verdicts = serve.verify(stream, hosted.wal_dir, final)
        return (timer, records, final, verdicts,
                hosted.service.counters.to_payload())

    timers, records, verdicts = [], [], {}
    try:
        # Whole passes, as the batch workloads run whole rounds: stop once
        # the next pass would end more than half a pass past --seconds.
        while True:
            timer, pass_records, final, checks, counters = serve_pass(
                f"p{len(timers)}"
            )
            timers.append(timer)
            records += pass_records
            verdicts.update({f"{len(timers)}:{key}": ok
                             for key, ok in checks.items()})
            elapsed = sum(r.norm_s for r in records)
            if args.trace or (
                len(timers) >= SETUP_REPEATS["serve"]
                and elapsed + 0.5 * elapsed / len(timers) >= args.seconds
            ):
                break
        if args.trace:
            tracer = Tracer()
            _, traced, traced_final, traced_verdicts, traced_counters = (
                serve_pass("traced", tracer)
            )
    finally:
        loop.close()
    outcome.attempted = len(records) + len(verdicts)
    outcome.failed = sum(1 for r in records if not r.ok)
    outcome.failed += sum(1 for ok in verdicts.values() if not ok)
    setup_norm = [timer.normalised_s() for timer in timers]
    setup_walls = [timer.wall_s() for timer in timers]
    end_to_end(outcome, setup_norm, records)
    outcome.breakdown = breakdown(records)
    outcome.diagnostics = {
        "ops": len(records),
        "passes": len(timers),
        "wall_latency_ms": statistics.median(r.wall_s for r in records) * 1000.0,
        "wall_setup_s": statistics.median(setup_walls),
        "setup_s_each": setup_norm,
        "counters": counters,
        "trace_mismatches": 0,
    }
    if args.trace:
        mismatched = sum(
            1 for key, served in final.items() if traced_final.get(key) != served
        )
        outcome.attempted += len(traced) + len(traced_verdicts)
        outcome.failed += sum(1 for r in traced if not r.ok) + mismatched
        outcome.failed += sum(1 for ok in traced_verdicts.values() if not ok)
        outcome.diagnostics["trace_mismatches"] = mismatched
        spans = tracer.spans
        metrics = trace_metrics(outcome, host, spans, records, traced, setup_walls)
        metrics.update(service_metrics(
            spans, host.scale, traced[-1].t1 - traced[0].t0, traced_counters
        ))
        metrics["bench.trace_unattributed_frac"] = unattributed_frac(spans)
        outcome.metrics = metrics
        outcome.breakdown = {"untraced": outcome.breakdown,
                             "traced": breakdown(traced)}
    return outcome


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
