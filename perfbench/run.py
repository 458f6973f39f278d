#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload core-bulk --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the timed region once with tracing off, checks the delivered
decisions against the workload's reference and prints every end-to-end
metric.  ``--trace 1`` runs the timed region twice, untraced and then with
timing spans around the package's public callables, checks both, and prints
every per-layer metric; the spans are written to
``.bench_work/<workload>.spans.jsonl``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.measure import (failed_ratio, tail_percentile,  # noqa: E402
                               windowed_percentile)
from perfbench.spans import SpanRecorder, coverage, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, clock  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: Latency percentiles are taken per slice of the run and reported as the
#: median over the slices (:func:`perfbench.measure.windowed_percentile`).
LATENCY_WINDOWS = 5

#: (name, unit) of every end-to-end metric, printed with tracing off.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("throughput_pps", "points/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ok_ratio", "share"),
    ("peak_rss_mb", "MB"),
]

#: Span name -> (owner module, owner attribute or None, attribute, options).
#: Each callable is patched where its caller looks it up: methods on their
#: class (shard threads call through it), functions in the importing
#: module's namespace (``fast_store`` calls its ``_grouped_stream_stats``
#: alias, the service calls its own ``clone_detector`` import).
TRACED: Dict[str, Tuple[str, str, str, dict]] = {
    "core.detector.process_batch":
        ("repro.core.detector", "SPOT", "process_batch", {"count": len}),
    "core.detector.learn": ("repro.core.detector", "SPOT", "learn", {}),
    "core.detector.apply_learn_publication":
        ("repro.core.detector", "SPOT", "apply_learn_publication", {}),
    "core.detector.export_state":
        ("repro.core.detector", "SPOT", "export_state", {}),
    "core.fast_store.plan_batch":
        ("repro.core.fast_store", "VectorizedSynapseStore", "plan_batch", {}),
    "core.fast_store.decide":
        ("repro.core.fast_store", "BatchPlan", "decide", {}),
    "core.fast_store.commit":
        ("repro.core.fast_store", "BatchPlan", "commit", {}),
    "core.kernels.quantize_batch":
        ("repro.core.fast_store", None, "quantize_batch", {}),
    "core.kernels.grouped_stream_stats":
        ("repro.core.fast_store", None, "_grouped_stream_stats", {}),
    "core.kernels.batch_irsd":
        ("repro.core.fast_store", None, "batch_irsd", {}),
    "streams.drift.observe_cells":
        ("repro.streams.drift", "DriftDetector", "observe_cells", {}),
    "moga.engine.run": ("repro.moga.engine", "MOGAEngine", "run", {}),
    "service.service.submit":
        ("repro.service.service", "DetectionService", "submit", {}),
    "service.service.checkpoint":
        ("repro.service.service", "DetectionService", "checkpoint", {}),
    "service.batcher.next_batch":
        ("repro.service.batcher", "MicroBatcher", "next_batch",
         {"keep_receiver": True}),
    "service.learning.ticket_wait":
        ("repro.service.learning", "LearnTicket", "wait", {}),
    # No metric of its own: it is the root span of each learn request on
    # a learning worker thread, so the MOGA runs inside it carry its id.
    "service.learning.evaluate_learn_request":
        ("repro.service.learning", None, "evaluate_learn_request", {}),
    "service.checkpoint.save":
        ("repro.service.checkpoint", "CheckpointManager", "save", {}),
    "persist.clone_detector":
        ("repro.service.service", None, "clone_detector", {}),
    "obs.recorder.record_decision":
        ("repro.obs.recorder", "FlightRecorder", "record_decision", {}),
    "obs.slo.observe_delivery":
        ("repro.obs.slo", "SLOTracker", "observe_delivery", {}),
}

#: (name, unit) of every per-layer metric, printed with tracing on.  Names
#: ending in ``.calls``, ``.busy_s`` or ``.self_s`` after a traced span name
#: are read from the spans; the rest are computed in :func:`layer_metrics`.
PER_LAYER: List[Tuple[str, str]] = [
    ("core.detector.process_batch.calls", "count"),
    ("core.detector.process_batch.points_per_call", "points"),
    ("core.detector.process_batch.busy_s", "s"),
    ("core.detector.process_batch.self_s", "s"),
    ("core.detector.learn.busy_s", "s"),
    ("core.detector.apply_learn_publication.calls", "count"),
    ("core.detector.apply_learn_publication.busy_s", "s"),
    ("core.detector.export_state.calls", "count"),
    ("core.detector.export_state.busy_s", "s"),
    ("core.fast_store.plan_batch.busy_s", "s"),
    ("core.fast_store.plan_batch.self_s", "s"),
    ("core.fast_store.decide.busy_s", "s"),
    ("core.fast_store.commit.busy_s", "s"),
    ("core.kernels.quantize_batch.calls", "count"),
    ("core.kernels.quantize_batch.busy_s", "s"),
    ("core.kernels.grouped_stream_stats.calls", "count"),
    ("core.kernels.grouped_stream_stats.busy_s", "s"),
    ("core.kernels.batch_irsd.calls", "count"),
    ("core.kernels.batch_irsd.busy_s", "s"),
    ("streams.drift.observe_cells.busy_s", "s"),
    ("moga.engine.run.calls", "count"),
    ("moga.engine.run.busy_s", "s"),
    ("service.service.submit.calls", "count"),
    ("service.service.submit.busy_s", "s"),
    ("service.service.checkpoint.calls", "count"),
    ("service.service.checkpoint.busy_s", "s"),
    ("service.batcher.next_batch.busy_s", "s"),
    ("service.batcher.mean_batch_size", "points"),
    ("service.batcher.producer_blocks", "count"),
    ("service.batcher.peak_pending", "points"),
    ("service.worker.busy_s", "s"),
    ("service.worker.path_p50_ms", "ms"),
    ("service.worker.path_p99_ms", "ms"),
    ("service.learning.requests", "count"),
    ("service.learning.busy_s", "s"),
    ("service.learning.ticket_wait.busy_s", "s"),
    ("service.learning.context_reuse_ratio", "share"),
    ("service.learning.memo_hit_ratio", "share"),
    ("service.checkpoint.save.calls", "count"),
    ("service.checkpoint.save.busy_s", "s"),
    ("service.checkpoint.bytes", "B"),
    ("persist.clone_detector.busy_s", "s"),
    ("obs.recorder.record_decision.calls", "count"),
    ("obs.recorder.record_decision.busy_s", "s"),
    ("obs.slo.observe_delivery.busy_s", "s"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.backlog_max", "points"),
    ("bench.latency_p999_ms", "ms"),
    ("bench.reference_pps", "points/s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage", "share"),
    ("bench.recall", "share"),
    ("bench.precision", "share"),
]


def patch_rows() -> List[Tuple[object, str, str, dict]]:
    """The :data:`TRACED` table resolved to live owners."""
    rows = []
    for name, (module, owner, attr, options) in TRACED.items():
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        rows.append((target, attr, name, options))
    return rows


def run_once(workload, setups: int):
    """Set up ``setups`` times (keeping the last), drive the timed region,
    stop; returns the set-up times, the stopped system and the outcome."""
    times = []
    system = None
    for k in range(setups):
        started = clock()
        system = workload.setup()
        times.append(clock() - started)
        if k < setups - 1:
            workload.stop(system)
    gc.collect()
    outcome = workload.drive(system)
    workload.stop(system)
    return times, system, outcome


def _ms(samples: List[float]) -> List[float]:
    return [1e3 * s for s in samples]


def latency_ms(workload, outcome: Outcome, q: float):
    """Windowed latency percentile (ms) and its per-window percentiles."""
    start = outcome.window[0]
    return windowed_percentile(outcome.latency_stamps, _ms(outcome.latencies),
                               q, LATENCY_WINDOWS,
                               (start, start + workload.seconds))


def end_to_end_metrics(workload, setup_times: List[float],
                       outcome: Outcome, peak_rss_mb: float
                       ) -> Tuple[Dict[str, float], List[str]]:
    p50, p50_slices = latency_ms(workload, outcome, 50.0)
    p99, p99_slices = latency_ms(workload, outcome, 99.0)
    ratio = failed_ratio(outcome.attempted, outcome.outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "throughput_pps": outcome.throughput,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "ok_ratio": 1.0 - ratio,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"setup_s: median of {len(setup_times)} set-ups",
    ]
    for name, slices in (("latency_p50_ms", p50_slices),
                         ("latency_p99_ms", p99_slices)):
        notes.append(f"{name}: median over {len(slices)} windows of "
                     + ", ".join(f"p{s.percentile:.2f} of {s.samples}"
                                 for s in slices) + " samples")
    notes += [
        f"failed_ratio {ratio:.6f} share ({outcome.failed} of "
        f"{outcome.attempted} attempted); ok_ratio = 1 - failed_ratio",
    ]
    return values, notes


def layer_metrics(workload, base: Outcome, traced: Outcome, system,
                  recorder: SpanRecorder, reference_pps: float
                  ) -> Dict[str, float]:
    spans = recorder.spans()
    table = summarize(spans)
    values: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in TRACED and field in ("calls", "busy_s", "self_s"):
            values[name] = table.get(span, {}).get(field, 0)
    batch_row = table.get("core.detector.process_batch")
    values["core.detector.process_batch.points_per_call"] = (
        batch_row["count"] / batch_row["calls"] if batch_row else 0.0)

    batchers = recorder.receivers.get("service.batcher.next_batch", {})
    batcher_stats = [b.stats() for b in batchers.values()]
    emitted = sum(s["batches_emitted"] for s in batcher_stats)
    values["service.batcher.mean_batch_size"] = (
        sum(s["points_emitted"] for s in batcher_stats) / emitted
        if emitted else 0.0)
    values["service.batcher.producer_blocks"] = sum(
        s["producer_blocks"] for s in batcher_stats)
    values["service.batcher.peak_pending"] = max(
        (s["peak_pending"] for s in batcher_stats), default=0.0)

    stats = traced.service_stats or {}
    summary = traced.latency_summary or {}
    values["service.worker.busy_s"] = stats.get("busy_seconds", 0.0)
    values["service.worker.path_p50_ms"] = summary.get("path_p50_ms", 0.0)
    values["service.worker.path_p99_ms"] = summary.get("path_p99_ms", 0.0)
    learning = stats.get("learning") or {}
    requests = learning.get("requests", 0)
    lookups = learning.get("memo_hits", 0) + learning.get("memo_misses", 0)
    values["service.learning.requests"] = requests
    values["service.learning.busy_s"] = learning.get("busy_seconds", 0.0)
    values["service.learning.context_reuse_ratio"] = (
        learning.get("context_reuses", 0) / requests if requests else 0.0)
    values["service.learning.memo_hit_ratio"] = (
        learning.get("memo_hits", 0) / lookups if lookups else 0.0)
    values["service.checkpoint.bytes"] = (
        workload.checkpoint_bytes(system)
        if hasattr(workload, "checkpoint_bytes") else 0)

    values["bench.gen_lag_p99_ms"] = (
        tail_percentile(_ms(base.lateness), 99.0).value
        if base.lateness else 0.0)
    values["bench.backlog_max"] = base.backlog_max
    values["bench.latency_p999_ms"] = tail_percentile(
        _ms(base.latencies), 99.9).value
    values["bench.reference_pps"] = reference_pps
    if getattr(workload, "rate", None):
        # Fixed offered rate: tracing shows up as latency, not throughput.
        before = latency_ms(workload, base, 50.0)[0]
        after = latency_ms(workload, traced, 50.0)[0]
        values["bench.trace_overhead_pct"] = 100.0 * (after - before) / before
    else:
        values["bench.trace_overhead_pct"] = 100.0 * (
            base.throughput - traced.throughput) / base.throughput
    anchor = ("core.detector.process_batch" if workload.name == "core-bulk"
              else "service.batcher.next_batch")
    values["bench.span_coverage"] = coverage(spans, anchor, traced.window)
    quality = workload.quality(base)
    values["bench.recall"] = quality["recall"]
    values["bench.precision"] = quality["precision"]
    return values


def _reference_pps(workload, outcomes: List[Outcome]) -> float:
    if workload.name == "core-bulk":
        return workload.reference().points_per_second
    longest = max(outcome.attempted for outcome in outcomes)
    return workload.reference(longest).points_per_second


def untraced_run(workload):
    """End-to-end metrics: several set-ups, one timed region, the gate."""
    setup_times, system, outcome = run_once(workload, SETUP_REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check(outcome, system)
    values, lines = end_to_end_metrics(workload, setup_times, outcome,
                                       peak_rss_mb)
    quality = workload.quality(outcome)
    lines.append(f"recall {quality['recall']:.4f}, precision "
                 f"{quality['precision']:.4f} against the generator's labels")
    lines.append(f"reference {_reference_pps(workload, [outcome]):.1f} "
                 f"points/s (single-threaded)")
    return values, problems, [outcome], lines


def traced_run(workload, spans_path: Path):
    """Per-layer metrics: an untraced then a traced timed region, both
    checked; the spans are written to ``spans_path``."""
    _, base_system, base = run_once(workload, 1)
    problems = workload.check(base, base_system)
    recorder = SpanRecorder()
    with recorder.installed(patch_rows()):
        _, system, traced = run_once(workload, 1)
    problems += workload.check(traced, system)
    outcomes = [base, traced]
    values = layer_metrics(workload, base, traced, system, recorder,
                           _reference_pps(workload, outcomes))
    written = recorder.write_jsonl(spans_path)
    return values, problems, outcomes, [
        f"{written} spans written to {spans_path.relative_to(ROOT)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, work_dir)
        if args.trace:
            values, problems, outcomes, lines = traced_run(
                workload, work_root / f"{workload.name}.spans.jsonl")
            units = dict(PER_LAYER)
        else:
            values, problems, outcomes, lines = untraced_run(workload)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    for line in lines:
        print(f"  {line}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
