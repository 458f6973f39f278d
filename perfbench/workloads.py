"""The benchmark's three workloads, driven through the package's public API.

Each workload builds its inputs from the seed alone, sets the system up
(timed as ``setup_s``), drives it for the run length (the timed region),
and checks what the system delivered against a reference computed outside
the timed region.

* ``core-bulk`` — the analyst's offline replay: one vectorized detector with
  the package-default (paper) configuration, 20-d, fed 1,024-point
  ``process_batch`` calls in a closed loop.  Store and kernels do the work;
  service, learning and obs are bypassed.
* ``serve-open`` — a live 16-tenant fleet below saturation: Poisson
  arrivals at a fixed rate, 2 thread shards.  Micro-batches are small, so
  the fixed cost of a ``process_batch`` call and the batcher wait set the
  latency.
* ``serve-adaptive`` — the full stack: online adaptation with async
  learning, supervision with periodic checkpoints, evidence, flight
  recorder and SLO tracking, under a closed window loop.  Learning, persist
  and obs work here and nowhere else.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import SPOT, SPOTConfig
from repro.eval import multi_tenant_workload, t1_bench_config, \
    throughput_workload
from repro.metrics.classification import confusion_matrix
from repro.obs import SLOObjectives
from repro.persist import clone_detector
from repro.service import DetectionService, ServiceConfig, ShardRouter
from repro.service.checkpoint import CheckpointManager

from .drivers import closed_loop, open_loop, poisson_schedule

clock = time.perf_counter


@dataclass
class Outcome:
    """What one timed region delivered, per attempted input index."""

    attempted: int
    outcomes: List[str]
    flags: List[bool]
    #: Per-point latency (seconds) of the points delivered ``ok``, and when
    #: each of those points was due.
    latencies: List[float]
    latency_stamps: List[float]
    #: Points delivered ``ok`` per second of the timed region.
    throughput: float
    #: The timed region on :data:`clock`'s scale.
    window: Tuple[float, float]
    lateness: List[float] = field(default_factory=list)
    backlog_max: int = 0
    service_stats: Optional[dict] = None
    latency_summary: Optional[dict] = None

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome != "ok")


@dataclass
class Reference:
    """Decisions of the independent reference on a prefix of the inputs."""

    flags: List[bool]
    points_per_second: float
    ssts: Optional[List[dict]] = None


def _quality(flags: Sequence[bool],
             labels: Sequence[bool]) -> Dict[str, float]:
    matrix = confusion_matrix(list(flags), list(labels))
    return {"precision": matrix.precision, "recall": matrix.recall}


class CoreBulk:
    """Offline replay: 1,024-point ``process_batch`` calls, no service."""

    name = "core-bulk"
    dimensions = 20
    training_points = 2000
    batch = 1024
    #: The replayed segment; a run longer than one pass starts it again.
    segment_batches = 32
    #: Stream prefix checked against the python-engine oracle.
    oracle_points = 1024

    def __init__(self, seed: int, seconds: float, work_dir: Path) -> None:
        del work_dir
        self.seconds = seconds
        workload = throughput_workload(
            dimensions=self.dimensions, n_training=self.training_points,
            n_detection=self.segment_batches * self.batch, seed=seed)
        self.training = workload.training_values
        values = workload.detection_values
        self.labels = workload.detection_labels
        self.batches = [values[i:i + self.batch]
                        for i in range(0, len(values), self.batch)]
        self.config = SPOTConfig(engine="vectorized")
        self._reference: Optional[Reference] = None

    def setup(self) -> SPOT:
        detector = SPOT(self.config)
        detector.learn(self.training)
        return detector

    def stop(self, system: SPOT) -> None:
        del system

    def drive(self, detector: SPOT) -> Outcome:
        flags: List[bool] = []
        calls: List[Tuple[float, float, int]] = []
        start = clock()
        end = start + self.seconds
        k = 0
        while True:
            batch = self.batches[k % len(self.batches)]
            called = clock()
            results = detector.process_batch(batch)
            returned = clock()
            flags.extend([r.is_outlier for r in results])
            calls.append((called, returned, len(batch)))
            k += 1
            if returned >= end:
                break
        attempted = sum(n for _, _, n in calls)
        # Every point of a call waits for the whole call.
        latencies = [r - c for c, r, n in calls for _ in range(n)]
        stamps = [c for c, _, n in calls for _ in range(n)]
        outcomes = ["ok"] * len(flags) + ["missing"] * (attempted - len(flags))
        flags += [False] * (attempted - len(flags))
        return Outcome(attempted=attempted, outcomes=outcomes, flags=flags,
                       latencies=latencies, latency_stamps=stamps,
                       throughput=outcomes.count("ok") / (returned - start),
                       window=(start, returned))

    def quality(self, outcome: Outcome) -> Dict[str, float]:
        n = min(outcome.attempted, len(self.labels))
        return _quality(outcome.flags[:n], self.labels[:n])

    def reference(self) -> Reference:
        """The python-engine oracle: its own learn, then per-point
        ``process`` over the checked prefix (computed once per run)."""
        if self._reference is None:
            oracle = SPOT(self.config.replace(engine="python"))
            oracle.learn(self.training)
            prefix = [p for batch in self.batches for p in batch][
                :self.oracle_points]
            started = clock()
            flags = [oracle.process(point).is_outlier for point in prefix]
            self._reference = Reference(
                flags=flags, points_per_second=len(prefix)
                / (clock() - started))
        return self._reference

    def check(self, outcome: Outcome, system: SPOT) -> List[str]:
        del system
        reference = self.reference()
        n = min(outcome.attempted, len(reference.flags))
        return _compare(outcome.flags[:n], reference.flags[:n])


class _Serving:
    """Shared parts of the two service workloads."""

    name = ""
    tenants = 0
    dimensions = 10
    training_per_tenant = 80
    shards = 2

    def __init__(self, seed: int, seconds: float, work_dir: Path,
                 n_points: int) -> None:
        self.seconds = seconds
        self.work_dir = work_dir
        workload = multi_tenant_workload(
            n_tenants=self.tenants, dimensions=self.dimensions,
            n_training_per_tenant=self.training_per_tenant,
            n_detection_per_tenant=math.ceil(n_points / self.tenants) + 64,
            seed=seed)
        self.training = workload.training_values
        detection = workload.detection[:n_points]
        self.points = [(p.stream_id, p.values) for p in detection]
        self.labels = [p.is_outlier for p in detection]
        self.prototype: Optional[SPOT] = None
        self._reference: Optional[Reference] = None

    def config(self) -> SPOTConfig:
        raise NotImplementedError

    def service_config(self) -> ServiceConfig:
        raise NotImplementedError

    def setup(self) -> DetectionService:
        prototype = SPOT(self.config())
        prototype.learn(self.training)
        self.prototype = prototype
        return DetectionService.from_prototype(
            prototype, self.service_config()).start()

    def stop(self, service: DetectionService) -> None:
        service.stop()

    def _submit(self, service: DetectionService):
        points = self.points
        submit = service.submit

        def submit_one(i: int) -> int:
            stream_id, values = points[i]
            return submit(stream_id, values)

        return submit_one

    @staticmethod
    def _in_flight(service: DetectionService):
        return lambda: service.points_submitted - service.points_completed

    def _collect(self, service: DetectionService, run, open_loop_run: bool
                 ) -> Outcome:
        """Match delivered results to submissions.

        A point's delivery time is when its ``submit`` returned plus the
        latency the service reports from enqueue to delivery: ``submit``
        stamps the point just before it queues it, and neither workload
        fills a queue, so the gap is the cost of one ``put``.
        """
        service.drain()
        by_seq = {r.seq: r for r in service.results()}
        outcomes: List[str] = []
        flags: List[bool] = []
        latencies: List[float] = []
        stamps: List[float] = []
        last = run.start
        for due, returned, seq in zip(run.due, run.returned, run.seqs):
            result = by_seq.get(seq)
            if result is None:
                outcomes.append("missing")
                flags.append(False)
                continue
            outcomes.append(result.outcome)
            flags.append(result.is_outlier)
            delivered = returned + result.latency_seconds
            last = max(last, delivered)
            if result.outcome == "ok":
                latencies.append(delivered - due)
                stamps.append(due)
        return Outcome(
            attempted=run.submitted, outcomes=outcomes, flags=flags,
            latencies=latencies, latency_stamps=stamps,
            throughput=outcomes.count("ok") / (last - run.start),
            window=(run.start, last),
            lateness=run.lateness() if open_loop_run else [],
            backlog_max=max(run.backlog, default=0),
            service_stats=service.stats(),
            latency_summary=service.latency_summary())

    def quality(self, outcome: Outcome) -> Dict[str, float]:
        n = outcome.attempted
        return _quality(outcome.flags[:n], self.labels[:n])

    def reference(self, n_points: int) -> Reference:
        """Single-threaded offline reference: each router partition of the
        first ``n_points`` inputs through one ``process_batch`` call on a
        fresh clone of the prototype, learning inline."""
        if self._reference is not None and len(self._reference.flags) \
                >= n_points:
            return self._reference
        assert self.prototype is not None
        router = ShardRouter(self.shards)
        partitions: Dict[int, List[int]] = {s: [] for s in range(self.shards)}
        for i, (stream_id, _) in enumerate(self.points[:n_points]):
            partitions[router.shard_of(stream_id)].append(i)
        flags = [False] * n_points
        seconds = 0.0
        ssts = []
        for shard in range(self.shards):
            indices = partitions[shard]
            detector = clone_detector(self.prototype)
            started = clock()
            results = detector.process_batch(
                [self.points[i][1] for i in indices])
            seconds += clock() - started
            for i, result in zip(indices, results):
                flags[i] = result.is_outlier
            ssts.append(detector.sst.to_dict())
        self._reference = Reference(flags=flags,
                                    points_per_second=n_points / seconds,
                                    ssts=ssts)
        return self._reference

    def check(self, outcome: Outcome, service: DetectionService) -> List[str]:
        del service
        reference = self.reference(outcome.attempted)
        n = outcome.attempted
        return _compare(outcome.flags[:n], reference.flags[:n])


class ServeOpen(_Serving):
    """16 tenants, 2 thread shards, Poisson arrivals at a fixed rate."""

    name = "serve-open"
    tenants = 16
    rate = 3000.0

    def __init__(self, seed: int, seconds: float, work_dir: Path) -> None:
        self.offsets = poisson_schedule(self.rate, seconds, seed)
        super().__init__(seed, seconds, work_dir, len(self.offsets))

    def config(self) -> SPOTConfig:
        return t1_bench_config(engine="vectorized")

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(n_shards=self.shards)

    def drive(self, service: DetectionService) -> Outcome:
        run = open_loop(self.offsets, self._submit(service),
                        self._in_flight(service), clock=clock)
        return self._collect(service, run, open_loop_run=True)


class ServeAdaptive(_Serving):
    """6 tenants with online adaptation on the full serving stack."""

    name = "serve-adaptive"
    tenants = 6
    window = 512
    #: Inputs generated per second of run length: about twice the measured
    #: rate, so the closed loop never runs dry.
    points_per_second = 4000

    def __init__(self, seed: int, seconds: float, work_dir: Path) -> None:
        super().__init__(seed, seconds, work_dir,
                         int(self.points_per_second * seconds))

    def config(self) -> SPOTConfig:
        return t1_bench_config(engine="vectorized", os_growth_enabled=True,
                               self_evolution_period=250, relearn_period=450)

    def service_config(self) -> ServiceConfig:
        directory = tempfile.mkdtemp(prefix="ckpt-", dir=self.work_dir)
        return ServiceConfig(
            n_shards=self.shards, max_batch=256, learning_mode="async",
            learning_workers=1, supervise=True, checkpoint_every=4000,
            checkpoint_dir=directory, evidence=True, flight_recorder=True,
            slo=SLOObjectives())

    def drive(self, service: DetectionService) -> Outcome:
        run = closed_loop(len(self.points), self._submit(service),
                          self._in_flight(service), window=self.window,
                          seconds=self.seconds, clock=clock)
        return self._collect(service, run, open_loop_run=False)

    def check(self, outcome: Outcome, service: DetectionService) -> List[str]:
        problems = super().check(outcome, service)
        reference = self.reference(outcome.attempted)
        # The reference may cover a longer prefix (a longer run of the same
        # invocation); SSTs only compare at equal stream positions.
        if len(reference.flags) == outcome.attempted:
            served = [d.sst.to_dict() for d in service.shard_detectors()]
            if served != reference.ssts:
                problems.append("final SSTs differ from the reference")
        return problems

    def checkpoint_bytes(self, service: DetectionService) -> int:
        """Bytes of the latest checkpoint generation, read from its files."""
        directory = Path(service.config.checkpoint_dir)
        manifest = directory / "manifest.json"
        if not manifest.exists():
            return 0
        shards = CheckpointManager(directory).manifest()["shards"]
        return sum((directory / entry["file"]).stat().st_size
                   for entry in shards)


def _compare(served: Sequence[bool], reference: Sequence[bool]) -> List[str]:
    mismatches = [i for i, (a, b) in enumerate(zip(served, reference))
                  if a != b]
    if not mismatches:
        return []
    return [f"{len(mismatches)} of {len(served)} decisions differ from the "
            f"reference (first at input {mismatches[0]})"]


WORKLOADS = {cls.name: cls for cls in (CoreBulk, ServeOpen, ServeAdaptive)}
