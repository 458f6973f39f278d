"""Shard workers: one scoring core behind two transports.

Every shard runs SPOT's single pass over its micro-batches, and that pass is
written once, in :class:`ShardCore`: the injected stall, deadline shedding,
the torn-batch crash, the offset loop (apply due learn publications, score up
to the detector's next apply point, deliver that chunk, dispatch the learn
requests it emitted), the zero-progress guard and the final learn resolution
at graceful stop.  The core reaches the outside world through two seams:

* ``emit(items, results, busy, error, shed=False)`` delivers a chunk, with
  ``results`` a list of :class:`~repro.core.results.DetectionResult`
  aligned with ``items`` (or ``None`` when ``error`` is set, or when
  ``shed=True`` marks points dropped past their detection deadline);
* a learn port with ``submit(grid, requests) -> handle`` and
  ``wait(handle) -> publications``; without one, pending learns resolve
  inline.

Two transports feed it:

* :class:`ShardWorker` — a daemon thread owning its detector in-process.
  The default: zero serialisation cost, shared memory, and (because NumPy
  releases the GIL inside large array ops) some overlap between shards.  It
  emits into the service's callback and learns through the shared
  :class:`~repro.service.learning.LearningCoordinator`.
* :class:`ProcessShardWorker` — one OS process per shard.  The detector is
  shipped to the child as a full-state checkpoint payload and the core runs
  there; it emits over the outbox and learns by shipping request groups to
  the parent, which evaluates them on the coordinator and answers through
  the inbox.  Worth it on multi-core hosts where the GIL would otherwise
  serialise the shards.

Both expose the same surface to the service and its supervisor:
``start()``, ``shutdown()``, ``retire()``, ``drain_pending()``,
``export_state()`` and a ``failure`` attribute, and both deliver every
processed chunk through the service's callback:

    on_results(shard_id, items, results, busy_seconds, error, shed=False)

Failure semantics are a policy of the owner: standalone (the historical
default, ``quarantine_on_failure=True``) a failed shard rejects every later
batch so nothing is scored against a possibly half-updated store; under a
:class:`~repro.service.supervisor.ShardSupervisor`
(``quarantine_on_failure=False``) the worker *retires* instead — it stops
consuming, hands any batch it already popped back to the queue, and leaves
the backlog for the replacement worker the supervisor builds from the last
checkpoint.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from functools import partial
from typing import Callable, List, Optional

from ..core.detector import SPOT
from ..core.exceptions import ConfigurationError
from ..learning.requests import LearnPublication, request_from_dict
from ..metrics.throughput import LatencySeries
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import NULL_RECORDER
from ..obs.trace import NULL_TRACER
from .batcher import BatchItem, MicroBatcher
from .faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    TransientIPCError,
    call_with_retry,
)
from .learning import LearningCoordinator, _grid_from_payload, _grid_payload

ResultsCallback = Callable[..., None]

DEADLINE_POLICIES = ("shed", "degrade")

#: Upper bound on one publication wait; a search that exceeds it turns into
#: a shard failure instead of a silent hang.
LEARN_TIMEOUT = 600.0

#: Counter names a ShardStats registers, in reporting order.  The
#: robustness block of :meth:`DetectionService.stats` is built from the
#: registry totals of the tail entries, so the names are part of the
#: ``spot-metrics/v1`` surface.
SHARD_COUNTERS = ("points", "batches", "busy_seconds", "errors",
                  "shed_points", "degraded_points", "quarantined_points",
                  "ipc_retries", "restarts", "recovery_seconds")


class ShardStats:
    """Serving statistics of one shard (maintained by the service).

    Every field is a registry-backed instrument (``service.<name>`` with a
    ``shard`` label), so a metrics snapshot and this object can never
    disagree.  Mutation sites call ``.inc()`` under the service lock — the
    same discipline the plain ``+=`` fields historically relied on.  The two
    latency series keep their :class:`LatencySeries` type (now bounded) and
    register their backing histograms under ``service.latency_seconds`` /
    ``service.path_seconds``.
    """

    def __init__(self, shard_id: int,
                 registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self.shard_id = shard_id
        self.points = registry.counter("service.points", shard=shard_id)
        self.batches = registry.counter("service.batches", shard=shard_id)
        self.busy_seconds = registry.counter("service.busy_seconds",
                                             shard=shard_id)
        self.errors = registry.counter("service.errors", shard=shard_id)
        #: Robustness counters (see the fault-tolerance layer): points
        #: dropped past their deadline, points scored late under the
        #: "degrade" policy, poison points skipped by the supervisor, IPC
        #: retries that eventually succeeded, worker restarts, and the total
        #: time spent recovering.
        self.shed_points = registry.counter("service.shed_points",
                                            shard=shard_id)
        self.degraded_points = registry.counter("service.degraded_points",
                                                shard=shard_id)
        self.quarantined_points = registry.counter(
            "service.quarantined_points", shard=shard_id)
        self.ipc_retries = registry.counter("service.ipc_retries",
                                            shard=shard_id)
        self.restarts = registry.counter("service.restarts", shard=shard_id)
        self.recovery_seconds = registry.counter("service.recovery_seconds",
                                                 shard=shard_id)
        self.latency = LatencySeries()
        #: Detection-path latency: the time the ``process_batch`` call that
        #: scored a point spent on the detection path (one sample per
        #: point).  Inline learning charges its MOGA searches here; deferred
        #: learning moves them to the coordinator, which is exactly what the
        #: L2 benchmark measures.
        self.path_latency = LatencySeries()
        registry.register_histogram("service.latency_seconds",
                                    self.latency.histogram, shard=shard_id)
        registry.register_histogram("service.path_seconds",
                                    self.path_latency.histogram,
                                    shard=shard_id)

    @property
    def points_per_second(self) -> float:
        """Throughput over the shard's *busy* time (excludes idle waits)."""
        if self.busy_seconds.value <= 0.0:
            return 0.0
        return self.points.value / self.busy_seconds.value

    @property
    def mean_batch_size(self) -> float:
        """Average number of points coalesced per ``process_batch`` call."""
        if self.batches.value == 0:
            return 0.0
        return self.points.value / self.batches.value

    def as_dict(self) -> dict:
        """Flat reporting view (throughput + latency percentiles)."""
        latency = self.latency.as_dict()
        path = self.path_latency.as_dict()
        return {
            "shard": self.shard_id,
            "points": int(self.points.value),
            "batches": int(self.batches.value),
            "mean_batch_size": round(self.mean_batch_size, 1),
            "busy_seconds": round(self.busy_seconds.value, 4),
            "points_per_second": round(self.points_per_second, 1),
            "latency_p50_ms": round(1e3 * latency["p50"], 3),
            "latency_p95_ms": round(1e3 * latency["p95"], 3),
            "latency_p99_ms": round(1e3 * latency["p99"], 3),
            "path_p50_ms": round(1e3 * path["p50"], 3),
            "path_p95_ms": round(1e3 * path["p95"], 3),
            "path_p99_ms": round(1e3 * path["p99"], 3),
            "errors": int(self.errors.value),
            "shed_points": int(self.shed_points.value),
            "degraded_points": int(self.degraded_points.value),
            "quarantined_points": int(self.quarantined_points.value),
            "ipc_retries": int(self.ipc_retries.value),
            "restarts": int(self.restarts.value),
            "recovery_ms": round(1e3 * self.recovery_seconds.value, 1),
        }


class ShardCore:
    """One shard's scoring pass, independent of how its batches arrive.

    A transport hands every popped batch to :meth:`run_batch` and calls
    :meth:`finish` at graceful stop.  A learning, scoring or progress
    failure is recorded in :attr:`failure` and delivered as an error for the
    points not yet delivered.  An injected crash commits its torn prefix and
    raises :class:`~repro.service.faults.InjectedFault` (carrying the
    undelivered points) for the transport to turn into its own kind of
    death.
    """

    def __init__(self, shard_id: int, detector: SPOT, emit: ResultsCallback,
                 learn=None, *, faults: Optional[FaultInjector] = None,
                 deadline: float = 0.0, deadline_policy: str = "shed",
                 tracer=None, recorder=None) -> None:
        self.shard_id = shard_id
        self.detector = detector
        self.emit = emit
        self.learn = learn
        self.faults = faults
        self.deadline = deadline
        self.shed_late = deadline > 0.0 and deadline_policy == "shed"
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.failure: Optional[BaseException] = None
        #: request id -> handle of the learn group it was submitted in.
        self._handles: dict = {}

    def run_batch(self, batch: List[BatchItem]) -> None:
        """Score one popped batch, delivering it chunk by chunk."""
        if self.faults is not None:
            stall = self.faults.stall_seconds([item.seq for item in batch])
            if stall > 0.0:
                time.sleep(stall)
        batch = self._shed_overdue(batch)
        if not batch:
            return
        if self.faults is not None:
            consume = self.faults.crash_consume([item.seq for item in batch])
            if consume is not None:
                # Torn batch: commit a prefix to the detector, then die with
                # the whole batch undelivered — the worst case snapshot-plus-
                # replay recovery has to absorb.
                try:
                    self.detector.process_batch(
                        [item.values for item in batch[:consume]])
                except Exception:
                    pass  # the crash below is the failure under test
                self.failure = InjectedFault(
                    f"injected worker crash at shard {self.shard_id}",
                    items=batch)
                raise self.failure
        offset = 0
        with self.tracer.span("shard.batch", shard=self.shard_id,
                              seq_first=batch[0].seq, seq_last=batch[-1].seq,
                              n=len(batch)) as batch_span:
            while offset < len(batch):
                rest = batch[offset:]
                try:
                    # Apply every publication due before the next point;
                    # waits (if any) burn queue time, not detection-path
                    # time.
                    self._resolve_pending_learns()
                except Exception as exc:
                    self._fail(exc, rest, 0.0)
                    return
                started = time.perf_counter()
                error = None
                with self.tracer.span("shard.score", parent=batch_span,
                                      shard=self.shard_id,
                                      seq_first=rest[0].seq) as score:
                    try:
                        results = self.detector.process_batch(
                            [item.values for item in rest])
                    except Exception as exc:  # surfaced via drain()/stop()
                        error = exc
                busy = time.perf_counter() - started
                if error is not None:
                    self._fail(error, rest, busy)
                    return
                consumed = len(results)
                score.annotate(scored=consumed)
                if consumed == 0:
                    # Deferred mode guarantees progress (the stop point is
                    # always *after* the triggering point); zero progress
                    # means the contract broke and looping again would hang
                    # the shard.
                    self._fail(ConfigurationError(
                        "detector made no progress on a non-empty batch"),
                        rest, busy)
                    return
                self.emit(rest[:consumed], results, busy, None)
                offset += consumed
                # Ship new learn requests right away: the searches run on
                # the coordinator pool while this shard waits for its next
                # batch.
                self._dispatch_new_learns()

    def finish(self) -> Optional[BaseException]:
        """Graceful stop: apply every still-outstanding publication.

        The stopped fleet then holds the same SSTs an uninterrupted
        synchronous run would (the apply point of a request emitted by the
        final point lies beyond the stream's end).  Returns the exception
        when this final resolution fails (it is also recorded in
        :attr:`failure`).
        """
        if self.failure is not None:
            return None
        try:
            self._resolve_pending_learns()
        except Exception as exc:
            self.failure = exc
            return exc
        return None

    def _fail(self, exc: BaseException, items: List[BatchItem],
              busy: float) -> None:
        self.failure = exc
        self.emit(items, None, busy, f"{type(exc).__name__}: {exc}")

    def _shed_overdue(self, batch: List[BatchItem]) -> List[BatchItem]:
        """Drop points past their deadline; returns the still-live ones."""
        if not self.shed_late:
            return batch
        now = time.monotonic()
        live = [item for item in batch
                if now - item.enqueued_at <= self.deadline]
        if len(live) < len(batch):
            overdue = [item for item in batch
                       if now - item.enqueued_at > self.deadline]
            self.emit(overdue, None, 0.0, None, shed=True)
        return live

    # ------------------------------------------------------------------ #
    # Deferred learning plumbing
    # ------------------------------------------------------------------ #
    def _dispatch_new_learns(self) -> None:
        if self.learn is None:
            return
        new = [request for request in self.detector.pending_learn_requests
               if request.request_id not in self._handles]
        if not new:
            return
        handle = self.learn.submit(self.detector.grid, new)
        if self.tracer.enabled:
            for request in new:
                self.tracer.event("learning.submit", shard=self.shard_id,
                                  request=request.request_id,
                                  kind=request.kind)
        for request in new:
            self._handles[request.request_id] = handle

    def _resolve_pending_learns(self) -> None:
        while True:
            pending = self.detector.pending_learn_requests
            if not pending:
                return
            if self.learn is None:
                # No learn port (synchronous service, or a restored shard
                # before one is attached): replay the searches inline.
                resolved = self.detector.resolve_pending_learns()
                if resolved and self.recorder.enabled:
                    self.recorder.record_event("learn.apply",
                                               shard=self.shard_id,
                                               inline=resolved)
                return
            if pending[0].request_id not in self._handles:
                self._dispatch_new_learns()
            handle = self._handles[pending[0].request_id]
            with self.tracer.span("learning.wait", shard=self.shard_id,
                                  request=pending[0].request_id):
                publications = self.learn.wait(handle)
            for publication in publications:
                self.detector.apply_learn_publication(publication)
                if self.tracer.enabled:
                    self.tracer.event("learning.apply", shard=self.shard_id,
                                      request=publication.request_id)
                if self.recorder.enabled:
                    self.recorder.record_event(
                        "learn.apply", shard=self.shard_id,
                        request=publication.request_id)
            self._handles = {request_id: other for request_id, other
                             in self._handles.items() if other != handle}


class _CoordinatorPort:
    """The thread transport's learn port: the shared coordinator."""

    def __init__(self, coordinator: LearningCoordinator,
                 shard_id: int) -> None:
        self.coordinator = coordinator
        self.shard_id = shard_id

    def submit(self, grid, requests):
        return self.coordinator.submit(self.shard_id, grid, requests)

    def wait(self, ticket) -> List[LearnPublication]:
        return ticket.wait(timeout=LEARN_TIMEOUT)


class _InboxPort:
    """The process child's learn port, over the IPC queues.

    A request group goes to the parent as ``("learn", gid, grid,
    requests)`` (everything JSON round-trippable); its publications come
    back on the inbox as ``("publications", gid, payloads)``, with ``None``
    for a failed evaluation.  Publications that arrive early are banked by
    group id; other commands that arrive while the core waits are kept, in
    order, for :meth:`next_command`.
    """

    def __init__(self, inbox, outbox) -> None:
        self.inbox = inbox
        self.outbox = outbox
        self._backlog: deque = deque()
        self._received: dict = {}
        self._next_gid = 0

    def submit(self, grid, requests) -> int:
        gid = self._next_gid
        self._next_gid += 1
        self.outbox.put(("learn", gid, _grid_payload(grid),
                         [request.to_dict() for request in requests]))
        return gid

    def wait(self, gid: int) -> List[LearnPublication]:
        while gid not in self._received:
            # Only publications unblock the detector; any other command the
            # parent pipelined behind them waits in the backlog.
            message = self.inbox.get(timeout=LEARN_TIMEOUT)
            if message[0] == "publications":
                self._received[message[1]] = message[2]
            else:
                self._backlog.append(message)
        payloads = self._received.pop(gid)
        if payloads is None:
            raise ConfigurationError(
                "the learning coordinator failed to evaluate a request group")
        return [LearnPublication.from_dict(payload) for payload in payloads]

    def next_command(self) -> tuple:
        """The next command to serve; publications are banked on the way."""
        while True:
            command = self._backlog.popleft() if self._backlog \
                else self.inbox.get()
            if command[0] != "publications":
                return command
            self._received[command[1]] = command[2]


class _ShardTransport:
    """What both transports do around the core with a popped batch."""

    shard_id: int
    batcher: MicroBatcher
    on_results: ResultsCallback
    quarantine_on_failure: bool
    failure: Optional[BaseException]
    _retired: threading.Event

    def _refused(self, batch: List[BatchItem]) -> bool:
        """Whether a failed shard refuses ``batch`` instead of scoring it.

        Retiring (supervised), it hands the batch back for the successor
        and stops consuming.  Quarantined (standalone), it rejects the
        batch: a failed ``process_batch`` may have committed a prefix of its
        chunk, so the detector's summaries are not trustworthy anymore.
        """
        if self.failure is None:
            return False
        if self.quarantine_on_failure:
            self.on_results(self.shard_id, batch, None, 0.0,
                            f"shard quarantined after earlier failure: "
                            f"{type(self.failure).__name__}: {self.failure}")
        else:
            self.batcher.requeue(batch)
            self._retired.set()
        return True

    def drain_pending(self) -> List[BatchItem]:
        """Points still in flight after :meth:`retire` (none by default)."""
        return []


class ShardWorker(_ShardTransport, threading.Thread):
    """Thread transport: one daemon thread per shard, detector in-process.

    With a ``learning`` coordinator attached (deferred-learning mode) the
    core delivers each scored prefix immediately, hands the emitted learn
    requests to the coordinator, and blocks for the publications only when
    more points actually need them — the wait happens *between*
    ``process_batch`` calls, off the detection path, and overlaps with other
    shards' detection and searches.  Without a coordinator any pending
    requests (e.g. restored from a mid-flight checkpoint) are resolved
    inline.
    """

    def __init__(self, shard_id: int, detector: SPOT, batcher: MicroBatcher,
                 on_results: ResultsCallback,
                 learning: Optional[LearningCoordinator] = None, *,
                 faults: Optional[FaultInjector] = None,
                 deadline: float = 0.0, deadline_policy: str = "shed",
                 quarantine_on_failure: bool = True,
                 tracer=None, recorder=None) -> None:
        super().__init__(name=f"spot-shard-{shard_id}", daemon=True)
        self.shard_id = shard_id
        self.detector = detector
        self.batcher = batcher
        self.on_results = on_results
        self.quarantine_on_failure = quarantine_on_failure
        self._retired = threading.Event()
        port = _CoordinatorPort(learning, shard_id) \
            if learning is not None else None
        self.core = ShardCore(shard_id, detector, partial(on_results, shard_id),
                              port, faults=faults, deadline=deadline,
                              deadline_policy=deadline_policy, tracer=tracer,
                              recorder=recorder)

    @property
    def failure(self) -> Optional[BaseException]:
        return self.core.failure

    def retire(self, timeout: Optional[float] = None) -> None:
        """Stop consuming without closing the queue (supervised recovery)."""
        self._retired.set()
        self.batcher.interrupt()
        self.join(timeout=timeout)

    def run(self) -> None:
        while True:
            batch = self.batcher.next_batch(stop=self._retired)
            if batch is None:
                if not self._retired.is_set():
                    self.core.finish()
                return
            if self._refused(batch):
                continue
            try:
                self.core.run_batch(batch)
            except InjectedFault as fault:
                self.on_results(self.shard_id, fault.items, None, 0.0,
                                f"{type(fault).__name__}: {fault}")

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain-and-stop: close the queue and join the thread."""
        self.batcher.close()
        self.join(timeout=timeout)

    def export_state(self) -> dict:
        """Full-state snapshot of the shard's detector.

        Only safe while the shard is quiescent (the service drains before
        checkpointing, so no batch is in flight).  In deferred-learning mode
        the snapshot carries any still-unapplied learn requests — a restored
        shard re-evaluates them before touching its next point.  Cell arrays
        are exported in ``"copy"`` mode: the service both writes the snapshot
        to disk and hands it to the supervisor's in-memory recovery cache, so
        it must not alias the live store.
        """
        return self.detector.export_state(arrays="copy")


def _process_worker_main(shard_id: int, state_payload: dict, inbox, outbox,
                         fault_plan: Optional[dict], deferred: bool,
                         deadline: float, deadline_policy: str) -> None:
    """Child-process transport: rebuild the detector, then serve commands.

    The child runs the same :class:`ShardCore` as the thread transport.
    Points arrive with their ``enqueued_at`` stamps (``CLOCK_MONOTONIC`` is
    shared by the processes of one host), so deadline shedding happens where
    scoring happens.  With ``deferred=False`` (sync service) learning runs
    inline; with ``deferred=True`` the core learns through an
    :class:`_InboxPort`, and publications are applied in group order at the
    detector's deterministic apply points, so process-shard async decisions
    are identical to sync ones.
    """
    detector = SPOT.from_state(state_payload)
    detector.set_deferred_learning(deferred)
    port = _InboxPort(inbox, outbox)

    def emit(items, results, busy, error, shed=False) -> None:
        outbox.put(("results", [item.seq for item in items], results, busy,
                    error, shed))

    core = ShardCore(shard_id, detector, emit, port if deferred else None,
                     faults=FaultInjector(FaultPlan.from_dict(fault_plan))
                     if fault_plan else None,
                     deadline=deadline, deadline_policy=deadline_policy)
    while True:
        command = port.next_command()
        kind = command[0]
        if kind == "batch":
            try:
                core.run_batch(command[1])
            except InjectedFault:
                # A *hard* crash: the torn prefix is committed; kill the
                # process without a reply, so the parent sees a dead child
                # with the whole batch in flight (the supervisor's worst
                # case).
                outbox.close()
                os._exit(23)
        elif kind == "export":
            # "copy" arrays pickle across the pipe as independent buffers —
            # far cheaper than the per-element list payload of "json" mode.
            outbox.put(("state", detector.export_state(arrays="copy")))
        elif kind == "stop":
            error = core.finish()
            if error is not None:
                emit([], None, 0.0, f"final learn resolution failed: "
                                    f"{type(error).__name__}: {error}")
            outbox.put(("stopped",))
            return


class ProcessShardWorker(_ShardTransport):
    """Process transport: the shard's core and detector live in a child.

    A feeder thread pulls coalesced batches off the shard's
    :class:`MicroBatcher` and ships the :class:`BatchItem`s to the child; a
    collector thread correlates the child's replies back to the original
    items and invokes the shared ``on_results`` callback.  Detection results
    cross the process boundary as pickled :class:`DetectionResult` objects,
    so downstream consumers see exactly what the thread transport delivers.

    Queue operations toward the child go through a bounded
    retry-with-backoff loop (:class:`~repro.service.faults.RetryPolicy`), so
    a transient IPC hiccup costs a jittered retry instead of a shard.
    """

    def __init__(self, shard_id: int, detector: SPOT, batcher: MicroBatcher,
                 on_results: ResultsCallback, *,
                 fault_plan: Optional[FaultPlan] = None,
                 faults: Optional[FaultInjector] = None,
                 deadline: float = 0.0, deadline_policy: str = "shed",
                 quarantine_on_failure: bool = True,
                 retry_policy: Optional[RetryPolicy] = None,
                 on_ipc_retry: Optional[Callable[[int], None]] = None,
                 learning: Optional[LearningCoordinator] = None,
                 tracer=None) -> None:
        import multiprocessing

        self.shard_id = shard_id
        self.batcher = batcher
        self.on_results = on_results
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.quarantine_on_failure = quarantine_on_failure
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self.on_ipc_retry = on_ipc_retry
        #: Parent-side injector (IPC faults fire in the parent; crash and
        #: stall faults ship to the child inside ``fault_plan``).
        self.faults = faults
        #: Shared learning coordinator for ``learning_mode="async"``.  When
        #: set, the child runs in deferred mode and ships its learn-request
        #: groups over the outbox; the parent evaluates them on the
        #: coordinator pool and feeds publications back through the inbox.
        self.learning = learning
        self.failure: Optional[BaseException] = None
        context = multiprocessing.get_context()
        self._inbox = context.Queue()
        self._outbox = context.Queue()
        self._process = context.Process(
            target=_process_worker_main,
            args=(shard_id, detector.export_state(arrays="copy"), self._inbox,
                  self._outbox,
                  fault_plan.to_dict() if fault_plan is not None else None,
                  learning is not None, deadline, deadline_policy),
            daemon=True,
            name=f"spot-shard-{shard_id}",
        )
        self._pending: dict = {}
        self._pending_lock = threading.Lock()
        self._retired = threading.Event()
        self._state_box: List[dict] = []
        self._state_ready = threading.Event()
        self._feeder = threading.Thread(target=self._feed,
                                        name=f"spot-feeder-{shard_id}",
                                        daemon=True)
        self._collector = threading.Thread(target=self._collect,
                                           name=f"spot-collector-{shard_id}",
                                           daemon=True)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._process.start()
        self._feeder.start()
        self._collector.start()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain-and-stop: close the queue, stop the child, join everything."""
        self.batcher.close()
        self._feeder.join(timeout=timeout)
        self._inbox.put(("stop",))
        self._collector.join(timeout=timeout)
        self._process.join(timeout=timeout)
        self._release_queues()

    def retire(self, timeout: Optional[float] = None) -> None:
        """Stop feeding without closing the queue (supervised recovery)."""
        self._retired.set()
        self.batcher.interrupt()
        self._feeder.join(timeout=timeout)
        self._collector.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=timeout)
        self._release_queues()

    def _release_queues(self) -> None:
        # A dead child never drains its inbox; anything still buffered in
        # the queue's feeder pipe would make interpreter exit block forever
        # on the join-thread finalizer.  Nothing buffered is needed once
        # the child is gone, so drop it instead of waiting.
        for queue in (self._inbox, self._outbox):
            queue.cancel_join_thread()
            queue.close()

    def is_alive(self) -> bool:
        return self._process.is_alive()

    def drain_pending(self) -> List[BatchItem]:
        """Sweep in-flight items after :meth:`retire` (supervised recovery).

        Closes the shutdown race where the feeder ships one more batch to a
        child that is already dead (or already retired by the collector):
        those points sit in ``_pending`` with nobody left to deliver them.
        Only call after the plumbing threads are joined.
        """
        with self._pending_lock:
            items = sorted(self._pending.values(), key=lambda item: item.seq)
            self._pending.clear()
        return items

    # ------------------------------------------------------------------ #
    # Plumbing threads
    # ------------------------------------------------------------------ #
    def _ship(self, batch: List[BatchItem]) -> None:
        seqs = [item.seq for item in batch]
        if self.tracer.enabled:
            # The scoring itself happens in the child process; the parent
            # traces the hand-off (the IPC retry events ride on the
            # service-level callback).
            self.tracer.event("shard.ship", shard=self.shard_id,
                              seq_first=seqs[0], seq_last=seqs[-1],
                              n=len(seqs))

        def attempt() -> None:
            if self.faults is not None and self.faults.ipc_should_fail(seqs):
                raise TransientIPCError(
                    f"injected inbox failure at seq {seqs[0]}")
            self._inbox.put(("batch", batch))

        def count_retry(attempt_number: int, exc: BaseException) -> None:
            if self.on_ipc_retry is not None:
                self.on_ipc_retry(self.shard_id)

        call_with_retry(attempt, self.retry_policy,
                        seed=self.shard_id * 1_000_003 + seqs[0],
                        on_retry=count_retry)

    def _feed(self) -> None:
        while True:
            batch = self.batcher.next_batch(stop=self._retired)
            if batch is None:
                return
            if self._refused(batch):
                continue
            with self._pending_lock:
                for item in batch:
                    self._pending[item.seq] = item
            self._ship(batch)

    def _fail_pending(self, reason: str) -> None:
        """Deliver an error for every in-flight point (child is gone)."""
        with self._pending_lock:
            items = list(self._pending.values())
            self._pending.clear()
        self.failure = ConfigurationError(
            f"shard {self.shard_id}: {reason}")
        if not self.quarantine_on_failure:
            # Supervised: unblock the feeder so it retires and requeues
            # anything it already popped, instead of quarantining forever.
            self._retired.set()
            self.batcher.interrupt()
        self._state_ready.set()  # unblock a waiting export_state call
        if items:
            self.on_results(self.shard_id, items, None, 0.0, reason)

    def _collect(self) -> None:
        import queue as queue_module

        while True:
            if self._retired.is_set():
                return
            try:
                message = call_with_retry(
                    lambda: self._outbox.get(timeout=0.5),
                    self.retry_policy, retry_on=(OSError,),
                    seed=self.shard_id)
            except queue_module.Empty:
                if self._process.is_alive():
                    continue
                # The child is gone.  Give its queue feeder one grace period
                # to flush messages written just before death, then convert
                # whatever is still in flight into a shard error so drain()
                # surfaces the failure instead of hanging forever.
                try:
                    message = self._outbox.get(timeout=0.5)
                except queue_module.Empty:
                    self._fail_pending("worker process died unexpectedly")
                    return
            kind = message[0]
            if kind == "results":
                _, seqs, results, busy, error, shed = message
                with self._pending_lock:
                    items = [self._pending.pop(seq) for seq in seqs]
                if error is not None:
                    self.failure = ConfigurationError(
                        f"shard {self.shard_id} worker failed: {error}")
                    if not self.quarantine_on_failure:
                        # Supervised: stop both plumbing threads (this loop
                        # ends at its next check) so the supervisor can
                        # terminate the child and replace the whole worker
                        # from the last checkpoint.
                        self._retired.set()
                        self.batcher.interrupt()
                self.on_results(self.shard_id, items, results, busy, error,
                                shed=shed)
            elif kind == "learn":
                self._handle_learn(message[1], message[2], message[3])
            elif kind == "state":
                self._state_box.append(message[1])
                self._state_ready.set()
            elif kind == "stopped":
                return

    def _handle_learn(self, gid: int, grid_payload: dict,
                      request_payloads: list) -> None:
        """Bridge one child learn-request group onto the coordinator pool.

        The submit + wait runs on its own daemon thread so the collector
        keeps delivering results while a MOGA search is in flight — exactly
        the latency-hiding the thread transport gets from deferred learning.
        The reply (``("publications", gid, payloads)``, with ``None``
        signalling a failed evaluation) goes back through the child's inbox.
        """
        def evaluate() -> None:
            try:
                if self.learning is None:
                    raise ConfigurationError(
                        f"shard {self.shard_id} sent a learn request but no "
                        f"learning coordinator is attached")
                grid = _grid_from_payload(grid_payload)
                requests = [request_from_dict(payload)
                            for payload in request_payloads]
                ticket = self.learning.submit(self.shard_id, grid, requests)
                publications = ticket.wait(timeout=LEARN_TIMEOUT)
                reply = [publication.to_dict()
                         for publication in publications]
            except Exception:
                reply = None
            try:
                self._inbox.put(("publications", gid, reply))
            except (OSError, ValueError):
                # Queues already released (worker retired mid-search); the
                # child is gone, nobody is waiting for this reply.
                pass

        threading.Thread(target=evaluate,
                         name=f"spot-learn-{self.shard_id}-{gid}",
                         daemon=True).start()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def export_state(self, timeout: float = 60.0) -> dict:
        """Ask the child for its detector's full state (service is drained)."""
        self._state_ready.clear()
        self._state_box.clear()
        self._inbox.put(("export",))
        if not self._state_ready.wait(timeout=timeout):
            raise ConfigurationError(
                f"shard {self.shard_id} did not export its state within "
                f"{timeout} seconds")
        if not self._state_box:  # woken by _fail_pending, not by a state reply
            raise ConfigurationError(
                f"shard {self.shard_id} cannot export state: {self.failure}")
        return self._state_box[0]
