"""The learning coordinator: online MOGA off the detection hot path.

``LearningCoordinator`` is the learning half of the serving layer.  Detection
shards running in deferred-learning mode emit
:mod:`repro.learning.requests` objects (self-evolution due, outlier-driven
growth, periodic relearn) instead of searching inline; the coordinator

* **coalesces** the requests of one apply point — they share a reservoir
  snapshot version — into a single evaluation task,
* **shares** one :class:`~repro.moga.batch_objectives.SharedBatchContext`
  (quantised batch, marginals, objective memo) per request group, so every
  search of the group skips the per-search batch preparation and reuses
  memoised objective vectors,
* **evaluates** on a configurable worker pool — threads by default (NumPy
  releases the GIL inside the fused objective passes), one-task-per-process
  optionally — overlapping searches with each other and with the shards'
  detection work,
* **publishes** the resulting ranked subspaces back as
  :class:`~repro.learning.requests.LearnPublication` objects, which the
  shard workers apply at the request's deterministic apply point.

Because every request is pure data and every evaluation is a pure function,
the publications are bit-identical to what the synchronous path computes —
the coordinator changes *where* the search runs, never what it returns.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from ..core.grid import DomainBounds, Grid
from ..learning.requests import (
    LearnPublication,
    evaluate_learn_request,
    request_from_dict,
)
from ..moga import BatchSparsityObjectives, SharedBatchContext
from ..obs.trace import NULL_TRACER

LEARNING_WORKER_MODES = ("thread", "process")


@dataclass(frozen=True)
class LearningServiceConfig:
    """Tunables of the learning coordinator (not of the searches themselves)."""

    workers: int = 2
    worker_mode: str = "thread"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be positive, got {self.workers}")
        if self.worker_mode not in LEARNING_WORKER_MODES:
            raise ConfigurationError(
                f"worker_mode must be one of {LEARNING_WORKER_MODES}, "
                f"got {self.worker_mode!r}")


class LearnTicket:
    """Handle on one submitted request group; resolves to its publications."""

    def __init__(self, request_ids: Sequence[str], future: Future,
                 *, from_dicts: bool) -> None:
        self.request_ids = tuple(request_ids)
        self._future = future
        self._from_dicts = from_dicts

    def wait(self, timeout: Optional[float] = None) -> List[LearnPublication]:
        """Block until the group is evaluated; publications in request order."""
        payload, _ = self._future.result(timeout=timeout)
        if self._from_dicts:
            return [LearnPublication.from_dict(entry) for entry in payload]
        return list(payload)

    def done(self) -> bool:
        """Whether the evaluation has finished (successfully or not)."""
        return self._future.done()


def _grid_payload(grid: Grid) -> dict:
    return {"lows": list(grid.bounds.lows),
            "highs": list(grid.bounds.highs),
            "cells_per_dimension": grid.cells_per_dimension}


def _grid_from_payload(payload: dict) -> Grid:
    return Grid(bounds=DomainBounds(lows=tuple(payload["lows"]),
                                    highs=tuple(payload["highs"])),
                cells_per_dimension=int(payload["cells_per_dimension"]))


#: Per-group evaluation counters, summed by :meth:`LearningCoordinator.stats`.
_GROUP_COUNTERS = ("contexts_built", "context_reuses", "memo_hits",
                  "memo_misses", "busy_seconds")


def _evaluate_group(grid: Grid, requests: Sequence
                    ) -> Tuple[List[LearnPublication], Dict[str, float]]:
    """Evaluate one request group; returns its publications and counters.

    The requests of a group share one reservoir snapshot, so the group
    builds one shared objective context and every vectorized search of the
    group reuses it (and its objective memo).
    """
    started = time.perf_counter()
    context: Optional[SharedBatchContext] = None
    reuses = 0
    publications = []
    for request in requests:
        objectives = None
        if request.engine == "vectorized":
            if context is None:
                context = SharedBatchContext(request.snapshot.points, grid,
                                             version=request.snapshot.version)
            else:
                reuses += 1
            objectives = BatchSparsityObjectives.from_context(
                context, target_points=request.target_points,
                memo=context.memo_view(request.target_key))
        publications.append(
            evaluate_learn_request(request, grid, objectives=objectives))
    counts = {
        "contexts_built": int(context is not None),
        "context_reuses": reuses,
        "memo_hits": context.memo.hits if context is not None else 0,
        "memo_misses": context.memo.misses if context is not None else 0,
        "busy_seconds": time.perf_counter() - started,
    }
    return publications, counts


def _evaluate_group_remote(grid_payload: dict, request_payloads: List[dict]
                           ) -> Tuple[List[dict], Dict[str, float]]:
    """Process-pool task: :func:`_evaluate_group` over plain data."""
    publications, counts = _evaluate_group(
        _grid_from_payload(grid_payload),
        [request_from_dict(payload) for payload in request_payloads])
    return [publication.to_dict() for publication in publications], counts


class LearningCoordinator:
    """Evaluates learn requests on a worker pool, one context per group."""

    def __init__(self, config: Optional[LearningServiceConfig] = None, *,
                 tracer=None) -> None:
        self.config = config if config is not None else LearningServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._executor = None
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._requests = 0
        self._groups = 0
        self._totals: Dict[str, float] = dict.fromkeys(_GROUP_COUNTERS, 0)
        self._kind_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "LearningCoordinator":
        """Spin up the worker pool."""
        if self._started:
            raise ConfigurationError("the coordinator is already started")
        if self._stopped:
            raise ConfigurationError(
                "a stopped coordinator cannot be restarted")
        if self.config.worker_mode == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="spot-learn")
        else:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers)
        self._started = True
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Finish in-flight evaluations and shut the pool down."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        assert self._executor is not None
        # ``timeout`` is advisory: Executor.shutdown has no timeout knob, but
        # evaluations are finite MOGA runs, so waiting is bounded in practice.
        del timeout
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "LearningCoordinator":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, shard_id: int, grid: Grid, requests: Sequence
               ) -> LearnTicket:
        """Queue one apply point's request group; returns its ticket.

        All requests of a group must share one reservoir snapshot (they are
        the triggers of a single stream position); the group is evaluated as
        one pool task through one shared objective context.
        """
        if not self._started or self._stopped:
            raise ConfigurationError(
                "the learning coordinator is not running")
        if not requests:
            raise ConfigurationError("cannot submit an empty request group")
        versions = {request.snapshot.version for request in requests}
        if len(versions) > 1:
            raise ConfigurationError(
                f"a request group must share one snapshot version, "
                f"got {sorted(versions)}")
        with self._lock:
            self._requests += len(requests)
            self._groups += 1
            for request in requests:
                self._kind_counts[request.kind] = \
                    self._kind_counts.get(request.kind, 0) + 1
        assert self._executor is not None
        if self.config.worker_mode == "process":
            future = self._executor.submit(
                _evaluate_group_remote, _grid_payload(grid),
                [request.to_dict() for request in requests])
            future.add_done_callback(self._account_remote)
        else:
            future = self._executor.submit(self._evaluate_local, shard_id,
                                           grid, list(requests))
        return LearnTicket([r.request_id for r in requests], future,
                           from_dicts=self.config.worker_mode == "process")

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _evaluate_local(self, shard_id: int, grid: Grid, requests: List
                        ) -> Tuple[List[LearnPublication], Dict[str, float]]:
        with self.tracer.span("learning.evaluate", shard=shard_id,
                              request=requests[0].request_id,
                              n=len(requests)):
            publications, counts = _evaluate_group(grid, requests)
        # Counted before the ticket resolves, so stats() read right after a
        # wait() already includes this group.
        self._account(counts)
        return publications, counts

    def _account_remote(self, future: Future) -> None:
        if not future.cancelled() and future.exception() is None:
            self._account(future.result()[1])

    def _account(self, counts: Dict[str, float]) -> None:
        with self._lock:
            for name in _GROUP_COUNTERS:
                self._totals[name] += counts[name]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Coordinator-side serving statistics."""
        with self._lock:
            totals = self._totals
            return {
                "workers": self.config.workers,
                "worker_mode": self.config.worker_mode,
                "requests": self._requests,
                "request_groups": self._groups,
                "coalesced_requests": self._requests - self._groups,
                "contexts_built": int(totals["contexts_built"]),
                "context_reuses": int(totals["context_reuses"]),
                "memo_hits": int(totals["memo_hits"]),
                "memo_misses": int(totals["memo_misses"]),
                "busy_seconds": round(totals["busy_seconds"], 4),
                "kinds": dict(self._kind_counts),
            }
