"""Load drivers: an open loop on a fixed schedule and a closed window loop.

Both run on the calling thread and only stamp times; what a point costs is
read afterwards from what the system delivered.  ``submit(i)`` hands input
``i`` to the system and returns its sequence number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np


@dataclass
class LoadRun:
    """What a driver did: per submitted point, when it was due, when
    ``submit`` was called and when it returned; plus sampled backlog."""

    start: float
    due: List[float] = field(default_factory=list)
    called: List[float] = field(default_factory=list)
    returned: List[float] = field(default_factory=list)
    seqs: List[int] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)

    @property
    def submitted(self) -> int:
        return len(self.seqs)

    def lateness(self) -> List[float]:
        """How late each ``submit`` call started against its due time."""
        return [c - d for c, d in zip(self.called, self.due)]


def poisson_schedule(rate: float, seconds: float, seed: int) -> List[float]:
    """Arrival offsets (seconds from the start) of a Poisson process at
    ``rate`` points/s over ``seconds``, fixed in advance by ``seed``."""
    rng = np.random.default_rng(seed)
    expected = rate * seconds
    gaps = rng.exponential(1.0 / rate,
                           size=int(expected + 10 * expected ** 0.5 + 100))
    offsets = np.cumsum(gaps)
    if offsets[-1] < seconds:
        raise RuntimeError("schedule draw too short")  # ~10 sigma: never
    return offsets[offsets < seconds].tolist()


def open_loop(offsets: Sequence[float], submit: Callable[[int], int],
              backlog: Callable[[], int], *,
              clock: Callable[[], float] = time.monotonic,
              sleep: Callable[[float], None] = time.sleep,
              sample_every: float = 0.01,
              lead: float = 0.005) -> LoadRun:
    """Submit point ``i`` at ``start + offsets[i]`` whatever the system does.

    A stalled ``submit`` makes later points late; they are then sent at once
    (never skipped), and each point's lateness is its call time minus its
    due time.  ``backlog()`` is sampled about every ``sample_every`` s.
    """
    run = LoadRun(start=clock() + lead)
    next_sample = run.start
    for i, offset in enumerate(offsets):
        due = run.start + offset
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        run.due.append(due)
        run.called.append(now)
        run.seqs.append(submit(i))
        run.returned.append(clock())
        if now >= next_sample:
            run.backlog.append(backlog())
            next_sample = now + sample_every
    return run


def closed_loop(n_inputs: int, submit: Callable[[int], int],
                outstanding: Callable[[], int], *, window: int,
                seconds: float,
                clock: Callable[[], float] = time.monotonic,
                sleep: Callable[[float], None] = time.sleep,
                poll: float = 0.005) -> LoadRun:
    """Keep at most ``window`` points outstanding for ``seconds`` (or until
    the ``n_inputs`` inputs run out); a point is due when it is handed to
    ``submit``.

    The driver shares the interpreter with the system under test, so it
    polls for room every ``poll`` seconds rather than spinning: each wake-up
    takes the interpreter lock from the threads being measured (a 0.5 ms
    poll made serve-adaptive's run-to-run spread twice as wide).
    """
    run = LoadRun(start=clock())
    end = run.start + seconds
    i = 0
    while i < n_inputs and clock() < end:
        in_flight = outstanding()
        run.backlog.append(in_flight)
        room = min(window - in_flight, n_inputs - i)
        if room <= 0:
            sleep(poll)
            continue
        for _ in range(room):
            now = clock()
            run.due.append(now)
            run.called.append(now)
            run.seqs.append(submit(i))
            run.returned.append(clock())
            i += 1
    return run
