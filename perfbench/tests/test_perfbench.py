"""Tests of the benchmark's own helpers (statistics, spans, load drivers)."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.drivers import (closed_loop, open_loop,  # noqa: E402
                               poisson_schedule)
from perfbench.measure import (failed_ratio, tail_percentile,  # noqa: E402
                               windowed_percentile)
from perfbench.spans import (Span, SpanRecorder, coverage,  # noqa: E402
                             self_times, summarize)


# --------------------------------------------------------------------- #
# Percentile rule
# --------------------------------------------------------------------- #
def test_percentile_reported_when_ten_samples_lie_beyond():
    samples = [float(v) for v in range(1, 1001)]
    p99 = tail_percentile(samples, 99.0)
    assert (p99.value, p99.percentile, p99.samples) == (990.0, 99.0, 1000)
    assert sum(1 for s in samples if s > p99.value) == 10
    assert tail_percentile(samples, 50.0).value == 500.0


def test_percentile_falls_back_to_highest_supported_one():
    samples = [float(v) for v in range(500, 0, -1)]  # order must not matter
    p99 = tail_percentile(samples, 99.0)
    # Rank 495 would leave 5 samples beyond it; rank 490 leaves 10.
    assert (p99.value, p99.percentile, p99.samples) == (490.0, 98.0, 500)
    p999 = tail_percentile(samples, 99.9)
    assert p999 == p99


def test_windowed_percentile_ignores_a_burst_in_one_window():
    stamps = [i / 1000.0 for i in range(5000)]          # 5 s, 1000 per s
    samples = [10.0] * 5000
    for i in range(2000, 2100):                         # burst in window 2
        samples[i] = 500.0
    value, slices = windowed_percentile(stamps, samples, 99.0, 5, (0.0, 5.0))
    assert value == 10.0
    assert [s.samples for s in slices] == [1000] * 5
    assert slices[2].value == 500.0
    assert tail_percentile(samples, 99.0).value == 500.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        tail_percentile([], 50.0)
    with pytest.raises(ValueError):
        tail_percentile([1.0], 0.0)


# --------------------------------------------------------------------- #
# failed_ratio
# --------------------------------------------------------------------- #
def test_failed_ratio_counts_shed_quarantined_degraded_and_missing():
    delivered = ["ok"] * 6 + ["shed", "quarantined", "degraded"]
    # 10 attempted, 9 delivered: the tenth never came back.
    assert failed_ratio(10, delivered) == pytest.approx(0.4)
    assert failed_ratio(3, ["ok", "ok", "ok"]) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(1, ["ok", "ok"])
    with pytest.raises(ValueError):
        failed_ratio(0, [])


# --------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------- #
def _span(thread, index, start, end, parent=-1, root=None, name="x"):
    return Span(thread, index, name, start, end, parent,
                index if root is None else root)


def test_self_time_subtracts_direct_children_on_the_same_thread_only():
    spans = [
        _span(1, 0, 0.0, 10.0, name="root"),
        _span(1, 1, 1.0, 3.0, parent=0, root=0, name="a"),    # sibling
        _span(1, 2, 4.0, 8.0, parent=0, root=0, name="b"),    # sibling
        _span(1, 3, 5.0, 6.0, parent=2, root=0, name="c"),    # nested
        # Another thread, overlapping the root in time: not its child.
        _span(2, 0, 2.0, 9.0, name="other"),
    ]
    own = self_times(spans)
    assert own[(1, 0)] == pytest.approx(10.0 - 2.0 - 4.0)
    assert own[(1, 1)] == pytest.approx(2.0)
    assert own[(1, 2)] == pytest.approx(4.0 - 1.0)
    assert own[(1, 3)] == pytest.approx(1.0)
    assert own[(2, 0)] == pytest.approx(7.0)
    # Self times of one tree add up to its root's duration.
    assert sum(v for (t, _), v in own.items() if t == 1) == pytest.approx(10.0)
    table = summarize(spans)
    assert table["root"]["busy_s"] == pytest.approx(10.0)
    assert table["root"]["self_s"] == pytest.approx(4.0)


def test_coverage_is_top_level_union_per_anchor_thread():
    spans = [
        _span(1, 0, 0.0, 4.0, name="anchor"),
        _span(1, 1, 1.0, 2.0, parent=0, root=0, name="inner"),
        _span(1, 2, 6.0, 12.0, name="anchor"),     # clipped at the window
        _span(2, 0, 0.0, 10.0, name="elsewhere"),  # thread without anchor
    ]
    assert coverage(spans, "anchor", (0.0, 10.0)) == pytest.approx(0.8)
    assert coverage(spans, "missing", (0.0, 10.0)) == 0.0


class _Layer:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i


def test_recorder_links_spans_to_parent_and_root_per_thread():
    recorder = SpanRecorder()
    original = vars(_Layer)["outer"]
    rows = [(_Layer, "outer", "layer.outer", {"count": len}),
            (_Layer, "inner", "layer.inner", {"keep_receiver": True})]
    layer = _Layer()
    with recorder.installed(rows):
        worker = threading.Thread(target=layer.outer, args=(2,))
        worker.start()
        layer.outer(3)
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert vars(_Layer)["outer"] is original  # restored
    spans = recorder.spans()
    by_thread = {}
    for span in spans:
        by_thread.setdefault(span.thread, []).append(span)
    assert sorted(len(v) for v in by_thread.values()) == [3, 4]
    for thread_spans in by_thread.values():
        root = thread_spans[0]
        assert (root.name, root.parent, root.root) == ("layer.outer", -1, 0)
        for child in thread_spans[1:]:
            assert (child.name, child.parent, child.root) == \
                ("layer.inner", 0, 0)
    table = summarize(spans)
    assert table["layer.outer"]["calls"] == 2
    assert table["layer.outer"]["count"] == 5
    assert table["layer.inner"]["calls"] == 5
    assert list(recorder.receivers["layer.inner"].values()) == [layer]


def test_every_traced_name_resolves_where_its_caller_looks_it_up():
    from perfbench.run import TRACED, patch_rows

    rows = patch_rows()
    assert [name for _, _, name, _ in rows] == list(TRACED)
    before = [vars(owner)[attr] for owner, attr, _, _ in rows]
    with SpanRecorder().installed(rows):
        assert all(vars(owner)[attr] is not original for (owner, attr, _, _),
                   original in zip(rows, before))
    assert [vars(owner)[attr] for owner, attr, _, _ in rows] == before


# --------------------------------------------------------------------- #
# Load drivers
# --------------------------------------------------------------------- #
class _FakeTime:
    """A virtual clock: sleeping and work advance it, nothing else does."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_points_behind_it():
    fake = _FakeTime()
    offsets = [0.01 * i for i in range(10)]

    def submit(i):
        fake.now += 0.05 if i == 3 else 0.001  # point 3 stalls the system
        return i

    run = open_loop(offsets, submit, lambda: 0, clock=fake.clock,
                    sleep=fake.sleep, lead=0.0)
    assert run.seqs == list(range(10))  # late points are sent, not skipped
    late = run.lateness()
    assert late[:4] == pytest.approx([0.0] * 4)
    # Point 3 was due at 0.03 and held the generator until 0.08.
    assert late[4] == pytest.approx(0.08 - 0.04)
    assert late[5] == pytest.approx(0.081 - 0.05)
    assert all(a > b for a, b in zip(late[4:8], late[5:8]))
    assert late[9] == pytest.approx(0.0)
    # Timed from the due time, point 4's latency includes the stall.
    assert run.returned[4] - run.due[4] == pytest.approx(0.081 - 0.04)


def test_closed_loop_never_exceeds_its_window():
    fake = _FakeTime()
    state = {"submitted": 0, "completed": 0}

    def submit(i):
        state["submitted"] += 1
        fake.now += 0.001
        return i

    def outstanding():
        # The fake system completes one point per poll.
        state["completed"] = min(state["submitted"], state["completed"] + 1)
        return state["submitted"] - state["completed"]

    run = closed_loop(200, submit, outstanding, window=8, seconds=10.0,
                      clock=fake.clock, sleep=fake.sleep)
    assert run.submitted == 200
    assert max(run.backlog) <= 8
    assert run.due == run.called


def test_poisson_schedule_is_fixed_by_the_seed():
    a = poisson_schedule(3000.0, 1.0, seed=4)
    assert a == poisson_schedule(3000.0, 1.0, seed=4)
    assert a != poisson_schedule(3000.0, 1.0, seed=5)
    assert all(0.0 < x < 1.0 for x in a)
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 2800 < len(a) < 3200


# --------------------------------------------------------------------- #
# BENCHMARK.json agrees with what run.py prints
# --------------------------------------------------------------------- #
def test_benchmark_json_names_every_printed_metric():
    from perfbench.run import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in WORKLOADS if name in gated]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
