"""Span recording and self-time arithmetic (no wall-clock assertions).

Every recorder here runs on a counting clock, so each ``open``/``close``
advances time by exactly one tick and the expected durations are exact.
"""

from __future__ import annotations

import itertools
import json
import threading

import pytest

from perfbench.run import tail
from perfbench.spans import Recorder, covered, driver_breakdown, patched, self_times


def ticking() -> Recorder:
    counter = itertools.count()
    lock = threading.Lock()

    def clock() -> float:
        with lock:
            return float(next(counter))

    return Recorder(clock=clock)


def by_name(recorder: Recorder) -> dict[str, list[float]]:
    selves = self_times(recorder.spans)
    out: dict[str, list[float]] = {}
    for span, value in zip(recorder.spans, selves):
        out.setdefault(span.name, []).append(value)
    return out


def test_nested_span_self_time_excludes_child():
    rec = ticking()
    outer = rec.open("outer")  # t=0
    inner = rec.open("inner")  # t=1
    rec.close(inner)  # t=2
    rec.close(outer)  # t=3
    assert rec.spans[inner].parent == outer
    assert by_name(rec) == {"outer": [2.0], "inner": [1.0]}


def test_sibling_children_are_both_subtracted():
    rec = ticking()
    outer = rec.open("outer")  # 0
    for _ in range(2):
        child = rec.open("child")  # 1, 3
        rec.close(child)  # 2, 4
    rec.close(outer)  # 5
    selves = by_name(rec)
    assert selves["outer"] == [3.0]
    assert selves["child"] == [1.0, 1.0]
    assert all(rec.spans[i].parent == outer for i in (1, 2))


def test_span_on_another_thread_is_a_root_and_not_subtracted():
    rec = ticking()
    outer = rec.open("driver")

    def work():
        rec.close(rec.open("pool"))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.close(outer)
    pool = next(span for span in rec.spans if span.name == "pool")
    assert pool.parent is None
    assert pool.thread != rec.spans[outer].thread
    # driver opened at 0, pool ran 1..2, driver closed at 3: nothing subtracted.
    assert by_name(rec) == {"driver": [3.0], "pool": [1.0]}


def test_wrapped_method_that_raises_closes_its_span_and_reraises():
    rec = ticking()

    class Boom:
        def run(self):
            raise ValueError("boom")

    boom = Boom()
    boom.run = rec.wrap("boom", boom.run, counts=lambda a, k, r: {"never": 1})
    outer = rec.open("outer")
    with pytest.raises(ValueError, match="boom"):
        boom.run()
    after = rec.open("after")
    rec.close(after)
    rec.close(outer)
    failed = rec.spans[1]
    assert failed.name == "boom" and failed.failed
    assert failed.duration == 1.0
    # The stack unwound: the next span's parent is the outer span again.
    assert rec.spans[after].parent == outer
    assert "never" not in rec.counters


def test_wrap_counts_and_inside():
    rec = ticking()
    inner = rec.wrap("inner", lambda: 3, counts=lambda a, k, r: {"items": r})
    outer = rec.wrap("outer", lambda: (rec.inside("outer"), inner() + inner()))
    assert outer() == (True, 6)
    assert rec.counters["items"] == 6
    assert not rec.inside("outer")


def test_covered_merges_overlapping_intervals_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2
    assert covered([], 0, 1) == 0


def test_driver_breakdown_partitions_the_window():
    rec = ticking()
    main = threading.get_ident()
    rnd = rec.open("plan")  # 0
    ex = rec.open("executor")  # 1
    rec.close(ex)  # 2
    agg = rec.open("aggregate")  # 3
    rec.close(agg)  # 4
    rec.close(rnd)  # 5
    # Window [-1, 7]: 1 tick before the round and 2 after are unattributed.
    breakdown = driver_breakdown(rec.spans, main, (-1.0, 7.0))
    assert breakdown.layers == {"plan": 3.0, "executor": 1.0, "aggregate": 1.0}
    assert breakdown.unattributed_s == 3.0
    assert breakdown.residual == 0.0
    assert breakdown.share("plan") == pytest.approx(3.0 / 8.0)


def test_driver_breakdown_moves_cross_thread_cover_out_of_the_waiting_layer():
    rec = ticking()
    main = threading.get_ident()
    ex = rec.open("executor")  # 0
    inline = rec.open("local_update")  # 1: a cohort run inline
    rec.close(inline)  # 2

    def cohort():
        rec.close(rec.open("local_update"))  # 3..4

    thread = threading.Thread(target=cohort)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.close(ex)  # 5
    breakdown = driver_breakdown(
        rec.spans, main, (0.0, 5.0), cross_thread={"executor": "local_update"}
    )
    # executor self = 5 - 1 (inline child) = 4, of which 1 tick is covered by
    # the pool thread's cohort and moves to local_update.
    assert breakdown.layers == {"executor": 3.0, "local_update": 2.0}
    assert breakdown.residual == 0.0


def test_patched_restores_attributes_even_on_error():
    class Holder:
        value = "original"

    with pytest.raises(RuntimeError):
        with patched((Holder, "value", "patched")):
            assert Holder.value == "patched"
            raise RuntimeError
    assert Holder.value == "original"


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 61)]  # 60 samples
    value, percentile = tail(values)
    assert value == 50.0  # 10 samples (51..60) lie beyond it
    assert percentile == pytest.approx(100 * 50 / 60)
    assert tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_write_emits_one_json_line_per_span(tmp_path):
    rec = ticking()
    outer = rec.open("outer")
    rec.close(rec.open("inner"), failed=True)
    rec.close(outer)
    path = tmp_path / "spans" / "trial.jsonl"
    rec.write(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(d["name"], d["parent"], d["failed"]) for d in lines] == [
        ("outer", None, False),
        ("inner", 0, True),
    ]
    assert lines[1]["end"] - lines[1]["start"] == 1.0
