"""Tests for vector clocks, intervals, and write notices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamps import (
    IntervalLog,
    NoticeRun,
    VectorClock,
    notice_blocks,
    notice_runs,
)


class TestVectorClock:
    def test_starts_zero(self):
        vc = VectorClock(4)
        assert vc.as_tuple() == (0, 0, 0, 0)

    def test_tick_increments_own_component(self):
        vc = VectorClock(4)
        assert vc.tick(2) == 1
        assert vc.tick(2) == 2
        assert vc.as_tuple() == (0, 0, 2, 0)

    def test_merge_elementwise_max(self):
        a = VectorClock(3)
        a.v = [1, 5, 2]
        a.merge((3, 1, 2))
        assert a.as_tuple() == (3, 5, 2)

    def test_copy_is_independent(self):
        a = VectorClock(3)
        b = a.copy()
        a.tick(0)
        assert b.as_tuple() == (0, 0, 0)

    def test_dominates(self):
        a = VectorClock(2)
        a.v = [2, 3]
        assert a.dominates((2, 3))
        assert a.dominates((1, 0))
        assert not a.dominates((3, 0))

    @given(
        xs=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
        ys=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_produces_upper_bound(self, xs, ys):
        a = VectorClock(4)
        a.v = list(xs)
        a.merge(ys)
        assert a.dominates(xs)
        assert a.dominates(ys)
        # least upper bound
        assert all(v == max(x, y) for v, x, y in zip(a.v, xs, ys))


class TestIntervalLog:
    def test_close_interval_appends(self):
        log = IntervalLog(2)
        idx = log.close_interval(0, [NoticeRun(5, 1, 1, 0)])
        assert idx == 0
        assert log.intervals_of(0) == 1
        assert log.intervals_of(1) == 0

    def test_notices_between_empty_ranges(self):
        log = IntervalLog(2)
        log.close_interval(0, [NoticeRun(1, 1, 1, 0)])
        assert log.notices_between((1, 0), (1, 0)) == []

    def test_notices_between_returns_unseen(self):
        log = IntervalLog(2)
        log.close_interval(0, [NoticeRun(1, 1, 1, 0)])
        log.close_interval(0, [NoticeRun(2, 1, 1, 0)])
        log.close_interval(1, [NoticeRun(3, 1, 1, 1)])
        out = log.notices_between((0, 0), (2, 1))
        blocks = sorted(n.first for n in out)
        assert blocks == [1, 2, 3]

    def test_notices_between_partial(self):
        log = IntervalLog(1)
        for k in range(5):
            log.close_interval(0, [NoticeRun(k, 1, 1, 0)])
        out = log.notices_between((2,), (4,))
        assert sorted(n.first for n in out) == [2, 3]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_vector_difference_covers_exactly_unseen_intervals(self, data):
        n = 3
        log = IntervalLog(n)
        counts = [data.draw(st.integers(min_value=0, max_value=5)) for _ in range(n)]
        tag = 0
        expected = {}
        for node in range(n):
            for k in range(counts[node]):
                log.close_interval(node, [NoticeRun(tag, 1, 1, node)])
                expected[(node, k)] = tag
                tag += 1
        seen = tuple(
            data.draw(st.integers(min_value=0, max_value=counts[i])) for i in range(n)
        )
        out = log.notices_between(seen, tuple(counts))
        got = sorted(wn.first for wn in out)
        want = sorted(
            expected[(node, k)]
            for node in range(n)
            for k in range(seen[node], counts[node])
        )
        assert got == want


class TestNoticeRun:
    def test_frozen(self):
        run = NoticeRun(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            run.first = 9

    def test_fields(self):
        run = NoticeRun(first=7, count=2, version=3, owner=1)
        assert (run.first, run.count, run.version, run.owner) == (7, 2, 3, 1)
        assert notice_blocks([run, NoticeRun(0, 5, 1, 1)]) == 7

    def test_runs_split_on_gaps_and_versions(self):
        pairs = [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (7, 1)]
        assert notice_runs(pairs, 3) == [
            NoticeRun(1, 2, 1, 3),
            NoticeRun(3, 2, 2, 3),
            NoticeRun(6, 1, 2, 3),
            NoticeRun(7, 1, 1, 3),
        ]
        assert notice_runs([], 0) == []
