"""Unit tests for RNG streams and trace recording."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.rng import RngRegistry
from repro.simulation.trace import TraceRecorder


class TestRngRegistry:
    def test_same_seed_same_stream(self):
        a = RngRegistry(seed=7).stream("x").uniform(size=8)
        b = RngRegistry(seed=7).stream("x").uniform(size=8)
        assert np.array_equal(a, b)

    def test_different_names_decorrelated(self):
        reg = RngRegistry(seed=7)
        a = reg.stream("x").uniform(size=8)
        b = reg.stream("y").uniform(size=8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=7).stream("x").uniform(size=8)
        b = RngRegistry(seed=8).stream("x").uniform(size=8)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        reg = RngRegistry(seed=7)
        assert reg.stream("x") is reg.stream("x")

    def test_stream_independent_of_creation_order(self):
        first = RngRegistry(seed=7)
        first.stream("a")
        a_then = first.stream("b").uniform(size=4)
        second = RngRegistry(seed=7)
        b_only = second.stream("b").uniform(size=4)
        assert np.array_equal(a_then, b_only)

    def test_fork_decorrelates(self):
        reg = RngRegistry(seed=7)
        child = reg.fork("replica")
        a = reg.stream("x").uniform(size=8)
        b = child.stream("x").uniform(size=8)
        assert not np.array_equal(a, b)

    def test_fork_deterministic(self):
        a = RngRegistry(seed=7).fork("r").stream("x").uniform(size=4)
        b = RngRegistry(seed=7).fork("r").stream("x").uniform(size=4)
        assert np.array_equal(a, b)

    def test_key_collision_names_both_streams(self):
        # crc32("plumless") == crc32("buckeroo") == 0x4ddb0c25: without the
        # check the two streams would draw identical numbers.
        reg = RngRegistry(seed=7)
        reg.stream("plumless")
        with pytest.raises(ValueError, match="'plumless' and 'buckeroo'.*0x4ddb0c25"):
            reg.stream("buckeroo")
        assert reg.stream("plumless") is reg.stream("plumless")


class TestTraceRecorder:
    def test_record_and_filter(self):
        trace = TraceRecorder()
        trace.record(1.0, "reset", "S1", new_error=0.5)
        trace.record(2.0, "reset", "S2", new_error=0.7)
        trace.record(3.0, "reject", "S1")
        assert len(trace) == 3
        assert trace.count("reset") == 2
        assert [r.source for r in trace.filter(kind="reset")] == ["S1", "S2"]
        assert [r.time for r in trace.filter(source="S1")] == [1.0, 3.0]

    def test_predicate_filter(self):
        trace = TraceRecorder()
        trace.record(1.0, "reset", "S1", new_error=0.5)
        trace.record(2.0, "reset", "S1", new_error=0.1)
        rows = trace.filter(predicate=lambda r: r.data["new_error"] < 0.3)
        assert len(rows) == 1 and rows[0].time == 2.0

    def test_series_extraction(self):
        trace = TraceRecorder()
        trace.record(1.0, "sample", "S1", error=0.1)
        trace.record(2.0, "sample", "S1", error=0.2)
        trace.record(3.0, "sample", "S1")  # missing field skipped
        series = trace.series("error", kind="sample", source="S1")
        assert series.shape == (2, 2)
        assert series[1, 1] == 0.2

    def test_empty_series(self):
        trace = TraceRecorder()
        assert trace.series("missing").shape == (0, 2)

    def test_disabled_recorder_drops_rows(self):
        trace = TraceRecorder(enabled=False)
        trace.record(1.0, "reset", "S1")
        assert len(trace) == 0

    def test_kinds_and_clear(self):
        trace = TraceRecorder()
        trace.record(1.0, "b", "S1")
        trace.record(1.0, "a", "S1")
        assert trace.kinds == ["a", "b"]
        trace.clear()
        assert len(trace) == 0 and trace.kinds == []
