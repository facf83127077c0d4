"""Coverage of small utilities not exercised elsewhere."""

import pytest

from repro.analysis.report import render_timeline
from repro.memsys.cache import CacheStats
from repro.core.taxonomy import MULTI_T_MV_LAZY, MergePolicy, TaskPolicy


class TestRenderTimeline:
    def test_segments_rendered_per_proc(self):
        text = render_timeline(
            {0: [("exec", 0.0, 40.0), ("commit", 40.0, 50.0)],
             1: [("exec", 10.0, 60.0)]},
            total=60.0, title="tl", width=30)
        lines = text.splitlines()
        assert lines[0] == "tl"
        assert lines[1].startswith("P0 |")
        assert "e" in lines[1] and "c" in lines[1]
        assert "e" in lines[2]

    def test_zero_total_does_not_crash(self):
        text = render_timeline({0: []}, total=0.0)
        assert "P0" in text


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_hit_rate_no_accesses(self):
        assert CacheStats().hit_rate == 0.0


class TestEnumStrings:
    def test_policy_strings(self):
        assert str(TaskPolicy.MULTI_T_MV) == "MultiT&MV"
        assert str(MergePolicy.LAZY_AMM) == "Lazy AMM"

    def test_scheme_str_matches_name(self):
        assert str(MULTI_T_MV_LAZY) == MULTI_T_MV_LAZY.name

    def test_cycle_category_strings(self):
        from repro.processor.processor import CycleCategory

        assert str(CycleCategory.SV_STALL) == "sv-stall"

    def test_task_state_strings(self):
        from repro.tls.task import TaskState

        assert str(TaskState.SV_STALLED) == "sv-stalled"

    def test_support_strings(self):
        from repro.core.supports import Support

        assert str(Support.CTID) == "Cache Task ID"

    def test_trace_event_strings(self):
        from repro.core.trace import TraceEvent

        assert str(TraceEvent.TASK_SQUASHED) == "task-squashed"

    def test_limiting_characteristic_strings(self):
        from repro.core.taxonomy import LimitingCharacteristic

        assert "imbalance" in str(LimitingCharacteristic.LOAD_IMBALANCE)


class TestWorkloadRepr:
    def test_region_constants_ordered(self):
        from repro.workloads.base import (
            DEP_BASE,
            OUTPUT_BASE,
            PRIV_BASE,
            SHARED_RO_BASE,
        )

        assert SHARED_RO_BASE < PRIV_BASE < OUTPUT_BASE < DEP_BASE
