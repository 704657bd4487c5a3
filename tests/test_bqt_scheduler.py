"""Unit tests for repro.bqt.scheduler."""

import pytest

from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.bqt.logbook import QueryLog, QueryRecord
from repro.bqt.responses import QueryStatus
from repro.bqt.scheduler import (
    WorkerSchedule,
    _lpt_makespan_seconds,
    schedule_campaign,
)


def record(isp, address_id, seconds):
    return QueryRecord(
        isp_id=isp, address_id=address_id,
        block_geoid="060371234561001", state_abbreviation="CA",
        status=QueryStatus.NO_SERVICE, elapsed_seconds=seconds)


class TestLptMakespan:
    def test_single_worker_sums(self):
        assert _lpt_makespan_seconds([3.0, 1.0, 2.0], 1) == 6.0

    def test_enough_workers_takes_longest(self):
        assert _lpt_makespan_seconds([3.0, 1.0, 2.0], 3) == 3.0
        assert _lpt_makespan_seconds([3.0, 1.0, 2.0], 10) == 3.0

    def test_lpt_balances(self):
        # LPT on {4,3,2,1} with 2 workers: 4+1 and 3+2 → makespan 5.
        assert _lpt_makespan_seconds([4.0, 3.0, 2.0, 1.0], 2) == 5.0

    def test_empty(self):
        assert _lpt_makespan_seconds([], 4) == 0.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            _lpt_makespan_seconds([1.0], 0)


class TestScheduleCampaign:
    def _log(self):
        log = QueryLog()
        for i in range(20):
            log.append(record("att", f"a-{i}", 100.0))
        for i in range(20):
            log.append(record("centurylink", f"c-{i}", 10.0))
        return log

    def test_wall_clock_is_slowest_isp(self):
        schedule = schedule_campaign(self._log(), workers_per_isp=2)
        assert schedule.wall_clock_days == \
            schedule.per_isp_makespan_days["att"]

    def test_more_workers_shrink_makespan(self):
        log = self._log()
        two = schedule_campaign(log, workers_per_isp=2)
        four = schedule_campaign(log, workers_per_isp=4)
        assert four.wall_clock_days < two.wall_clock_days

    def test_makespan_bounds(self):
        # Makespan is at least total/workers and at most total.
        log = self._log()
        schedule = schedule_campaign(log, workers_per_isp=4)
        att_total_days = 20 * 100.0 / 86_400.0
        assert schedule.per_isp_makespan_days["att"] >= att_total_days / 4
        assert schedule.per_isp_makespan_days["att"] <= att_total_days

    def test_per_isp_worker_map(self):
        schedule = schedule_campaign(self._log(),
                                     workers_per_isp={"att": 4})
        assert schedule.per_isp_workers["att"] == 4
        assert schedule.per_isp_workers["centurylink"] == 1

    def test_utilization_bounded(self):
        schedule = schedule_campaign(self._log(), workers_per_isp=3)
        assert 0.0 < schedule.utilization <= 1.0

    def test_identical_durations_fully_utilized(self):
        log = QueryLog()
        for i in range(8):
            log.append(record("att", f"a-{i}", 50.0))
        schedule = schedule_campaign(log, workers_per_isp=4)
        assert schedule.utilization == pytest.approx(1.0)

    def test_politeness_cap(self):
        with pytest.raises(ValueError, match="politeness"):
            schedule_campaign(self._log(),
                              workers_per_isp=MAX_POLITE_WORKERS_PER_ISP + 1)

    def test_empty_log_raises(self):
        with pytest.raises(ValueError):
            schedule_campaign(QueryLog())

    def test_render(self):
        schedule = schedule_campaign(self._log())
        text = schedule.render()
        assert "wall clock" in text
        assert "att" in text

    def test_more_workers_than_queries(self):
        # 3 queries against 8 workers: makespan is the longest single
        # query; the extra workers sit idle but never go negative.
        log = QueryLog()
        for i, seconds in enumerate((30.0, 20.0, 10.0)):
            log.append(record("att", f"a-{i}", seconds))
        schedule = schedule_campaign(
            log, workers_per_isp=MAX_POLITE_WORKERS_PER_ISP)
        assert schedule.per_isp_makespan_days["att"] == \
            pytest.approx(30.0 / 86_400.0)
        assert 0.0 < schedule.utilization <= 1.0

    def test_single_worker_makespan_is_sum_of_durations(self):
        log = QueryLog()
        for i, seconds in enumerate((7.0, 11.0, 13.0)):
            log.append(record("att", f"a-{i}", seconds))
        schedule = schedule_campaign(log, workers_per_isp=1)
        assert schedule.per_isp_makespan_days["att"] == \
            pytest.approx(31.0 / 86_400.0)
        # One worker is always perfectly packed.
        assert schedule.utilization == pytest.approx(1.0)

    def test_utilization_bounds_across_fleet_sizes(self):
        log = self._log()
        for workers in range(1, MAX_POLITE_WORKERS_PER_ISP + 1):
            schedule = schedule_campaign(log, workers_per_isp=workers)
            assert 0.0 < schedule.utilization <= 1.0, workers

    def test_single_record_fleet(self):
        log = QueryLog()
        log.append(record("att", "a-0", 5.0))
        schedule = schedule_campaign(log, workers_per_isp=4)
        assert schedule.wall_clock_days == pytest.approx(5.0 / 86_400.0)
        assert 0.0 < schedule.utilization <= 1.0

    def test_on_real_collection(self, report):
        schedule = schedule_campaign(report.collection.log)
        assert isinstance(schedule, WorkerSchedule)
        assert schedule.wall_clock_days > 0
        # AT&T should dominate the schedule as it does Figure 12.
        assert schedule.per_isp_makespan_days["att"] == \
            schedule.wall_clock_days

