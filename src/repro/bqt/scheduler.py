"""Worker scheduling: from a query log to campaign wall-clock.

The real BQT ran "many Docker containers" in parallel, each driving one
browser session. Given the per-address query times a campaign actually
produced (the log), this module schedules those queries onto a worker
fleet and reports the resulting wall-clock — the empirical counterpart
of :mod:`repro.bqt.campaign`'s closed-form arithmetic.

Scheduling is per-ISP (a container binds to one ISP workflow) with the
politeness cap on concurrent sessions per storefront, using the
longest-processing-time-first heuristic (LPT is within 4/3 of the
optimal makespan for identical machines, which is more than accurate
enough for capacity planning).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP, SECONDS_PER_DAY
from repro.bqt.logbook import QueryLog

__all__ = [
    "WorkerSchedule",
    "schedule_campaign",
]


@dataclass(frozen=True)
class WorkerSchedule:
    """The outcome of scheduling one campaign onto a worker fleet."""

    per_isp_makespan_days: Mapping[str, float]
    per_isp_workers: Mapping[str, int]
    total_query_seconds: float

    @property
    def wall_clock_days(self) -> float:
        """ISP fleets run concurrently; the slowest sets the campaign."""
        return max(self.per_isp_makespan_days.values())

    @property
    def utilization(self) -> float:
        """Busy time over allocated fleet time (1.0 = perfectly packed)."""
        allocated = sum(
            self.per_isp_makespan_days[isp] * SECONDS_PER_DAY * workers
            for isp, workers in self.per_isp_workers.items()
        )
        if allocated == 0:
            return 1.0
        return self.total_query_seconds / allocated

    def render(self) -> str:
        """Human-readable schedule summary."""
        lines = [f"campaign wall clock: {self.wall_clock_days:.2f} days "
                 f"(fleet utilization {self.utilization:.0%})"]
        for isp in sorted(self.per_isp_makespan_days):
            lines.append(
                f"  {isp}: {self.per_isp_workers[isp]} workers, "
                f"{self.per_isp_makespan_days[isp]:.2f} days")
        return "\n".join(lines)


def _lpt_makespan_seconds(durations: list[float], workers: int) -> float:
    """Longest-processing-time-first makespan on identical workers."""
    if workers <= 0:
        raise ValueError("need at least one worker")
    if not durations:
        return 0.0
    loads = [0.0] * min(workers, len(durations))
    heapq.heapify(loads)
    for duration in sorted(durations, reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + duration)
    return max(loads)


def schedule_campaign(
    log: QueryLog,
    workers_per_isp: int | Mapping[str, int] = MAX_POLITE_WORKERS_PER_ISP,
) -> WorkerSchedule:
    """Schedule a campaign's queries onto per-ISP worker fleets."""
    isps = log.isps()
    if not isps:
        raise ValueError("empty query log")
    if isinstance(workers_per_isp, int):
        workers_map = {isp: workers_per_isp for isp in isps}
    else:
        workers_map = {isp: workers_per_isp.get(isp, 1) for isp in isps}
    for isp, workers in workers_map.items():
        if workers < 1:
            raise ValueError(f"{isp} needs at least one worker")
        if workers > MAX_POLITE_WORKERS_PER_ISP:
            raise ValueError(
                f"{workers} workers against {isp} exceeds the politeness "
                f"cap of {MAX_POLITE_WORKERS_PER_ISP}")
    makespans = {}
    total_seconds = 0.0
    for isp in isps:
        durations = log.query_times(isp)
        total_seconds += sum(durations)
        makespans[isp] = _lpt_makespan_seconds(
            durations, workers_map[isp]) / SECONDS_PER_DAY
    return WorkerSchedule(
        per_isp_makespan_days=makespans,
        per_isp_workers=workers_map,
        total_query_seconds=total_seconds,
    )

