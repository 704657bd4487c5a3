"""repro.bqt.aio — the asyncio BQT session engine.

The paper's fleet kept throughput up by holding many storefront
sessions in flight at once while never exceeding the per-ISP politeness
cap. The process-sharded runtime reproduces the fleet shape, but each
worker still drives one session at a time; this module gives one worker
the fleet's trick: an event loop that interleaves query sessions
against *different* storefronts, with a :class:`PolitenessGate` (a
per-ISP token bucket) enforcing the concurrent-session cap exactly.

Determinism is preserved by construction, not by luck:

* every session draws from its own RNG stream
  (``stable_rng(seed, "engine", isp, address_id)``), created when the
  session starts and advanced only inside its own
  :meth:`~repro.bqt.engine.QuerySession.step` calls — interleaving
  steps of different sessions cannot reorder any stream's draws;
* sessions that *do* share state (the proxy pool inside one cell's
  engine) run strictly in cell order, because the cell coroutines
  reuse the exact query sequences of :mod:`repro.core.collection`;
* results are keyed by cell and merged in canonical order by
  :mod:`repro.runtime.merge`, never in completion order.

Together these make the async engine's merged logbook *bit-identical*
to the serial campaign's — the invariant
``tests/harness/equivalence.py`` checks differentially across every
backend.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager

from repro.addresses.models import StreetAddress
from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.bqt.engine import BqtEngine, EngineConfig
from repro.bqt.logbook import QueryRecord
from repro.bqt.priming import SessionPrimer
from repro.core.collection import (
    Q3BlockOutcome,
    q3_block_setup,
    q3_query_sequence,
    q12_cell_addresses,
    q12_cell_setup,
    q12_query_sequence,
    session_primer,
    settle_q12_record,
    settle_q3_mode,
)
from repro.core.sampling import SamplePlan, SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.synth.world import World

__all__ = [
    "PolitenessGate",
    "SessionMonitor",
    "query_async",
    "run_q12_cell_async",
    "run_q3_block_async",
    "run_cells_async",
]


class SessionMonitor:
    """Politeness *evidence*, measured apart from its enforcement.

    Counts sessions actually in flight per ISP at the query layer
    (inside :func:`query_async`, between session open and final
    record), not inside :class:`PolitenessGate` — a watermark read
    from the gate's own counter is bounded by the very semaphore under
    test and can never catch an ungated query path. This one can: any
    query the drivers issue is counted whether or not it holds a
    token, so the harness's cap assertions are falsifiable.
    """

    def __init__(self):
        self._active: dict[str, int] = {}
        self._watermarks: dict[str, int] = {}

    @property
    def watermarks(self) -> dict[str, int]:
        """Max concurrent in-flight sessions observed, per ISP."""
        return dict(self._watermarks)

    def enter(self, isp_id: str) -> None:
        """Account a session opening against the storefront."""
        count = self._active.get(isp_id, 0) + 1
        self._active[isp_id] = count
        if count > self._watermarks.get(isp_id, 0):
            self._watermarks[isp_id] = count

    def exit(self, isp_id: str) -> None:
        """Account a session closing."""
        self._active[isp_id] -= 1


class PolitenessGate:
    """A per-ISP token bucket bounding concurrent storefront sessions.

    Each ISP gets ``per_isp_cap`` tokens; a session holds one token for
    its whole lifetime against that storefront. The gate also keeps the
    politeness evidence the test harness audits: a high-water mark of
    concurrent in-flight sessions per ISP, plus — only when
    ``record_trace`` is set, since it grows with every session — an
    (acquire/release) event trace.
    """

    def __init__(self, per_isp_cap: int = MAX_POLITE_WORKERS_PER_ISP,
                 record_trace: bool = False):
        if per_isp_cap < 1:
            raise ValueError("per_isp_cap must be at least 1")
        if per_isp_cap > MAX_POLITE_WORKERS_PER_ISP:
            raise ValueError(
                f"per_isp_cap {per_isp_cap} exceeds the politeness cap "
                f"of {MAX_POLITE_WORKERS_PER_ISP}")
        self._cap = per_isp_cap
        self._semaphores: dict[str, asyncio.Semaphore] = {}
        self._inflight: dict[str, int] = {}
        self._watermarks: dict[str, int] = {}
        self._trace: list[tuple[str, str, int]] | None = (
            [] if record_trace else None)
        # Sidecar telemetry: how long sessions wait on politeness
        # tokens. Monotonic deltas only — never written to logbooks.
        self._wait_hist = _METRICS.histogram(
            "politeness_gate_wait_seconds")
        self._sessions = _METRICS.counter("politeness_gate_sessions_total")

    @property
    def per_isp_cap(self) -> int:
        """Tokens per storefront."""
        return self._cap

    @property
    def watermarks(self) -> dict[str, int]:
        """Max concurrent in-flight sessions observed, per ISP."""
        return dict(self._watermarks)

    @property
    def trace(self) -> list[tuple[str, str, int]]:
        """(event, isp, inflight-after-event) politeness trace (empty
        unless the gate was built with ``record_trace``)."""
        return list(self._trace or ())

    def _semaphore(self, isp_id: str) -> asyncio.Semaphore:
        if isp_id not in self._semaphores:
            self._semaphores[isp_id] = asyncio.Semaphore(self._cap)
            self._inflight[isp_id] = 0
            self._watermarks[isp_id] = 0
        return self._semaphores[isp_id]

    @asynccontextmanager
    async def session(self, isp_id: str):
        """Hold one of the ISP's session tokens for the block's body."""
        semaphore = self._semaphore(isp_id)
        waited_from = time.monotonic()
        await semaphore.acquire()
        self._wait_hist.observe(time.monotonic() - waited_from)
        self._sessions.inc()
        self._inflight[isp_id] += 1
        self._watermarks[isp_id] = max(
            self._watermarks[isp_id], self._inflight[isp_id])
        if self._trace is not None:
            self._trace.append(("acquire", isp_id, self._inflight[isp_id]))
        try:
            yield
        finally:
            self._inflight[isp_id] -= 1
            if self._trace is not None:
                self._trace.append(("release", isp_id, self._inflight[isp_id]))
            semaphore.release()


async def query_async(
    engine: BqtEngine,
    address: StreetAddress,
    monitor: SessionMonitor | None = None,
) -> QueryRecord:
    """Query one address, yielding the loop between attempts.

    Steps the same :class:`~repro.bqt.engine.QuerySession` state
    machine the blocking :meth:`~repro.bqt.engine.BqtEngine.query`
    drives, but suspends at every attempt boundary — the point where
    the real BQT waits on a page load — so sessions against other
    storefronts can run during the wait. ``monitor`` (when given)
    records the session's lifetime for politeness evidence.
    """
    session = engine.begin(address)
    # Pacing sleeps happen *here* with an await, never inside step():
    # a blocking sleep in the state machine would stall every other
    # storefront's session sharing this event loop.
    pace = engine._config.pace
    if monitor is not None:
        monitor.enter(engine.isp_id)
    try:
        while not session.done:
            took = session.step()
            await asyncio.sleep(took * pace if pace > 0 and took > 0 else 0)
    finally:
        if monitor is not None:
            monitor.exit(engine.isp_id)
    return session.record


async def run_q12_cell_async(
    world: World,
    isp_id: str,
    cbg: str,
    addresses: list[StreetAddress],
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    monitor: SessionMonitor | None = None,
    primer: SessionPrimer | None = None,
) -> tuple[SamplePlan, list[QueryRecord]]:
    """Async twin of :func:`repro.core.collection.run_q12_cell`.

    Drives the *same* :func:`~repro.core.collection.q12_query_sequence`
    the blocking driver uses, so the address order, replacement draws,
    and record stream are identical — only the waiting is cooperative.
    """
    if max_replacements < 0:
        raise ValueError("max_replacements must be non-negative")
    engine, plan = q12_cell_setup(world, isp_id, cbg, addresses,
                                  policy=policy, engine_config=engine_config,
                                  primer=primer)
    records: list[QueryRecord] = []
    sequence = q12_query_sequence(plan, max_replacements)
    try:
        address, failed = next(sequence)
        while True:
            record = settle_q12_record(
                await query_async(engine, address, monitor), failed)
            records.append(record)
            address, failed = sequence.send(record)
    except StopIteration:
        pass
    return plan, records


async def run_q3_block_async(
    world: World,
    block_geoid: str,
    engine_config: EngineConfig | None = None,
    gate: PolitenessGate | None = None,
    monitor: SessionMonitor | None = None,
    primer: SessionPrimer | None = None,
) -> Q3BlockOutcome | None:
    """Async twin of :func:`repro.core.collection.run_q3_block`.

    The caller is expected to hold the *incumbent's* gate token for the
    block's lifetime; cable probes additionally take (and promptly
    return) a token for the cable storefront, so overlap ISPs are
    politeness-capped too.
    """
    setup = q3_block_setup(world, block_geoid, engine_config, primer)
    if setup is None:
        return None
    outcome, engines, caf_addresses, non_caf = setup
    records: list[QueryRecord] = []
    for role, address, mode in q3_query_sequence(
            caf_addresses, non_caf, engines["cable"] is not None):
        if role == "cable" and gate is not None:
            async with gate.session(engines["cable"].isp_id):
                record = await query_async(engines["cable"], address, monitor)
        else:
            record = await query_async(engines[role], address, monitor)
        records.append(record)
        settled = settle_q3_mode(mode, record)
        if settled is not None:
            outcome.modes[address.address_id] = settled
    outcome.records = tuple(records)
    return outcome


async def run_cells_async(
    world: World,
    q12_cells,
    q3_blocks,
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    max_inflight: int = 8,
    per_isp_cap: int = MAX_POLITE_WORKERS_PER_ISP,
) -> tuple[dict, dict, dict[str, int]]:
    """Run one shard's cells on the current event loop, interleaved.

    ``max_inflight`` bounds the loop's total concurrent sessions (the
    utilization knob); ``per_isp_cap`` is the politeness bound each
    storefront gets (the ethics knob — callers running several loops at
    once must divide the global cap between them, which
    :class:`~repro.runtime.executor.RuntimeConfig` does).

    Returns ``(q12_records, q3_outcomes, watermarks)`` keyed by cell —
    *not* ordered by completion — plus per-ISP concurrency high-water
    marks for politeness auditing, measured by a
    :class:`SessionMonitor` at the query layer rather than read back
    from the gate that enforces the cap.
    """
    if max_inflight < 1:
        raise ValueError("max_inflight must be at least 1")
    # Lock ordering is gate -> slot for cells, but a Q3 cable probe
    # takes the cable ISP's token while holding a slot. That is only
    # cycle-free because cable-overlap ISPs are never also primary
    # storefronts — neither a Q1/Q2 cell's ISP nor a Q3 incumbent;
    # reject the (unsupported, study-design-violating) overlap instead
    # of deadlocking on it.
    cable_isps = set()
    primary_isps = {cell.isp_id for cell in q12_cells}
    for block in q3_blocks:
        competition = world.block_competition[block]
        primary_isps.add(competition.incumbent_isp_id)
        if competition.cable_isp_id:
            cable_isps.add(competition.cable_isp_id)
    overlap = primary_isps & cable_isps
    if overlap:
        raise ValueError(
            f"cannot interleave {sorted(overlap)} as both a primary "
            "storefront and a Q3 cable overlap in one shard")
    gate = PolitenessGate(per_isp_cap)
    monitor = SessionMonitor()
    slots = asyncio.Semaphore(max_inflight)
    q12_records: dict = {}
    q3_outcomes: dict = {}
    # Each storefront's gate admits its cells in canonical order, so one
    # primer per gate sees its cells asked for (nearly) in the order it
    # walks them. A cell the walk has passed by the time it starts is
    # primed alone, with the same records.
    streams: dict[str, tuple[list, list]] = {}
    q12_addresses = q12_cell_addresses(world, q12_cells)
    for isp_id, cbg, addresses in q12_addresses:
        streams.setdefault(isp_id, ([], []))[0].append(
            (isp_id, cbg, addresses))
    for block in q3_blocks:
        incumbent = world.block_competition[block].incumbent_isp_id
        streams.setdefault(incumbent, ([], []))[1].append(block)
    primers = {isp_id: session_primer(world, cells, blocks, policy=policy,
                                      engine_config=engine_config)
               for isp_id, (cells, blocks) in streams.items()}

    # Gate before slot: a cell blocked on its storefront's politeness
    # budget must not occupy a loop slot, or a run of same-ISP cells
    # would starve other storefronts of the very backfill this engine
    # exists for. Slot holders are therefore always runnable.
    async def q12_task(cell, addresses) -> None:
        async with gate.session(cell.isp_id):
            async with slots:
                _plan, records = await run_q12_cell_async(
                    world, cell.isp_id, cell.cbg, addresses,
                    policy=policy, engine_config=engine_config,
                    max_replacements=max_replacements, monitor=monitor,
                    primer=primers[cell.isp_id],
                )
                q12_records[cell] = tuple(records)

    async def q3_task(block_geoid: str) -> None:
        incumbent = world.block_competition[block_geoid].incumbent_isp_id
        async with gate.session(incumbent):
            async with slots:
                q3_outcomes[block_geoid] = await run_q3_block_async(
                    world, block_geoid, engine_config, gate=gate,
                    monitor=monitor, primer=primers[incumbent])

    async with asyncio.TaskGroup() as group:
        for cell, (_isp_id, _cbg, addresses) in zip(q12_cells, q12_addresses):
            group.create_task(q12_task(cell, addresses))
        for block_geoid in q3_blocks:
            group.create_task(q3_task(block_geoid))
    return q12_records, q3_outcomes, monitor.watermarks
