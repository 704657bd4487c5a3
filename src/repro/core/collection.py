"""Data-collection campaigns.

Two campaigns mirror the paper's two collections:

* :class:`CollectionCampaign` — the Q1/Q2 campaign: for every
  (ISP, state) cell, sample each CBG per the policy, query through BQT,
  and when an address ends ``UNKNOWN`` draw a replacement address from
  the same CBG's reserve (up to ``max_replacements`` per failure).
* :func:`collect_q3_dataset` — the Q3 campaign: in analyzed blocks,
  query the incumbent at *every* CAF and non-CAF address, and the
  overlapping cable ISP at non-CAF addresses, then assign each non-CAF
  address its mode (monopoly vs competition) from the cable outcome.

Both campaigns decompose into *cells* — one (ISP, CBG) sample for
Q1/Q2 (:func:`run_q12_cell`), one census block for Q3
(:func:`run_q3_block`) — each queried through a fresh engine so a
cell's records depend only on the world seed and the cell's own
addresses, never on which other cells ran before it. That independence
is what lets :mod:`repro.runtime` shard a campaign across processes and
merge the shard logs back into a result bit-identical to this module's
sequential loops.

A driver that runs many cells passes each one the same
:func:`session_primer`, which seeds the sessions of a window of cells
at a time (:mod:`repro.bqt.priming`); a cell run without one is primed
as a window of one. Priming is a cache and never changes a record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Iterable

from repro.addresses.models import StreetAddress
from repro.bqt.engine import EngineConfig
from repro.bqt.logbook import QueryLog, QueryRecord
from repro.bqt.priming import SessionPrimer, Sessions
from repro.bqt.responses import QueryStatus
from repro.core.sampling import SamplePlan, SamplingPolicy, plan_cbg_sample
from repro.synth.world import World

__all__ = [
    "CollectionResult",
    "CollectionCampaign",
    "Q3Collection",
    "Q3BlockOutcome",
    "collect_q3_dataset",
    "q3_block_candidates",
    "q12_cell_addresses",
    "q12_cell_setup",
    "q12_query_sequence",
    "q3_block_setup",
    "q3_query_sequence",
    "run_q12_cell",
    "run_q3_block",
    "session_primer",
    "settle_q12_record",
    "settle_q3_mode",
]


@dataclass
class CollectionResult:
    """Everything the Q1/Q2 campaign produced."""

    log: QueryLog
    # (isp_id, cbg) → the sample plan used.
    plans: dict[tuple[str, str], SamplePlan] = field(default_factory=dict)
    # (isp_id, cbg) → number of CAF addresses in the CBG (the weights).
    cbg_totals: dict[tuple[str, str], int] = field(default_factory=dict)

    def queried_fraction(self, isp_id: str, cbg: str) -> float:
        """Fraction of the CBG's addresses attempted (Figure 7)."""
        plan = self.plans[(isp_id, cbg)]
        attempted = {r.address_id for r in self.log.for_isp(isp_id)
                     if r.block_group_geoid == cbg}
        if plan.population_size == 0:
            return 0.0
        return len(attempted) / plan.population_size

    def collected_fraction(self, isp_id: str, cbg: str) -> float:
        """Fraction of the CBG's addresses with conclusive results
        (Figure 8)."""
        plan = self.plans[(isp_id, cbg)]
        conclusive = {r.address_id for r in self.log.for_isp(isp_id)
                      if r.block_group_geoid == cbg and r.status.is_conclusive}
        if plan.population_size == 0:
            return 0.0
        return len(conclusive) / plan.population_size


def _as_replacement(record: QueryRecord, failed: StreetAddress) -> QueryRecord:
    return QueryRecord(
        isp_id=record.isp_id,
        address_id=record.address_id,
        block_geoid=record.block_geoid,
        state_abbreviation=record.state_abbreviation,
        status=record.status,
        plans=record.plans,
        error_category=record.error_category,
        attempts=record.attempts,
        elapsed_seconds=record.elapsed_seconds,
        replacement_for=failed.address_id,
    )


def settle_q12_record(
    record: QueryRecord, replacement_for: StreetAddress | None
) -> QueryRecord:
    """Settle one Q1/Q2 query's record: mark reserve draws.

    Single-sourced so the blocking and asyncio drivers log — and feed
    back into :func:`q12_query_sequence` — the exact same record.
    """
    if replacement_for is None:
        return record
    return _as_replacement(record, replacement_for)


def settle_q3_mode(step_mode: str | None, record: QueryRecord) -> str | None:
    """Settle one Q3 step's incumbent mode (``None`` = no change).

    Incumbent steps carry their mode in the sequence; a cable probe
    upgrades the address to ``"competition"`` exactly when it returned
    serviceable. Single-sourced for the same reason as
    :func:`settle_q12_record`.
    """
    if step_mode is not None:
        return step_mode
    if record.status is QueryStatus.SERVICEABLE:
        return "competition"
    return None


def q12_query_sequence(plan: SamplePlan, max_replacements: int):
    """The Q1/Q2 cell's query schedule, as a driver-agnostic coroutine.

    Yields ``(address, replacement_for)`` pairs — ``replacement_for``
    is the failed :class:`StreetAddress` when this query is a reserve
    draw, else ``None`` — and expects the driver to ``send`` back the
    (already replacement-marked) :class:`QueryRecord` it produced. The
    replacement policy (draw from the reserve while the latest record
    is ``UNKNOWN``, up to ``max_replacements`` per failure) lives only
    here, so the blocking driver (:func:`run_q12_cell`) and the asyncio
    driver (:mod:`repro.bqt.aio`) cannot drift apart.
    """
    reserve = list(plan.reserve)
    for address in plan.selected:
        record = yield (address, None)
        failed = address
        replacements_used = 0
        while (record.status is QueryStatus.UNKNOWN
               and replacements_used < max_replacements
               and reserve):
            replacement = reserve.pop(0)
            record = yield (replacement, failed)
            failed = replacement
            replacements_used += 1


def _q12_cell(
    world: World,
    isp_id: str,
    cbg: str,
    addresses: list[StreetAddress],
    policy: SamplingPolicy,
    engine_config: EngineConfig | None,
) -> tuple[tuple, Sessions]:
    engine = world.engine_for(isp_id, engine_config)
    plan = plan_cbg_sample(cbg, addresses, policy, seed=world.config.seed)
    # Reserve draws derive their streams on demand.
    return (engine, plan), [(engine, plan.selected)]


def _q3_block(
    world: World,
    block_geoid: str,
    engine_config: EngineConfig | None,
) -> tuple[tuple | None, Sessions]:
    competition = world.block_competition[block_geoid]
    incumbent = competition.incumbent_isp_id
    caf_addresses = world.caf_addresses_in_block(incumbent, block_geoid)
    non_caf = world.zillow.non_caf_in_block(block_geoid)
    if not caf_addresses or not non_caf:
        return None, []
    outcome = Q3BlockOutcome(
        block_geoid=block_geoid, incumbent_isp_id=incumbent, records=())
    engines = {
        "incumbent": world.engine_for(incumbent, engine_config),
        "cable": (world.engine_for(competition.cable_isp_id, engine_config)
                  if competition.cable_isp_id else None),
    }
    sessions = [(engines["incumbent"], caf_addresses + non_caf)]
    if engines["cable"] is not None:
        sessions.append((engines["cable"], non_caf))
    return (outcome, engines, caf_addresses, non_caf), sessions


def session_primer(
    world: World,
    q12_cells: Iterable[tuple[str, str, list[StreetAddress]]] = (),
    q3_blocks: Iterable[str] = (),
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
) -> SessionPrimer:
    """The session primer for a run of cells, in the order they run.

    ``q12_cells`` are ``(isp_id, cbg, addresses)`` cells, run before the
    ``q3_blocks``. Pass the primer to every cell's
    :func:`run_q12_cell` / :func:`run_q3_block` (or their async twins)
    with the ``policy`` and ``engine_config`` it was built with.
    """
    policy = policy or SamplingPolicy()
    return SessionPrimer(chain(
        (((isp_id, cbg), partial(_q12_cell, world, isp_id, cbg, addresses,
                                 policy, engine_config))
         for isp_id, cbg, addresses in q12_cells),
        ((block_geoid, partial(_q3_block, world, block_geoid, engine_config))
         for block_geoid in q3_blocks)))


def q12_cell_addresses(
    world: World, cells: Iterable,
) -> list[tuple[str, str, list[StreetAddress]]]:
    """``(isp_id, cbg, addresses)`` for cells with ``isp_id``, ``state``
    and ``cbg`` (e.g. :class:`repro.runtime.shards.Q12Cell`).

    :meth:`World.caf_addresses_by_cbg` regroups a whole (ISP, state)
    footprint per call, so the grouping is shared across the cells.
    """
    grouped: dict[tuple[str, str], dict] = {}
    resolved = []
    for cell in cells:
        key = (cell.isp_id, cell.state)
        if key not in grouped:
            grouped[key] = world.caf_addresses_by_cbg(*key)
        resolved.append((cell.isp_id, cell.cbg, grouped[key][cell.cbg]))
    return resolved


def q12_cell_setup(
    world: World,
    isp_id: str,
    cbg: str,
    addresses: list[StreetAddress],
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    primer: SessionPrimer | None = None,
):
    """The Q1/Q2 cell drivers' shared prologue: fresh engine + plan.

    Single-sourced (like :func:`q12_query_sequence`) so the blocking
    and asyncio drivers cannot drift in how a cell's engine is seeded
    or its sample planned. The engine is primed for the plan's selected
    addresses, by ``primer`` or, without one, as a window of one.
    """
    if primer is None:
        primer = session_primer(world, [(isp_id, cbg, addresses)],
                                policy=policy, engine_config=engine_config)
    return primer.setup((isp_id, cbg))


def run_q12_cell(
    world: World,
    isp_id: str,
    cbg: str,
    addresses: list[StreetAddress],
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    primer: SessionPrimer | None = None,
) -> tuple[SamplePlan, list[QueryRecord]]:
    """Query one (ISP, CBG) cell against a fresh engine.

    The cell is the atomic unit of the Q1/Q2 campaign: the sample plan
    is deterministic in (world seed, CBG, addresses), and the fresh
    engine (with its fresh proxy pool) makes the record stream
    deterministic in the same inputs — independent of every other cell.
    ``primer`` (see :func:`session_primer`) only saves seeding work.
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
            record = settle_q12_record(engine.query(address), failed)
            records.append(record)
            address, failed = sequence.send(record)
    except StopIteration:
        pass
    return plan, records


class CollectionCampaign:
    """The Q1/Q2 stratified-sample querying campaign."""

    def __init__(
        self,
        world: World,
        policy: SamplingPolicy | None = None,
        engine_config: EngineConfig | None = None,
        max_replacements: int = 2,
    ):
        if max_replacements < 0:
            raise ValueError("max_replacements must be non-negative")
        self._world = world
        self._policy = policy or SamplingPolicy()
        self._engine_config = engine_config
        self._max_replacements = max_replacements

    def run(
        self,
        isps: tuple[str, ...] = ("att", "centurylink", "frontier", "consolidated"),
        states: tuple[str, ...] | None = None,
    ) -> CollectionResult:
        """Collect for every (ISP, state) cell with a CAF footprint."""
        result = CollectionResult(log=QueryLog())
        states = states or self._world.config.states
        cells = [(isp_id, cbg, addresses)
                 for isp_id in isps for state in states
                 for cbg, addresses in sorted(
                     self._world.caf_addresses_by_cbg(isp_id, state).items())]
        primer = session_primer(self._world, cells, policy=self._policy,
                                engine_config=self._engine_config)
        for isp_id, cbg, addresses in cells:
            plan, records = run_q12_cell(
                self._world, isp_id, cbg, addresses,
                policy=self._policy,
                engine_config=self._engine_config,
                max_replacements=self._max_replacements,
                primer=primer,
            )
            result.plans[(isp_id, cbg)] = plan
            result.cbg_totals[(isp_id, cbg)] = plan.population_size
            result.log.extend(records)
        return result


@dataclass
class Q3Collection:
    """Everything the Q3 campaign produced."""

    log: QueryLog
    # address_id → incumbent mode: "caf", "monopoly", or "competition".
    modes: dict[str, str] = field(default_factory=dict)
    # block geoid → incumbent ISP.
    incumbents: dict[str, str] = field(default_factory=dict)
    # Blocks that passed the exclusivity filter and were queried.
    analyzed_blocks: tuple[str, ...] = ()


@dataclass
class Q3BlockOutcome:
    """One analyzed block's contribution to the Q3 campaign."""

    block_geoid: str
    incumbent_isp_id: str
    records: tuple[QueryRecord, ...]
    # address_id → incumbent mode ("caf", "monopoly", "competition").
    modes: dict[str, str] = field(default_factory=dict)


def q3_block_candidates(
    world: World, states: tuple[str, ...] | None = None
) -> list[str]:
    """The sorted census blocks the Q3 campaign will consider.

    Blocks are pre-filtered with Form 477 + the National Broadband Map
    to those served exclusively by BQT-supported ISPs (Section 4.3) and
    restricted to the requested states. Some candidates are still
    dropped at query time (:func:`run_q3_block` returns ``None`` when a
    block has no CAF or no non-CAF addresses); this list is the stable
    iteration order both the sequential and the sharded campaigns use.
    """
    states = states or world.config.q3_states
    fips = {world.geographies[abbr].state_fips for abbr in states}
    bqt_ids = set(world.websites)
    eligible = set(world.form477.blocks_served_exclusively_by(bqt_ids))
    eligible &= set(world.broadband_map.blocks_served_exclusively_by(bqt_ids))
    return [b for b in sorted(eligible) if b[:2] in fips]


def q3_query_sequence(
    caf_addresses: list[StreetAddress],
    non_caf: list[StreetAddress],
    cable_available: bool,
):
    """The Q3 block's query schedule, as a driver-agnostic coroutine.

    Yields ``(role, address, mode)`` steps: ``role`` selects the
    incumbent or cable engine, and ``mode`` is the address's incumbent
    mode as this step settles it (``"caf"`` for CAF addresses,
    ``"monopoly"`` for non-CAF, ``None`` for the cable probe — the
    driver upgrades the address to ``"competition"`` when the cable
    record is serviceable). Shared by :func:`run_q3_block` and the
    asyncio driver so the query order is identical under every backend.
    """
    for address in caf_addresses:
        yield ("incumbent", address, "caf")
    for address in non_caf:
        yield ("incumbent", address, "monopoly")
        if cable_available:
            yield ("cable", address, None)


def q3_block_setup(
    world: World,
    block_geoid: str,
    engine_config: EngineConfig | None = None,
    primer: SessionPrimer | None = None,
):
    """The Q3 block drivers' shared prologue.

    Returns ``(outcome, engines, caf_addresses, non_caf)`` — a fresh
    :class:`Q3BlockOutcome` skeleton, the ``{"incumbent", "cable"}``
    engine map (cable ``None`` without overlap), and the two address
    lists — or ``None`` when the block is not analyzed (no CAF or no
    non-CAF addresses). Single-sourced so the blocking and asyncio
    drivers cannot drift in block eligibility or engine seeding. The
    engines are primed by ``primer`` or, without one, as a window of one.
    """
    if primer is None:
        primer = session_primer(world, q3_blocks=[block_geoid],
                                engine_config=engine_config)
    return primer.setup(block_geoid)


def run_q3_block(
    world: World,
    block_geoid: str,
    engine_config: EngineConfig | None = None,
    primer: SessionPrimer | None = None,
) -> Q3BlockOutcome | None:
    """Query one Q3 census block against fresh engines.

    Every CAF and non-CAF address is queried against the incumbent;
    non-CAF addresses in cable-overlap blocks are additionally queried
    against the cable ISP, and their mode is *competition* exactly when
    the cable query returned serviceable. Returns ``None`` when the
    block has no CAF or no non-CAF addresses (it is not analyzed).
    """
    setup = q3_block_setup(world, block_geoid, engine_config, primer)
    if setup is None:
        return None
    outcome, engines, caf_addresses, non_caf = setup
    records: list[QueryRecord] = []
    for role, address, mode in q3_query_sequence(
            caf_addresses, non_caf, engines["cable"] is not None):
        record = engines[role].query(address)
        records.append(record)
        settled = settle_q3_mode(mode, record)
        if settled is not None:
            outcome.modes[address.address_id] = settled
    outcome.records = tuple(records)
    return outcome


def collect_q3_dataset(
    world: World,
    engine_config: EngineConfig | None = None,
    states: tuple[str, ...] | None = None,
) -> Q3Collection:
    """Run the Q3 campaign over the world's analyzed blocks."""
    collection = Q3Collection(log=QueryLog())
    analyzed: list[str] = []
    blocks = q3_block_candidates(world, states)
    primer = session_primer(world, q3_blocks=blocks,
                            engine_config=engine_config)
    for block_geoid in blocks:
        outcome = run_q3_block(world, block_geoid, engine_config, primer)
        if outcome is None:
            continue
        analyzed.append(block_geoid)
        collection.incumbents[block_geoid] = outcome.incumbent_isp_id
        collection.log.extend(outcome.records)
        collection.modes.update(outcome.modes)
    collection.analyzed_blocks = tuple(analyzed)
    return collection
