"""Merging shard results back into campaign results.

The sequential campaign visits cells in one canonical order (ISPs in
the order given, states in scenario order, CBGs sorted; Q3 candidate
blocks sorted). Shards complete in arbitrary order, so the merge walks
that same canonical order and pulls each cell's record stream from
whichever shard owns it — reproducing the sequential log byte for
byte. Sample plans and CBG totals are not shipped from workers; they
are recomputed here, which is cheap and deterministic in the world
seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bqt.logbook import QueryLog
from repro.core.collection import (
    CollectionResult,
    Q3Collection,
    q3_block_candidates,
)
from repro.core.sampling import SamplingPolicy, plan_cbg_sample
from repro.runtime.shards import (
    DEFAULT_ISPS,
    Q12Cell,
    ShardSpec,
    plan_shards,
    q12_cells_with_addresses,
)
from repro.synth.world import World

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.executor import ShardResult

__all__ = ["campaign_shard", "merge_shard_results"]


def merge_shard_results(
    world: World,
    specs: list[ShardSpec],
    completed: dict[int, "ShardResult"],
    policy: SamplingPolicy | None = None,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
) -> tuple[CollectionResult, Q3Collection]:
    """Reassemble shard results in canonical campaign order."""
    missing = sorted(spec.index for spec in specs
                     if spec.index not in completed)
    if missing:
        raise ValueError(f"cannot merge: shards {missing} not completed")

    policy = policy or SamplingPolicy()
    owner_q12: dict[Q12Cell, int] = {}
    owner_q3: dict[str, int] = {}
    for spec in specs:
        for cell in spec.q12_cells:
            owner_q12[cell] = spec.index
        for block in spec.q3_blocks:
            owner_q3[block] = spec.index

    result = CollectionResult(log=QueryLog())
    for cell, addresses in q12_cells_with_addresses(world, isps, states):
        shard = completed[owner_q12[cell]]
        records = shard.q12_records[cell]
        plan = plan_cbg_sample(cell.cbg, addresses, policy,
                               seed=world.config.seed)
        result.plans[(cell.isp_id, cell.cbg)] = plan
        result.cbg_totals[(cell.isp_id, cell.cbg)] = plan.population_size
        result.log.extend(records)

    q3 = Q3Collection(log=QueryLog())
    analyzed: list[str] = []
    for block_geoid in q3_block_candidates(world, states=q3_states):
        outcome = completed[owner_q3[block_geoid]].q3_outcomes[block_geoid]
        if outcome is None:
            continue
        analyzed.append(block_geoid)
        q3.incumbents[block_geoid] = outcome.incumbent_isp_id
        q3.log.extend(outcome.records)
        q3.modes.update(outcome.modes)
    q3.analyzed_blocks = tuple(analyzed)
    return result, q3


def campaign_shard(world: World, shards,
                   isps: tuple[str, ...] = DEFAULT_ISPS) -> "ShardResult":
    """A campaign's completed ``shards`` as shard 0 of 1, cells in
    ``plan_shards(world, 1)`` order: the same whatever partition ran."""
    from repro.runtime.executor import ShardResult

    (spec,) = plan_shards(world, 1, isps=isps)
    q12 = {k: v for shard in shards for k, v in shard.q12_records.items()}
    q3 = {k: v for shard in shards for k, v in shard.q3_outcomes.items()}
    return ShardResult(
        index=0, count=1,
        q12_records={cell: q12[cell] for cell in spec.q12_cells},
        q3_outcomes={block: q3[block] for block in spec.q3_blocks})
