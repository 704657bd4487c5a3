"""Deterministic partitioning of a campaign into shards.

A campaign decomposes into independent *cells* (see
:mod:`repro.core.collection`): one (ISP, state, CBG) sample for Q1/Q2
and one census block for Q3. This module enumerates those cells in the
canonical order the sequential campaign visits them and deals them
round-robin onto ``shard_count`` shards.

Round-robin over the canonical order has two properties the runtime
relies on:

* **Stability** — for any shard count, the union of all shards is
  exactly the canonical cell list, each cell appearing once, so the
  merged result is independent of how many shards ran it.
* **Balance** — adjacent cells (which tend to be similar-sized: same
  state, neighbouring CBGs) land on different shards, so shard
  workloads stay within a cell of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.addresses.models import StreetAddress
from repro.core.pipeline import CAF_STUDY_ISP_IDS as DEFAULT_ISPS
from repro.synth.world import World

__all__ = ["Q12Cell", "ShardSpec", "deal_shards", "enumerate_q12_cells",
           "plan_shards", "q12_cells_with_addresses"]


@dataclass(frozen=True)
class Q12Cell:
    """Identity of one Q1/Q2 campaign cell."""

    isp_id: str
    state: str
    cbg: str


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the campaign.

    ``index``/``count`` identify the shard within its partition;
    ``q12_cells`` and ``q3_blocks`` list the cells it owns, in
    canonical (sequential-campaign) order.
    """

    index: int
    count: int
    q12_cells: tuple[Q12Cell, ...]
    q3_blocks: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("shard count must be positive")
        if not 0 <= self.index < self.count:
            raise ValueError("shard index out of range")

    @property
    def num_units(self) -> int:
        """Total work units (Q1/Q2 cells + Q3 blocks) in this shard."""
        return len(self.q12_cells) + len(self.q3_blocks)


def enumerate_q12_cells(
    world: World,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
) -> list[Q12Cell]:
    """All Q1/Q2 cells in the order the sequential campaign visits them."""
    return [cell for cell, _ in q12_cells_with_addresses(world, isps, states)]


def q12_cells_with_addresses(
    world: World,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
) -> Iterator[tuple[Q12Cell, list[StreetAddress]]]:
    """Each Q1/Q2 cell, in canonical order, with its CAF addresses —
    one grouping pass per (ISP, state) for callers that need both."""
    for isp_id in isps:
        for state in states or world.config.states:
            by_cbg = world.caf_addresses_by_cbg(isp_id, state)
            for cbg in sorted(by_cbg):
                yield (Q12Cell(isp_id=isp_id, state=state, cbg=cbg),
                       by_cbg[cbg])


def deal_shards(
    q12_cells: list[Q12Cell],
    q3_blocks: list[str],
    shard_count: int,
) -> list[ShardSpec]:
    """Deal cells round-robin onto ``shard_count`` shards.

    The one partitioning rule every planner shares — the full campaign
    (:func:`plan_shards`) and the longitudinal delta collector, whose
    checkpoint fingerprints bake in the shard layout.
    """
    if shard_count < 1:
        raise ValueError("shard count must be positive")
    q12_by_shard: list[list[Q12Cell]] = [[] for _ in range(shard_count)]
    q3_by_shard: list[list[str]] = [[] for _ in range(shard_count)]
    for position, cell in enumerate(q12_cells):
        q12_by_shard[position % shard_count].append(cell)
    for position, block in enumerate(q3_blocks):
        q3_by_shard[position % shard_count].append(block)
    return [
        ShardSpec(
            index=index,
            count=shard_count,
            q12_cells=tuple(q12_by_shard[index]),
            q3_blocks=tuple(q3_by_shard[index]),
        )
        for index in range(shard_count)
    ]


def plan_shards(
    world: World,
    shard_count: int,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
) -> list[ShardSpec]:
    """Partition the campaign into ``shard_count`` round-robin shards."""
    # Imported here: collection imports nothing from runtime, but keep
    # the module-level dependency surface of shards minimal.
    from repro.core.collection import q3_block_candidates

    if shard_count < 1:
        raise ValueError("shard count must be positive")
    return deal_shards(
        enumerate_q12_cells(world, isps=isps, states=states),
        q3_block_candidates(world, states=q3_states),
        shard_count,
    )
