"""Plan churn: how stale does a one-shot audit get?

Appendix 8.1 ("Staleness"): the paper queried each address once, so its
snapshot ages as ISPs upgrade plant, change plans, or (rarely) retire
service. This module simulates that drift so the staleness bias of a
one-shot audit can be measured instead of argued about:

* each simulated year, a fraction of served addresses get a plan
  upgrade (speed roughly doubles, price creeps);
* a smaller fraction of unserved addresses become served (new
  deployment);
* a still-smaller fraction of served addresses lose service
  (copper retirement without replacement).

``churned_world`` returns a *new* world sharing geography and
certifications but with evolved truth and fresh storefronts, so the
same audit can run on both and the drift be compared.

Churn comes in two granularities. The per-address rates model
individual subscribers' plans drifting; ``cell_rate`` additionally
gates each year's churn to a random subset of (ISP, CBG) *cells* —
ISPs upgrade plant by neighborhood, not by household, so real drift is
spatially correlated. Cell-gated churn is what makes longitudinal
re-audits (:mod:`repro.longitudinal`) an O(churn) problem: a wave in
which 10% of cells churned invalidates ~10% of the prior wave's
per-cell results instead of all of them.

The evolution is a proper Markov chain in the year index: for a fixed
seed, ``churned_world(w, years=k)`` is exactly the state reached by
continuing ``churned_world(w, years=k - 1)`` one more year, which is
what lets a panel diff consecutive waves cell by cell. Every draw is
keyed, never positional: each cell gate is its own ``(seed,
"churn-cell", isp, cbg, year)`` roll, and each pair's ``(seed,
"churn", isp, address)`` stream is consumed one year at a time, only in
the years its cell churns. So there are two equal routes to a horizon:
:func:`churned_world` replays every year from the snapshot (the oracle,
and what a worker rebuilding a :class:`WaveScenario` runs), and
:class:`ChurnTrajectory` continues the prior horizon, rolling only the
new years' cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.bqt.websites import build_website
from repro.isp.deployment import GroundTruth, ServiceTruth
from repro.isp.plans import BroadbandPlan
from repro.isp.profiles import profile_for
from repro.stats.distributions import stable_rngs, stable_uniforms
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import World, build_world

__all__ = ["ChurnModel", "ChurnTrajectory", "WaveScenario", "churned_world"]


@dataclass(frozen=True)
class ChurnModel:
    """Annual plan-churn rates.

    ``cell_rate`` is the probability that one (ISP, CBG) cell churns at
    all in a given year; within a churning cell the per-address rates
    apply. The default 1.0 reproduces the original uncorrelated model
    (every cell eligible every year).
    """

    upgrade_rate: float = 0.10
    new_deployment_rate: float = 0.03
    retirement_rate: float = 0.01
    upgrade_speed_multiplier: float = 2.0
    upgrade_price_multiplier: float = 1.08
    cell_rate: float = 1.0

    def __post_init__(self) -> None:
        for name in ("upgrade_rate", "new_deployment_rate",
                     "retirement_rate", "cell_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.upgrade_speed_multiplier < 1.0:
            raise ValueError("upgrades cannot lower speeds")
        if self.upgrade_price_multiplier <= 0:
            raise ValueError("price multiplier must be positive")


def _upgraded_plan(plan: BroadbandPlan, model: ChurnModel) -> BroadbandPlan:
    speed = plan.download_mbps * model.upgrade_speed_multiplier
    return BroadbandPlan(
        name=plan.name,
        download_mbps=speed,
        upload_mbps=plan.upload_mbps * model.upgrade_speed_multiplier,
        monthly_price_usd=min(plan.monthly_price_usd
                              * model.upgrade_price_multiplier, 200.0),
        technology="fiber" if speed >= 1000 else plan.technology,
        is_speed_guaranteed=plan.is_speed_guaranteed,
    )


def _address_cbg(world: World, address_id: str) -> str:
    """The CBG an address churns with (its cell-gating key)."""
    address = world.caf_addresses.get(address_id)
    if address is None and address_id in world.zillow:
        address = world.zillow.lookup(address_id)
    return address.block_group_geoid if address is not None else ""


def _cell_churn_years(
    seed: int, model: ChurnModel, cells, years: range
) -> dict[tuple[str, str], list[int]]:
    """(isp, cbg) → the years of ``years`` that cell churned.

    One stable draw per (isp, cbg, year), shared by every address in
    the cell — the spatial correlation that keeps unchanged cells
    byte-stable across waves.
    """
    churned: dict[tuple[str, str], list[int]] = {cell: [] for cell in cells}
    keys = [(cell, year) for cell in churned for year in years]
    rolls = stable_uniforms((seed, "churn-cell", *cell, year)
                            for cell, year in keys)
    for (cell, year), roll in zip(keys, rolls):
        if roll < model.cell_rate:
            churned[cell].append(year)
    return churned


def _churned_truth(isp_id: str, state: ServiceTruth,
                   rng: np.random.Generator, years: int,
                   model: ChurnModel) -> ServiceTruth:
    """One pair's truth after ``years`` churning years, drawn from the
    pair's stream ``rng``. A year without a transition keeps ``state``
    itself."""
    for _year in range(years):
        if state.serves:
            roll = rng.random()
            if roll < model.retirement_rate:
                state = ServiceTruth(serves=False)
            elif roll < model.retirement_rate + model.upgrade_rate \
                    and state.plans:
                plans = tuple(_upgraded_plan(p, model) for p in state.plans)
                best = max(plans, key=lambda p: p.download_mbps)
                state = ServiceTruth(
                    serves=True, plans=plans,
                    existing_subscriber=state.existing_subscriber,
                    tier_label=best.tier_label)
        else:
            if rng.random() < model.new_deployment_rate:
                profile = profile_for(isp_id)
                label = profile.sample_tier_label(rng)
                plan = profile.make_plan(label, rng)
                if plan is None:
                    state = ServiceTruth(serves=True, plans=(),
                                         existing_subscriber=True,
                                         tier_label=label)
                else:
                    state = ServiceTruth(serves=True, plans=(plan,),
                                         tier_label=plan.tier_label)
    return state


def _evolve_truth(
    world: World, model: ChurnModel, years: int, seed: int
) -> GroundTruth:
    every_year = list(range(years))
    pairs = world.ground_truth.pairs()
    # Each address's CBG is resolved once, up front, into ``cbg_of``
    # (one shared string per CBG); the cell gating and both schedule
    # passes read it there.
    cbg_of: dict[str, str] = {}
    cell_years: dict[tuple[str, str], list[int]] = {}
    if model.cell_rate < 1.0:
        shared: dict[str, str] = {}
        cells: dict[tuple[str, str], None] = {}
        for isp_id, address_id in pairs:
            if address_id not in cbg_of:
                cbg = _address_cbg(world, address_id)
                cbg_of[address_id] = shared.setdefault(cbg, cbg)
            cells[isp_id, cbg_of[address_id]] = None
        cell_years = _cell_churn_years(seed, model, cells, range(years))

    def schedule():
        for isp_id, address_id in pairs:
            yield isp_id, address_id, (
                cell_years[isp_id, cbg_of[address_id]] if cell_years
                else every_year)

    # An address that churns in no year never draws, so only the others
    # open their per-address stream, batched and in schedule order.
    streams = stable_rngs((seed, "churn", isp_id, address_id)
                          for isp_id, address_id, churn_years in schedule()
                          if churn_years)
    evolved = GroundTruth()
    for isp_id, address_id, churn_years in schedule():
        state = world.ground_truth.truth_for(isp_id, address_id)
        if churn_years:
            state = _churned_truth(isp_id, state, next(streams),
                                   len(churn_years), model)
        evolved.set_truth(isp_id, address_id, state)
    return evolved


def _with_truth(world: World, truth: GroundTruth) -> World:
    """``world`` with ``truth`` and storefronts rebuilt over it."""
    websites = {
        isp_id: build_website(isp_id, truth, seed=world.config.seed)
        for isp_id in world.websites
    }
    return replace(world, ground_truth=truth, websites=websites)


def churned_world(
    world: World, years: int = 1, model: ChurnModel | None = None
) -> World:
    """Return a copy of ``world`` with ``years`` of plan churn applied.

    Geography, certifications, funding and the Q3 block classification
    are shared (they don't churn on these timescales); ground truth and
    the website simulators are replaced. Every year is replayed from
    the snapshot; :class:`ChurnTrajectory` reaches the same truth by
    continuing a prior horizon.
    """
    if years < 0:
        raise ValueError("years must be non-negative")
    model = model or ChurnModel()
    truth = _evolve_truth(world, model, years, world.config.seed)
    return _with_truth(world, truth)


class ChurnTrajectory:
    """One world's churn, continued horizon by horizon.

    ``advance(k)`` returns a world whose truth equals
    ``churned_world(world, k, model)``'s pair for pair, reached from the
    last horizon advanced to. Between calls it carries the evolved
    truth map (copied, so every pair the new years leave alone keeps
    its truth *object* — the identity the digest carry-forward keys
    on), the live Generator of every churn stream opened so far, and,
    under cell gating, each (ISP, CBG) cell's pairs, grouped on first
    use. Only the new years' cells are rolled (every year in between,
    when a horizon skips some) and only pairs in cells that churn in
    one of them draw, so a step after the first costs O(churn).
    ``last_step`` says what the latest ``advance`` rolled: the
    ``years``, the churning ``cells`` (``None`` when ungated) and the
    ``pairs`` evolved.
    """

    def __init__(self, world: World, model: ChurnModel | None = None):
        self._snapshot = world
        self._model = model or ChurnModel()
        self._years = 0
        self._world = world
        self._streams: dict[tuple[str, str], np.random.Generator] = {}
        self._cells: dict[tuple[str, str], list[tuple[str, str]]] | None \
            = None
        self.last_step: dict = {}

    def _cell_pairs(self) -> dict[tuple[str, str], list[tuple[str, str]]]:
        """(isp, cbg) → its pairs in truth-map order, with one CBG
        lookup per address."""
        if self._cells is None:
            cbg_of: dict[str, str] = {}
            self._cells = {}
            for isp_id, address_id in self._snapshot.ground_truth.pairs():
                if address_id not in cbg_of:
                    cbg_of[address_id] = _address_cbg(self._snapshot,
                                                      address_id)
                self._cells.setdefault((isp_id, cbg_of[address_id]), []) \
                    .append((isp_id, address_id))
        return self._cells

    def advance(self, years: int) -> World:
        """The world ``years`` after the snapshot (never earlier than
        the horizon reached so far)."""
        if years < self._years:
            raise ValueError(f"churn cannot rewind from year {self._years} "
                             f"to {years}")
        if years == self._years:
            return self._world
        new_years = range(self._years, years)
        model = self._model
        if model.cell_rate < 1.0:
            cells = self._cell_pairs()
            churned = [(cell, len(churn_years)) for cell, churn_years in
                       _cell_churn_years(self._snapshot.config.seed, model,
                                         cells, new_years).items()
                       if churn_years]
            schedule = [(pair, count) for cell, count in churned
                        for pair in cells[cell]]
        else:
            churned = None
            schedule = [(pair, len(new_years))
                        for pair in self._world.ground_truth.pairs()]
        streams = self._streams
        opened = [pair for pair, _count in schedule if pair not in streams]
        seed = self._snapshot.config.seed
        streams.update(zip(opened, stable_rngs(
            (seed, "churn", *pair) for pair in opened)))
        truth = self._world.ground_truth.copy()
        for (isp_id, address_id), count in schedule:
            truth.set_truth(isp_id, address_id, _churned_truth(
                isp_id, truth.truth_for(isp_id, address_id),
                streams[isp_id, address_id], count, model))
        self.last_step = {"years": list(new_years),
                          "cells": None if churned is None else len(churned),
                          "pairs": len(schedule)}
        self._years = years
        self._world = _with_truth(self._snapshot, truth)
        return self._world


@dataclass(frozen=True)
class WaveScenario:
    """One panel wave's world, as a rebuildable recipe.

    Runtime workers never receive the multi-megabyte world object over
    the pipe. Forked process-pool workers inherit the coordinator's
    world; any worker that starts a fresh interpreter (the distributed
    backend's ``repro worker``, or a pool under a non-fork start
    method) rebuilds it from the scenario it is handed. An evolved wave
    world keeps its base :class:`~repro.synth.scenario.ScenarioConfig`,
    which alone cannot reproduce it — so this wrapper carries the full
    recipe: base scenario, churn model, and the horizon in years. It is
    also the key the inherited world is cached under. :meth:`realize`
    replays it deterministically; the executor's per-process world
    cache calls it exactly like ``build_world``.
    """

    base: ScenarioConfig
    years: int = 0
    model: ChurnModel = ChurnModel()

    def __post_init__(self) -> None:
        if self.years < 0:
            raise ValueError("years must be non-negative")

    # Passthroughs so fingerprinting and shard planning code that reads
    # scenario.{seed,states,q3_states} accepts either scenario kind.
    @property
    def seed(self) -> int:
        return self.base.seed

    @property
    def states(self) -> tuple[str, ...]:
        return self.base.states

    @property
    def q3_states(self) -> tuple[str, ...]:
        return self.base.q3_states

    def realize(self) -> World:
        """Build the base world and evolve it to this wave's horizon."""
        world = build_world(self.base)
        if self.years == 0:
            return world
        return churned_world(world, years=self.years, model=self.model)
