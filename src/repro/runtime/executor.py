"""Sharded campaign execution.

:func:`execute_campaign` turns the audit's two collections into a
sharded job: plan the shards, run each shard's cells where the
backend places them (in process, on a
``concurrent.futures.ProcessPoolExecutor``, or on a leased fleet of
worker processes — see :mod:`repro.runtime.distributed`), optionally
interleaved on a per-shard asyncio event loop, checkpoint completed
shards, and merge the shard logs back into campaign results that are
bit-identical to the sequential loops in :mod:`repro.core.collection`.

:func:`dispatch_shards` is the one restore → run → record loop of
:func:`execute_campaign`, the longitudinal delta waves and the audit
service. It keeps completed shards in a *shard log*: any object with
``load_completed() -> dict[int, ShardResult]`` and
``save_shard(result)`` — a :class:`~repro.runtime.checkpoint
.CheckpointStore`, or the service journal behind a small adapter.

Politeness is enforced the way the paper's fleet enforced it, whatever
the backend:

* without ``max_inflight`` a shard drives at most one browser session
  per ISP at a time (its cells run sequentially), so concurrent
  sessions per storefront are bounded by the number of in-flight
  shards — which :class:`RuntimeConfig` clamps to
  ``MAX_POLITE_WORKERS_PER_ISP``;
* with ``max_inflight`` set, on any backend, a shard interleaves up to
  that many sessions against different storefronts on one event loop,
  with a :class:`~repro.bqt.aio.PolitenessGate` token bucket holding
  each storefront to :attr:`RuntimeConfig.per_shard_isp_cap` — the
  global cap divided across however many shards run concurrently, so
  the fleet-wide per-ISP concurrency never exceeds the cap *exactly as
  in the sequential case*.

Worker processes never receive the (multi-megabyte) world over the
pipe. The process backend seeds the per-process world cache with the
coordinator's world before the pool forks, so forked workers run their
shards on that same world object and a campaign builds its world once.
A worker that did not inherit it (a non-fork start method, or a
distributed ``repro worker`` in a fresh interpreter) rebuilds it from
the scenario — a :class:`~repro.synth.scenario.ScenarioConfig` or a
:class:`~repro.synth.churn.WaveScenario`, both deterministic in the
seed — at most once per worker.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable

from pathlib import Path

from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.bqt.engine import EngineConfig
from repro.bqt.logbook import QueryRecord
from repro.core.collection import (
    CollectionResult,
    Q3BlockOutcome,
    Q3Collection,
    q12_cell_addresses,
    run_q12_cell,
    run_q3_block,
    session_primer,
)
from repro.core.sampling import SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import (configure_tracing, publish_trace, span,
                             trace_dir_from_environment, tracing_enabled)
from repro.runtime.shards import DEFAULT_ISPS, Q12Cell, ShardSpec, plan_shards
from repro.synth.world import World, build_world

__all__ = ["RuntimeConfig", "ShardResult", "dispatch_shards",
           "execute_campaign", "run_shard"]

BACKENDS = ("auto", "serial", "process", "distributed")

# on_progress callback: (completed shards, total shards, newest result,
# restored) — ``restored`` is True when the shard came back from a
# checkpoint instead of being executed, so rate/ETA estimators can
# exclude it.
ProgressCallback = Callable[[int, int, "ShardResult", bool], None]


@dataclass(frozen=True)
class RuntimeConfig:
    """How to run a campaign: sharding, parallelism, durability.

    ``backend`` says only where shards run: ``"serial"`` (in this
    process, one at a time — the deterministic default tests rely
    on), ``"process"`` (a process pool), ``"distributed"`` (a
    coordinator leases shards to worker processes over sockets — see
    :mod:`repro.runtime.distributed`; ``workers`` sets the fleet
    size), or ``"auto"`` (process pool exactly when ``workers > 1``).

    ``max_inflight`` says only whether and how far a shard's cells
    interleave, on any backend: ``None`` (the default) runs them
    sequentially; an integer runs them on an asyncio event loop
    holding at most that many sessions across all storefronts.

    ``lease_timeout`` (distributed only) is how long the coordinator
    waits for a worker's result frame before presuming the worker
    dead and re-leasing its shard. It must comfortably exceed the
    slowest single shard's compute time, or healthy workers will be
    abandoned mid-shard and the campaign can never finish; raise it
    for big scales. ``None`` uses the distributed module's default.

    ``worker_address`` (distributed only) is where the coordinator
    listens for workers: ``"host:port"`` binds a TCP socket (port 0
    picks a free port), anything else is a Unix socket path. ``None``,
    the default, uses a Unix socket in a private temp directory —
    right for spawned local fleets; give an address when workers join
    from other hosts or when Unix sockets are unavailable.
    """

    shards: int = 1
    workers: int = 1
    backend: str = "auto"
    max_inflight: int | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    cache_dir: str | None = None
    lease_timeout: float | None = None
    worker_address: str | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {', '.join(BACKENDS)}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if self.lease_timeout is not None:
            if self.lease_timeout <= 0:
                raise ValueError("lease_timeout must be positive")
            if self.backend != "distributed":
                # A lease timeout must never be silently ignored.
                raise ValueError(
                    f"lease_timeout requires the distributed backend, "
                    f"not {self.backend!r}")
        if self.worker_address is not None:
            if self.backend != "distributed":
                # A listen address must never be silently ignored.
                raise ValueError(
                    f"worker_address requires the distributed backend, "
                    f"not {self.backend!r}")
            if not self.worker_address:
                raise ValueError("worker_address must be non-empty")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")

    @property
    def effective_workers(self) -> int:
        """Concurrent shard processes, clamped by politeness.

        Each in-flight shard holds at most
        :attr:`per_shard_isp_cap` sessions per storefront, so the
        politeness cap on concurrent sessions per ISP bounds the
        number of shards allowed to run at once.
        """
        return min(self.workers, self.shards, MAX_POLITE_WORKERS_PER_ISP)

    @property
    def effective_backend(self) -> str:
        """The backend actually used: ``"auto"`` resolves to process
        iff parallel, every other name to itself."""
        if self.backend == "auto":
            return "process" if self.effective_workers > 1 else "serial"
        return self.backend

    @property
    def concurrent_shards(self) -> int:
        """Shards in flight at once under the effective backend."""
        if self.effective_backend == "serial":
            return 1
        return self.effective_workers

    def per_shard_isp_cap_for(self, pending: int) -> int:
        """Each shard's per-ISP session budget, ``pending`` shards out.

        The global politeness cap is floor-divided across the shards
        that can actually run concurrently — no more than ``pending``
        remain, so a resumed tail is not throttled to a budget sized
        for a full fleet. The sum over in-flight shards is a hard
        upper bound at ``MAX_POLITE_WORKERS_PER_ISP``; it can never be
        exceeded, though non-divisor counts strand part of the budget
        (8 // 3 = 2 leaves two sessions unused). Shards without
        ``max_inflight`` drive one session at a time by construction.
        """
        if self.max_inflight is None:
            return 1
        inflight = min(self.concurrent_shards, max(1, pending))
        return max(1, MAX_POLITE_WORKERS_PER_ISP // inflight)

    @property
    def per_shard_isp_cap(self) -> int:
        """Each shard's per-ISP budget with the full partition pending."""
        return self.per_shard_isp_cap_for(self.shards)


@dataclass
class ShardResult:
    """One shard's completed work, keyed for canonical-order merging."""

    index: int
    count: int
    # Q1/Q2 cell → the cell's record stream (replacements inline).
    q12_records: dict[Q12Cell, tuple[QueryRecord, ...]] = field(
        default_factory=dict)
    # Q3 candidate block → its outcome (None when not analyzed).
    q3_outcomes: dict[str, Q3BlockOutcome | None] = field(default_factory=dict)
    # ISP → max concurrent in-flight sessions this shard held against
    # it (politeness evidence; diagnostic, not checkpointed).
    politeness: dict[str, int] = field(default_factory=dict)


# Per-process world cache for pool workers: building the world is the
# expensive part of a shard, and every shard of one campaign shares it.
# dispatch_shards seeds it with the coordinator's world for the
# pool's lifetime, so forked workers inherit it instead of rebuilding.
# Keys are ScenarioConfig or any hashable recipe with a .realize()
# (repro.synth.churn.WaveScenario — evolved panel-wave worlds).
_WORLD_CACHE: dict = {}


def _world_for(scenario) -> World:
    if scenario not in _WORLD_CACHE:
        _WORLD_CACHE.clear()  # one campaign's world at a time per worker
        realize = getattr(scenario, "realize", None)
        _WORLD_CACHE[scenario] = (realize() if realize is not None
                                  else build_world(scenario))
    return _WORLD_CACHE[scenario]


def run_shard(
    scenario,
    spec: ShardSpec,
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    world: World | None = None,
    max_inflight: int | None = None,
    per_isp_cap: int = MAX_POLITE_WORKERS_PER_ISP,
) -> ShardResult:
    """Run one shard's cells to completion.

    Top-level (picklable) so it can be submitted to a process pool;
    an in-process dispatch calls it with the already-built ``world``
    to skip the rebuild. With ``max_inflight`` set the shard's cells
    interleave on a fresh event loop (bounded by ``max_inflight``
    total and ``per_isp_cap`` per storefront) — producing the same
    records, reassembled in canonical cell order.
    """
    world = world if world is not None else _world_for(scenario)
    with span("shard.run", index=spec.index,
              cells=len(spec.q12_cells) + len(spec.q3_blocks)):
        if max_inflight is not None:
            from repro.bqt.aio import run_cells_async

            q12_records, q3_outcomes, watermarks = asyncio.run(
                run_cells_async(
                    world, spec.q12_cells, spec.q3_blocks,
                    policy=policy, engine_config=engine_config,
                    max_replacements=max_replacements,
                    max_inflight=max_inflight, per_isp_cap=per_isp_cap,
                ))
            result = ShardResult(index=spec.index, count=spec.count,
                                 politeness=watermarks)
            # Completion order is nondeterministic; store canonically.
            for cell in spec.q12_cells:
                result.q12_records[cell] = q12_records[cell]
            for block_geoid in spec.q3_blocks:
                result.q3_outcomes[block_geoid] = q3_outcomes[block_geoid]
            return result
        result = ShardResult(index=spec.index, count=spec.count)
        q12_cells = q12_cell_addresses(world, spec.q12_cells)
        primer = session_primer(world, q12_cells, spec.q3_blocks,
                                policy=policy, engine_config=engine_config)
        for cell, (isp_id, cbg, addresses) in zip(spec.q12_cells, q12_cells):
            _plan, records = run_q12_cell(
                world, isp_id, cbg, addresses,
                policy=policy, engine_config=engine_config,
                max_replacements=max_replacements, primer=primer,
            )
            result.q12_records[cell] = tuple(records)
            result.politeness[isp_id] = 1
        for block_geoid in spec.q3_blocks:
            outcome = run_q3_block(world, block_geoid, engine_config, primer)
            result.q3_outcomes[block_geoid] = outcome
            if outcome is not None:
                for record in outcome.records:
                    result.politeness[record.isp_id] = 1
        return result


def dispatch_shards(
    world: World,
    specs: list[ShardSpec],
    config: RuntimeConfig,
    log=None,
    on_progress: ProgressCallback | None = None,
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    scenario=None,
) -> dict[int, ShardResult]:
    """Run a campaign's shards, restoring from and recording to ``log``.

    The shard loop (see the module docstring): shards ``log`` holds are
    restored, the rest run on the configured backend and are saved to
    ``log`` as each completes (a ``save_shard`` that raises fails the
    run). Returns every shard's result by index. ``on_progress`` fires
    once per shard, restored ones first in index order.

    ``scenario`` is the world recipe shipped to worker processes and
    the key forked pool workers find ``world`` under; it defaults to
    ``world.config`` and must be overridden (with a
    :class:`~repro.synth.churn.WaveScenario`) when ``world`` is an
    evolved wave world that its config alone cannot rebuild, since
    workers that do not inherit ``world`` rebuild it from the recipe.
    """
    completed: dict[int, ShardResult] = {}
    if log is not None:
        with span("campaign.restore"):
            completed = log.load_completed()
    _METRICS.counter("shards_restored_total").inc(len(completed))
    total = len(specs)
    if on_progress is not None:
        for position, index in enumerate(sorted(completed), start=1):
            on_progress(position, total, completed[index], True)
    pending = [spec for spec in specs if spec.index not in completed]
    _METRICS.counter("shards_dispatched_total").inc(len(pending))
    if not pending:
        return completed
    completions = _METRICS.counter("shards_completed_total")

    def on_complete(result: ShardResult) -> None:
        if log is not None:
            log.save_shard(result)
        completed[result.index] = result
        completions.inc()
        if on_progress is not None:
            on_progress(len(completed), total, result, False)

    scenario = scenario if scenario is not None else world.config
    # Budget for the shards actually left to run: a resumed tail gets
    # the politeness headroom its smaller in-flight count allows.
    per_isp_cap = config.per_shard_isp_cap_for(len(pending))
    if config.effective_backend == "distributed":
        from repro.runtime.distributed import run_shards_distributed

        run_shards_distributed(world, pending, policy, engine_config,
                               max_replacements, config, per_isp_cap,
                               on_complete,
                               lease_timeout=config.lease_timeout,
                               scenario=scenario)
        return completed
    # run_shard is looked up now, not at import, so a patched module
    # attribute reaches in-process shards and forked workers alike.
    job = functools.partial(
        run_shard, scenario, policy=policy, engine_config=engine_config,
        max_replacements=max_replacements, max_inflight=config.max_inflight,
        per_isp_cap=per_isp_cap)
    if config.concurrent_shards == 1 or len(pending) == 1:
        for spec in pending:
            on_complete(job(spec, world=world))
        return completed
    # Workers fork while the cache holds the coordinator's world, so
    # their _world_for hits; the finally keeps the coordinator from
    # holding the world past the campaign.
    _WORLD_CACHE.clear()
    _WORLD_CACHE[scenario] = world
    try:
        with ProcessPoolExecutor(
                max_workers=config.effective_workers) as pool:
            futures = [pool.submit(job, spec) for spec in pending]
            for future in as_completed(futures):
                on_complete(future.result())
    finally:
        _WORLD_CACHE.clear()
    return completed


def execute_campaign(
    world: World,
    config: RuntimeConfig,
    policy: SamplingPolicy | None = None,
    engine_config: EngineConfig | None = None,
    max_replacements: int = 2,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
    on_progress: ProgressCallback | None = None,
) -> tuple[CollectionResult, Q3Collection]:
    """Run the full campaign under a runtime configuration.

    Plans the shard partition, runs it through :func:`dispatch_shards`
    with the campaign's checkpoint store (if any) as its shard log, and
    merges the shard results in canonical order. For a fixed world seed
    the merged results are bit-identical to the sequential
    :class:`~repro.core.collection.CollectionCampaign` /
    :func:`~repro.core.collection.collect_q3_dataset` path, for any
    shard count and every backend. ``on_progress`` (the CLI's per-shard
    progress and ETA lines) is passed to :func:`dispatch_shards`.
    """
    from repro.runtime.checkpoint import campaign_fingerprint, checkpoint_log
    from repro.runtime.merge import merge_shard_results

    fingerprint = campaign_fingerprint(
        world.config, policy, isps, config.shards,
        states=states, q3_states=q3_states,
        max_replacements=max_replacements)
    if tracing_enabled():
        configure_tracing(fingerprint, site="coordinator")

    with span("campaign", backend=config.effective_backend,
              max_inflight=config.max_inflight, shards=config.shards):
        with span("campaign.plan"):
            specs = plan_shards(world, config.shards, isps=isps,
                                states=states, q3_states=q3_states)
        with span("campaign.dispatch", shards=len(specs)):
            completed = dispatch_shards(
                world, specs, config, checkpoint_log(config, fingerprint),
                on_progress, policy=policy, engine_config=engine_config,
                max_replacements=max_replacements)

        with span("campaign.merge"):
            merged = merge_shard_results(
                world, specs, completed, policy=policy,
                isps=isps, states=states, q3_states=q3_states,
            )

    if tracing_enabled():
        trace_root = trace_dir_from_environment()
        if trace_root is None and config.checkpoint_dir is not None:
            trace_root = Path(config.checkpoint_dir) / "traces"
        publish_trace(trace_root, fingerprint)
    return merged
