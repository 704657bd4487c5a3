"""Differential-equivalence harness for the campaign backends.

"Bit-identical under every backend" is a load-bearing invariant: the
analyses trust that sharding, process pools, asyncio interleaving,
and socket-leased distributed workers are pure execution details that
cannot perturb a single record. This
harness makes the invariant checkable as a black box: run the *same*
campaign under several :class:`~repro.runtime.executor.RuntimeConfig`
backends, serialize each run's merged logbooks to canonical bytes, and
assert

* **byte equality** — every backend's merged logbook is byte-for-byte
  the reference (serial) logbook;
* **cell-count conservation** — each run visits exactly the canonical
  cell list, and the per-shard record counts sum to the merged count
  (nothing dropped, nothing duplicated in the merge);
* **politeness** — each shard's per-ISP concurrency high-water mark
  stays within its budget, and the fleet-wide product never exceeds
  ``MAX_POLITE_WORKERS_PER_ISP``.

The longitudinal analogue (:func:`assert_panel_replay_equivalent`)
extends the matrix in the time dimension: a panel wave's merged
logbook — replayed unchanged cells plus freshly queried changed cells
— must be byte-identical to a from-scratch re-collection of the same
evolved world, while actually replaying (the incremental path must
not degenerate into a quiet full re-query).
:func:`assert_panel_backends_equivalent` crosses the two matrices —
the same panel's wave logbooks byte-identical under every backend —
and :func:`assert_incremental_analysis_equivalent` covers the third
layer: each wave's digest-keyed row-fold *analysis* byte-equal to a
full recompute from the merged logbook, while actually reusing rows.

The serialization reuses the checkpoint codec, which round-trips
floats by shortest ``repr`` — so byte equality here really is record
equality, elapsed-seconds included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.core.collection import CollectionCampaign, collect_q3_dataset
from repro.longitudinal import PanelCampaign, WaveOutcome
from repro.runtime import RuntimeConfig, execute_campaign, enumerate_q12_cells
from repro.runtime.checkpoint import _record_to_json, _shard_to_json
from repro.runtime.shards import DEFAULT_ISPS
from repro.synth.churn import ChurnModel, churned_world
from repro.synth.world import World

__all__ = [
    "BackendRun",
    "backend_matrix",
    "canonical_analysis_bytes",
    "canonical_logbook_bytes",
    "canonical_shard_state_bytes",
    "mode_label",
    "run_backend",
    "assert_backends_equivalent",
    "assert_incremental_analysis_equivalent",
    "assert_journal_replay_equivalent",
    "assert_panel_backends_equivalent",
    "assert_panel_replay_equivalent",
    "scratch_wave_bytes",
]


def backend_matrix(
    shards: int = 3,
    workers: int = 2,
    max_inflight: int = 16,
) -> tuple[RuntimeConfig, ...]:
    """One config per execution mode, same shard partition throughout.

    Five modes: the three placements, with serial and process also run
    on an event loop. ``max_inflight`` deliberately defaults *above*
    the politeness cap so the event-loop runs only stay polite if the
    gate actually works.
    The distributed entry runs real worker subprocesses leased over
    local sockets — the reference transport, end to end.
    """
    return (
        RuntimeConfig(shards=shards, backend="serial"),
        RuntimeConfig(shards=shards, workers=workers, backend="process"),
        RuntimeConfig(shards=shards, backend="serial",
                      max_inflight=max_inflight),
        RuntimeConfig(shards=shards, workers=workers,
                      backend="process", max_inflight=max_inflight),
        RuntimeConfig(shards=shards, workers=workers,
                      backend="distributed"),
    )


def mode_label(config: RuntimeConfig) -> str:
    """A mode's name in failure messages: the resolved backend, plus
    ``+async`` when its shards run on an event loop."""
    backend = config.effective_backend
    return backend if config.max_inflight is None else f"{backend}+async"


def canonical_logbook_bytes(collection, q3) -> bytes:
    """Canonical byte serialization of one campaign's merged output.

    Covers both logbooks in merge order, the Q3 mode map, the analyzed
    blocks, and the CBG weights — everything downstream analyses read.
    """
    payload = {
        "q12": [_record_to_json(r) for r in collection.log],
        "cbg_totals": {f"{isp}:{cbg}": total
                       for (isp, cbg), total in collection.cbg_totals.items()},
        "q3": [_record_to_json(r) for r in q3.log],
        "q3_modes": q3.modes,
        "q3_analyzed_blocks": list(q3.analyzed_blocks),
        "q3_incumbents": q3.incumbents,
    }
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


@dataclass
class BackendRun:
    """One backend's observable outcome, reduced for comparison."""

    config: RuntimeConfig
    logbook: bytes
    q12_cells: int
    q12_records: int
    q3_records: int
    shard_record_total: int
    # ISP → max over shards of the shard's concurrency high-water mark.
    politeness: dict[str, int]

    @property
    def label(self) -> str:
        return mode_label(self.config)


def run_backend(world: World, config: RuntimeConfig, **subset) -> BackendRun:
    """Run the campaign under one backend and capture the evidence."""
    shard_results = []
    collection, q3 = execute_campaign(
        world, config,
        on_progress=lambda done, total, result, restored:
            shard_results.append(result),
        **subset)
    politeness: dict[str, int] = {}
    shard_record_total = 0
    for result in shard_results:
        for isp, peak in result.politeness.items():
            politeness[isp] = max(politeness.get(isp, 0), peak)
        shard_record_total += sum(
            len(records) for records in result.q12_records.values())
        shard_record_total += sum(
            len(outcome.records) for outcome in result.q3_outcomes.values()
            if outcome is not None)
    return BackendRun(
        config=config,
        logbook=canonical_logbook_bytes(collection, q3),
        q12_cells=len(collection.plans),
        q12_records=len(collection.log),
        q3_records=len(q3.log),
        shard_record_total=shard_record_total,
        politeness=politeness,
    )


def assert_backends_equivalent(
    world: World,
    configs=None,
    **subset,
) -> list[BackendRun]:
    """Run every config and assert the differential invariants.

    Returns the runs so callers can make scenario-specific assertions
    on top (e.g. that interleaving actually happened).
    """
    configs = configs if configs is not None else backend_matrix()
    runs = [run_backend(world, config, **subset) for config in configs]
    reference = runs[0]
    expected_cells = len(enumerate_q12_cells(
        world, isps=subset.get("isps", DEFAULT_ISPS),
        states=subset.get("states")))

    for run in runs:
        # Byte-identical merged logbooks against the reference backend.
        assert run.logbook == reference.logbook, (
            f"{run.label} logbook diverged from {reference.label}")
        # Cell-count conservation: canonical cell list, exactly once...
        assert run.q12_cells == expected_cells, (
            f"{run.label} visited {run.q12_cells} cells, "
            f"expected {expected_cells}")
        # ...and shard records are conserved through the merge.
        assert run.shard_record_total == run.q12_records + run.q3_records, (
            f"{run.label} lost records in the merge")
        # Politeness: every shard within its budget, fleet within cap.
        for isp, peak in run.politeness.items():
            assert peak <= run.config.per_shard_isp_cap, (
                f"{run.label} drove {peak} concurrent sessions against "
                f"{isp}, above the shard budget "
                f"{run.config.per_shard_isp_cap}")
            assert (peak * run.config.concurrent_shards
                    <= MAX_POLITE_WORKERS_PER_ISP), (
                f"{run.label} fleet-wide {isp} concurrency could reach "
                f"{peak * run.config.concurrent_shards}")
    return runs


# ----------------------------------------------------------------------
# Service: journal replay == checkpoint-store resume
# ----------------------------------------------------------------------

def canonical_shard_state_bytes(shards: dict) -> bytes:
    """Canonical byte serialization of a completed-shard state — the
    thing a resume (journal replay *or* checkpoint load) reconstructs.

    Uses the checkpoint codec's shortest-repr float round-trip, so
    byte equality is bit equality of every record in every shard.
    """
    payload = {str(index): _shard_to_json(result)
               for index, result in sorted(shards.items())}
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def assert_journal_replay_equivalent(journal, fingerprint: str,
                                     store) -> dict:
    """The service journal's replayed shard state byte-equals a
    :class:`~repro.runtime.checkpoint.CheckpointStore` resume.

    ``journal`` is a :class:`~repro.service.journal.Journal` holding a
    (possibly interrupted) campaign's ``shard-completed`` entries;
    ``store`` is a checkpoint store for the *same* campaign
    fingerprint, interrupted at the same point. The two durability
    designs — state-as-replayable-log and manifest-of-checksums files
    — must reconstruct identical completed-shard maps, byte for byte.
    Returns the journal-side map for further assertions.
    """
    replayed = journal.completed_shard_results(fingerprint)
    resumed = store.load_completed()
    assert set(replayed) == set(resumed), (
        f"journal replay found shards {sorted(replayed)} but the "
        f"checkpoint store resumed {sorted(resumed)}")
    journal_bytes = canonical_shard_state_bytes(replayed)
    store_bytes = canonical_shard_state_bytes(resumed)
    assert journal_bytes == store_bytes, (
        "journal-replayed shard state diverged from the checkpoint "
        "store's resume state for the same campaign prefix")
    return replayed


# ----------------------------------------------------------------------
# Longitudinal: incremental wave == from-scratch re-collection
# ----------------------------------------------------------------------

def scratch_wave_bytes(
    world: World,
    model: ChurnModel,
    horizon_years: int,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
) -> bytes:
    """One wave's logbook, re-collected from scratch (the oracle).

    Deliberately bypasses the runtime: the sequential
    :class:`~repro.core.collection.CollectionCampaign` loops over the
    independently evolved world, so the panel's replay merge is tested
    against a path that shares none of its machinery.
    """
    evolved = (world if horizon_years == 0
               else churned_world(world, years=horizon_years, model=model))
    collection = CollectionCampaign(evolved).run(isps=isps, states=states)
    q3 = collect_q3_dataset(evolved, states=q3_states)
    return canonical_logbook_bytes(collection, q3)


def canonical_analysis_bytes(analysis) -> bytes:
    """Canonical byte serialization of one wave's audit aggregations.

    JSON renders floats by shortest round-trip ``repr``, so byte
    equality here is bit equality of every rate — summation order
    included.
    """
    return json.dumps(analysis.to_payload(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def assert_incremental_analysis_equivalent(
    world: World,
    model: ChurnModel,
    horizons: tuple[int, ...] = (1, 2),
    runtime: RuntimeConfig | None = None,
    expect_reuse: bool = True,
    **subset,
) -> list[WaveOutcome]:
    """Run a panel and prove each wave's incremental analysis against
    the full recompute.

    Per wave: the digest-keyed row fold
    (:func:`repro.analysis.incremental.wave_analysis`, rows cached
    across waves) must serialize byte-identically to the oracle that
    rebuilds an :class:`~repro.core.audit.AuditDataset` from the
    entire merged logbook. For follow-up waves (when ``expect_reuse``)
    the cache must have produced hits — equality of two cold folds
    would prove nothing about incrementality.
    """
    from repro.analysis.incremental import (
        full_wave_analysis,
        row_cache_for,
        wave_analysis,
    )

    campaign = PanelCampaign(world, model=model, horizons=horizons,
                             runtime=runtime, **subset)
    cache = row_cache_for(campaign)
    outcomes = []
    hits_before_followups = None
    for outcome in campaign.waves():
        if outcome.wave == 1:
            hits_before_followups = cache.hits
        incremental = canonical_analysis_bytes(
            wave_analysis(outcome, cache=cache))
        full = canonical_analysis_bytes(full_wave_analysis(outcome))
        assert incremental == full, (
            f"wave {outcome.wave} (+{outcome.horizon_years}y) incremental "
            f"analysis diverged from the full-logbook recompute")
        outcomes.append(outcome)
    if expect_reuse and len(outcomes) > 1:
        assert cache.hits > (hits_before_followups or 0), (
            "no analysis row was ever reused — the incremental fold "
            "degenerated into full recompute and the equivalence is "
            "vacuous")
    return outcomes


def assert_panel_backends_equivalent(
    world: World,
    model: ChurnModel,
    horizons: tuple[int, ...] = (1,),
    configs=None,
    **subset,
) -> None:
    """Every backend's panel produces byte-identical wave logbooks.

    The reference is the in-process panel (``runtime=None`` — the
    plain sequential fold); each config in the matrix (serial /
    process / serial+async / process+async / distributed) re-runs the same
    panel with its delta collections dispatched through that backend.
    """
    reference = [
        canonical_logbook_bytes(outcome.collection, outcome.q3)
        for outcome in PanelCampaign(world, model=model,
                                     horizons=horizons, **subset).run()
    ]
    configs = configs if configs is not None else backend_matrix()
    for config in configs:
        outcomes = PanelCampaign(world, model=model, horizons=horizons,
                                 runtime=config, **subset).run()
        for outcome, expected in zip(outcomes, reference):
            got = canonical_logbook_bytes(outcome.collection, outcome.q3)
            assert got == expected, (
                f"wave {outcome.wave} logbook under "
                f"{mode_label(config)} diverged from the "
                f"in-process panel")


def assert_panel_replay_equivalent(
    world: World,
    model: ChurnModel,
    horizons: tuple[int, ...] = (1, 2, 3),
    runtime: RuntimeConfig | None = None,
    expect_replay: bool = True,
    **subset,
) -> list[WaveOutcome]:
    """Run a panel incrementally and prove each wave against scratch.

    Asserts, per wave: the merged logbook is byte-identical to a
    from-scratch re-collection of that wave's evolved world; the
    fresh/replayed accounting conserves the cell count; and (for
    follow-up waves, when ``expect_replay``) the incremental path
    actually replayed something — equality of two full re-queries
    would prove nothing about delta planning.
    """
    campaign = PanelCampaign(world, model=model, horizons=horizons,
                             runtime=runtime, **subset)
    outcomes = campaign.run()
    replayed_total = 0
    for outcome in outcomes:
        incremental = canonical_logbook_bytes(outcome.collection, outcome.q3)
        scratch = scratch_wave_bytes(world, model, outcome.horizon_years,
                                     **subset)
        assert incremental == scratch, (
            f"wave {outcome.wave} (+{outcome.horizon_years}y) incremental "
            f"logbook diverged from from-scratch re-collection")
        assert (outcome.fresh_q12 + outcome.replayed_q12
                == outcome.delta.total_q12), (
            f"wave {outcome.wave} lost Q1/Q2 cells in the fold")
        assert (outcome.fresh_q3 + outcome.replayed_q3
                == outcome.delta.total_q3), (
            f"wave {outcome.wave} lost Q3 blocks in the fold")
        if outcome.wave > 0:
            replayed_total += outcome.replayed_q12 + outcome.replayed_q3
    assert outcomes[0].replayed_q12 == outcomes[0].replayed_q3 == 0, (
        "the snapshot wave has nothing to replay from")
    if expect_replay and len(outcomes) > 1:
        assert replayed_total > 0, (
            "no cell was ever replayed — the delta planner degenerated "
            "into full re-collection and the equivalence is vacuous")
    return outcomes
