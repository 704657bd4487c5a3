"""Differential-equivalence tests: every backend, byte for byte.

Runs a small campaign under serial / process / distributed (serial and
process also with ``max_inflight``, an event loop per shard) and
asserts byte-identical merged logbooks, cell-count conservation, and
politeness-cap compliance — across two scenario shapes and two seeds
each, so backend drift cannot hide behind one lucky world. These
are the tests CI's ``pytest -m equivalence`` job runs in isolation.
"""

from __future__ import annotations

import pytest

from harness.equivalence import (
    assert_backends_equivalent,
    assert_incremental_analysis_equivalent,
    assert_panel_backends_equivalent,
    assert_panel_replay_equivalent,
    backend_matrix,
    run_backend,
)
from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.runtime import RuntimeConfig
from repro.synth.churn import ChurnModel
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import build_world

pytestmark = pytest.mark.equivalence

# Keep the campaigns small: one ISP's footprint in two states, one Q3
# state — big enough for replacements, Q3 cable overlap, and real
# interleaving, small enough to run 4 backends x 4 worlds in CI.
SUBSET = dict(isps=("consolidated",), states=("VT", "NH"), q3_states=("UT",))

# Two scenario *shapes* (not just reseeds): the standard tiny world,
# and a coarser-CBG variant that shifts cell sizes and block layouts.
SCENARIO_SHAPES = {
    "tiny": lambda seed: ScenarioConfig.tiny(seed=seed),
    "coarse": lambda seed: ScenarioConfig(
        seed=seed, address_scale=0.004, cbg_size_median=80.0,
        cbg_size_sigma=0.6, max_cbg_size=300, blocks_per_cbg=5),
}
SEEDS = (0, 11)


@pytest.mark.parametrize("shape", sorted(SCENARIO_SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
def test_backends_bit_identical(shape, seed):
    world = build_world(SCENARIO_SHAPES[shape](seed))
    runs = assert_backends_equivalent(world, backend_matrix(), **SUBSET)
    # The harness proved equality; spot-check the campaign was not
    # degenerate (equality over empty logs proves nothing).
    assert runs[0].q12_records > 0
    assert runs[0].q12_cells > 1


def test_async_interleaving_actually_happens(world):
    """An event-loop run must hold >1 session in flight, or it is
    serial with extra steps — and the politeness assertions above would be
    vacuous."""
    config = RuntimeConfig(shards=1, backend="serial",
                           max_inflight=MAX_POLITE_WORKERS_PER_ISP + 4)
    run = run_backend(world, config, **SUBSET)
    assert max(run.politeness.values()) > 1
    assert max(run.politeness.values()) <= config.per_shard_isp_cap


def test_politeness_cap_honored_with_inflight_above_cap(world):
    """max_inflight far above the cap: the gate, not the loop bound,
    must be what limits per-storefront concurrency."""
    config = RuntimeConfig(shards=2, backend="serial",
                           max_inflight=4 * MAX_POLITE_WORKERS_PER_ISP)
    run = run_backend(world, config, **SUBSET)
    for isp, peak in run.politeness.items():
        assert peak <= MAX_POLITE_WORKERS_PER_ISP, isp


def test_equivalence_holds_with_divided_politeness_budget(world):
    """A process pool on event loops divides the cap across workers;
    the division must not change a single byte either."""
    runs = [
        run_backend(world, config, **SUBSET)
        for config in (
            RuntimeConfig(shards=4, backend="serial"),
            RuntimeConfig(shards=4, workers=4, backend="process",
                          max_inflight=6),
        )
    ]
    assert runs[0].logbook == runs[1].logbook
    assert runs[1].config.per_shard_isp_cap == MAX_POLITE_WORKERS_PER_ISP // 4


# ----------------------------------------------------------------------
# The longitudinal column of the matrix: incremental panel waves must
# be byte-identical to from-scratch re-collection of each evolved world.
# ----------------------------------------------------------------------

@pytest.mark.longitudinal
def test_panel_replay_equivalent_three_waves(world):
    """The acceptance scenario: a 3-wave panel at the default sparse
    churn replays unchanged cells yet reproduces every wave's logbook
    byte for byte."""
    outcomes = assert_panel_replay_equivalent(
        world, model=ChurnModel(cell_rate=0.3), horizons=(1, 2, 3),
        **SUBSET)
    # Non-degenerate: real records, and real incremental savings.
    assert len(outcomes[0].collection.log) > 0
    assert any(o.fresh_q12 + o.fresh_q3
               < o.delta.total_q12 + o.delta.total_q3
               for o in outcomes[1:])


@pytest.mark.longitudinal
def test_panel_replay_equivalent_at_default_churn(world):
    """The default panel churn model (10% of cells per year), three
    waves — the configuration `repro panel` ships with."""
    from repro.longitudinal import DEFAULT_PANEL_CHURN

    assert_panel_replay_equivalent(
        world, model=DEFAULT_PANEL_CHURN, horizons=(1, 2, 3), **SUBSET)


@pytest.mark.longitudinal
def test_panel_replay_equivalent_under_sharded_runtime(world):
    """Delta collections routed through the sharded runtime (the same
    machinery the backend matrix exercises) must merge to the same
    bytes as from-scratch re-collection."""
    assert_panel_replay_equivalent(
        world, model=ChurnModel(cell_rate=0.3), horizons=(1, 2),
        runtime=RuntimeConfig(shards=3, backend="serial"), **SUBSET)


@pytest.mark.longitudinal
@pytest.mark.parametrize("shape", sorted(SCENARIO_SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
def test_panel_incremental_analysis_equivalent(shape, seed):
    """The incremental-analysis acceptance scenario: per-wave
    digest-keyed row folds byte-equal to full recompute, across two
    panel scenario shapes and two seeds each, with real row reuse."""
    world = build_world(SCENARIO_SHAPES[shape](seed))
    outcomes = assert_incremental_analysis_equivalent(
        world, model=ChurnModel(cell_rate=0.3), horizons=(1, 2), **SUBSET)
    # Non-degenerate: real records behind the rates.
    assert len(outcomes[0].collection.log) > 0


@pytest.mark.longitudinal
@pytest.mark.parametrize("shape", sorted(SCENARIO_SHAPES))
@pytest.mark.parametrize("seed", SEEDS)
def test_panel_wave_logbooks_identical_across_backends(shape, seed):
    """Panel wave logbooks must stay byte-identical whichever of the
    five modes runs the delta collections — the longitudinal column
    crossed with the full backend matrix."""
    world = build_world(SCENARIO_SHAPES[shape](seed))
    assert_panel_backends_equivalent(
        world, model=ChurnModel(cell_rate=0.3), horizons=(1,), **SUBSET)


@pytest.mark.longitudinal
def test_panel_replay_equivalent_under_dense_churn(world):
    """Per-address (uncorrelated) churn changes nearly every cell —
    the delta planner must degrade gracefully to ~full re-collection
    and still be byte-exact."""
    assert_panel_replay_equivalent(
        world, model=ChurnModel(), horizons=(1,), expect_replay=False,
        **SUBSET)
