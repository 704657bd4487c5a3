"""Tests for repro.runtime: sharding, equivalence, resume, cache.

The load-bearing property is *bit-identical equivalence*: for a fixed
seed, the sharded campaign (any shard count, either backend) must
reproduce the sequential campaign's logs record for record. Checkpoint
resume and the audit cache are then tested against that same baseline.
"""

from __future__ import annotations

import multiprocessing
import sys

import pytest

import repro.runtime.executor as executor_module
from harness.equivalence import canonical_logbook_bytes
from repro.bqt.campaign import MAX_POLITE_WORKERS_PER_ISP
from repro.core.collection import CollectionCampaign, collect_q3_dataset
from repro.core.pipeline import run_full_audit
from repro.runtime import (
    AuditCache,
    CheckpointStore,
    RuntimeConfig,
    ShardResult,
    audit_digest,
    campaign_fingerprint,
    dispatch_shards,
    enumerate_q12_cells,
    execute_campaign,
    plan_shards,
    run_shard,
)
from repro.runtime.checkpoint import _shard_to_json
from repro.runtime.shards import ShardSpec
from repro.synth.scenario import ScenarioConfig

# A deliberately small slice of the campaign for the tests that rerun
# it several times (resume, process backend).
SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))


def record_key(record):
    return (record.isp_id, record.address_id, record.block_geoid,
            record.status, record.plans, record.error_category,
            record.attempts, record.elapsed_seconds, record.replacement_for)


def log_keys(log):
    return [record_key(r) for r in log]


@pytest.fixture(scope="module")
def subset_baseline(world):
    campaign = CollectionCampaign(world)
    collection = campaign.run(isps=SUBSET["isps"], states=SUBSET["states"])
    q3 = collect_q3_dataset(world, states=SUBSET["q3_states"])
    return collection, q3


class TestShardPlanning:
    def test_partition_covers_all_cells_once(self, world):
        cells = enumerate_q12_cells(world)
        for count in (1, 2, 5, 16):
            specs = plan_shards(world, count)
            dealt = [c for spec in specs for c in spec.q12_cells]
            assert sorted(map(repr, dealt)) == sorted(map(repr, cells))

    def test_partition_q3_blocks_disjoint_and_complete(self, world):
        specs = plan_shards(world, 4)
        blocks = [b for spec in specs for b in spec.q3_blocks]
        assert len(blocks) == len(set(blocks))
        assert set(blocks) == set(plan_shards(world, 1)[0].q3_blocks)

    def test_partition_deterministic(self, world):
        assert plan_shards(world, 3) == plan_shards(world, 3)

    def test_more_shards_than_cells(self, world):
        cells = enumerate_q12_cells(world, isps=("consolidated",),
                                    states=("VT",))
        specs = plan_shards(world, len(cells) + 50,
                            isps=("consolidated",), states=("VT",),
                            q3_states=("UT",))
        assert sum(len(s.q12_cells) for s in specs) == len(cells)
        assert any(s.num_units == 0 for s in specs)

    def test_balance(self, world):
        specs = plan_shards(world, 4)
        sizes = [len(s.q12_cells) for s in specs]
        assert max(sizes) - min(sizes) <= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(index=2, count=2, q12_cells=(), q3_blocks=())
        with pytest.raises(ValueError):
            ShardSpec(index=0, count=0, q12_cells=(), q3_blocks=())
        with pytest.raises(ValueError):
            plan_shards(None, 0)


class TestRuntimeConfig:
    def test_politeness_clamp(self):
        config = RuntimeConfig(shards=64, workers=64)
        assert config.effective_workers == MAX_POLITE_WORKERS_PER_ISP

    def test_workers_clamped_to_shards(self):
        assert RuntimeConfig(shards=2, workers=4).effective_workers == 2

    def test_auto_backend(self):
        assert RuntimeConfig().effective_backend == "serial"
        assert RuntimeConfig(shards=4, workers=2).effective_backend == "process"
        assert RuntimeConfig(shards=4, workers=2,
                             backend="serial").effective_backend == "serial"

    def test_async_backends(self):
        """A serial shard on an event loop may use the whole cap; one
        without ``max_inflight`` drives one session per storefront."""
        config = RuntimeConfig(shards=4, backend="serial", max_inflight=16)
        assert config.concurrent_shards == 1
        assert config.per_shard_isp_cap == MAX_POLITE_WORKERS_PER_ISP
        assert RuntimeConfig(shards=4, workers=2).per_shard_isp_cap == 1

    @pytest.mark.parametrize("max_inflight", [None, 16])
    @pytest.mark.parametrize("backend, resolved, concurrent", [
        ("auto", "process", 4),
        ("serial", "serial", 1),
        ("process", "process", 4),
        ("distributed", "distributed", 4),
    ])
    def test_max_inflight_is_orthogonal_to_placement(
            self, backend, resolved, concurrent, max_inflight):
        """``max_inflight`` never changes where shards run, on any
        backend, and the per-ISP budget it unlocks is divided across
        the shards that backend runs at once."""
        config = RuntimeConfig(shards=8, workers=4, backend=backend,
                               max_inflight=max_inflight)
        assert config.effective_backend == resolved
        assert config.concurrent_shards == concurrent
        assert (config.per_shard_isp_cap * config.concurrent_shards
                <= MAX_POLITE_WORKERS_PER_ISP)
        if max_inflight is None:
            assert config.per_shard_isp_cap == 1
        else:
            assert config.per_shard_isp_cap == \
                MAX_POLITE_WORKERS_PER_ISP // concurrent
        # One worker: auto stays in process, and so does the budget.
        single = RuntimeConfig(shards=8, backend=backend,
                               max_inflight=max_inflight)
        assert single.effective_backend == (
            "serial" if backend == "auto" else backend)
        assert single.concurrent_shards == 1

    def test_politeness_budget_divided_across_workers(self):
        config = RuntimeConfig(shards=8, workers=4, backend="process",
                               max_inflight=8)
        assert config.concurrent_shards == 4
        assert config.per_shard_isp_cap == MAX_POLITE_WORKERS_PER_ISP // 4
        assert (config.per_shard_isp_cap * config.concurrent_shards
                <= MAX_POLITE_WORKERS_PER_ISP)
        # Even more workers than cap tokens: everyone still gets one.
        crowded = RuntimeConfig(shards=64, workers=64, backend="process",
                                max_inflight=8)
        assert crowded.per_shard_isp_cap == 1

    def test_non_async_shards_drive_one_session(self):
        assert RuntimeConfig(shards=4, workers=2).per_shard_isp_cap == 1
        assert RuntimeConfig(shards=4, backend="serial").per_shard_isp_cap == 1

    def test_distributed_backend_config(self):
        """Distributed workers are sync by default; ``max_inflight``
        opts each worker's shard onto an event loop, with the
        politeness budget divided across the fleet as for a process
        pool."""
        config = RuntimeConfig(shards=8, workers=4, backend="distributed")
        assert config.effective_backend == "distributed"
        assert config.concurrent_shards == 4
        assert config.per_shard_isp_cap == 1
        interleaved = RuntimeConfig(shards=8, workers=4,
                                    backend="distributed", max_inflight=6)
        assert interleaved.per_shard_isp_cap == \
            MAX_POLITE_WORKERS_PER_ISP // 4
        assert (interleaved.per_shard_isp_cap
                * interleaved.concurrent_shards
                <= MAX_POLITE_WORKERS_PER_ISP)

    def test_validation(self):
        with pytest.raises(ValueError):
            RuntimeConfig(shards=0)
        with pytest.raises(ValueError):
            RuntimeConfig(workers=0)
        for backend in ("threads", "async", "process+async"):
            with pytest.raises(ValueError):
                RuntimeConfig(backend=backend)
        with pytest.raises(ValueError):
            RuntimeConfig(max_inflight=0)
        with pytest.raises(ValueError):
            RuntimeConfig(backend="process", max_inflight=0)
        with pytest.raises(ValueError):
            RuntimeConfig(resume=True)  # resume needs a checkpoint_dir

    def test_lease_timeout_validation(self):
        config = RuntimeConfig(shards=4, workers=2, backend="distributed",
                               lease_timeout=300.0)
        assert config.lease_timeout == 300.0
        with pytest.raises(ValueError):
            RuntimeConfig(backend="distributed", lease_timeout=0.0)
        with pytest.raises(ValueError):
            # A lease timeout must never be silently ignored.
            RuntimeConfig(shards=4, workers=2, backend="process",
                          lease_timeout=60.0)


class TestEquivalence:
    """The acceptance property: sharded == sequential, exactly."""

    def test_full_audit_headline_exact(self, world, report):
        sharded = run_full_audit(
            world=world, parallel=RuntimeConfig(shards=4, backend="serial"))
        assert sharded.headline() == report.headline()

    def test_full_audit_logs_bit_identical(self, world, report):
        sharded = run_full_audit(
            world=world, parallel=RuntimeConfig(shards=4, backend="serial"))
        assert log_keys(sharded.collection.log) == log_keys(
            report.collection.log)
        assert log_keys(sharded.q3_collection.log) == log_keys(
            report.q3_collection.log)
        assert sharded.q3_collection.modes == report.q3_collection.modes
        assert (sharded.q3_collection.analyzed_blocks
                == report.q3_collection.analyzed_blocks)
        assert sharded.collection.cbg_totals == report.collection.cbg_totals

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_any_shard_count(self, world, subset_baseline, shards):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=shards, backend="serial"), **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_process_backend(self, world, subset_baseline):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=2, workers=2, backend="process"),
            **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_async_backend(self, world, subset_baseline):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=3, backend="serial", max_inflight=16),
            **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_on_progress_reports_every_shard(self, world):
        seen: list[tuple[int, int, int, bool]] = []
        execute_campaign(
            world, RuntimeConfig(shards=3, backend="serial", max_inflight=8),
            on_progress=lambda done, total, r, restored: seen.append(
                (done, total, r.index, restored)),
            **SUBSET)
        assert [(done, total) for done, total, _, _ in seen] == \
            [(1, 3), (2, 3), (3, 3)]
        assert sorted(index for _, _, index, _ in seen) == [0, 1, 2]
        # Nothing came from a checkpoint: every shard was executed.
        assert not any(restored for _, _, _, restored in seen)

    def test_on_progress_flags_restored_shards(
            self, world, tmp_path, monkeypatch):
        """A resumed run reports checkpointed shards with
        ``restored=True`` (in index order, before anything executes)
        so ETA estimators can exclude them from the rate."""
        shard_dir = str(tmp_path / "ckpt")
        config = RuntimeConfig(shards=3, backend="serial",
                               checkpoint_dir=shard_dir)
        execute_campaign(world, config, **SUBSET)

        seen: list[tuple[int, int, bool]] = []
        resumed = RuntimeConfig(shards=3, backend="serial",
                                checkpoint_dir=shard_dir, resume=True)
        execute_campaign(
            world, resumed,
            on_progress=lambda done, total, r, restored: seen.append(
                (done, r.index, restored)),
            **SUBSET)
        assert seen == [(1, 0, True), (2, 1, True), (3, 2, True)]


@pytest.fixture
def forked_pool():
    """Require the fork start method the process backend's world reuse
    rides on. On Linux it is the default, and a default that stops
    forking must fail these tests, not skip them."""
    if not sys.platform.startswith("linux"):
        pytest.skip("pool workers inherit the world only under fork")
    assert multiprocessing.get_context().get_start_method() == "fork"


class TestProcessWorkersInheritWorld:
    """A process-pool campaign builds its world once, in the
    coordinator: forked workers run their shards on that world."""

    def test_workers_never_rebuild_the_world(self, world, forked_pool,
                                             monkeypatch):
        serial = execute_campaign(
            world, RuntimeConfig(shards=2, backend="serial"), **SUBSET)

        def forbidden(*args, **kwargs):
            raise AssertionError("a pool worker rebuilt the world")

        # Forked workers inherit the patch: any rebuild fails a shard.
        monkeypatch.setattr(executor_module, "build_world", forbidden)
        pooled = execute_campaign(
            world, RuntimeConfig(backend="process", shards=2, workers=2),
            **SUBSET)
        assert canonical_logbook_bytes(*pooled) == \
            canonical_logbook_bytes(*serial)
        assert executor_module._WORLD_CACHE == {}

    def test_failed_campaign_releases_the_world(self, world, forked_pool,
                                                monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("shard failed")

        monkeypatch.setattr(executor_module, "run_q12_cell", broken)
        with pytest.raises(RuntimeError, match="shard failed"):
            execute_campaign(
                world, RuntimeConfig(backend="process", shards=2, workers=2),
                **SUBSET)
        assert executor_module._WORLD_CACHE == {}


# Shards the in-memory log below holds before a contract test runs.
# Module-level so pool workers forked mid-test see the same set.
RESTORED = (0, 2)


def _run_unrestored_shard(scenario, spec, *args, **kwargs):
    """run_shard, refusing the shards the log already holds."""
    if spec.index in RESTORED:
        raise AssertionError(f"restored shard {spec.index} was run")
    return run_shard(scenario, spec, *args, **kwargs)


class MemoryShardLog:
    """The least a shard log is: ``load_completed`` and ``save_shard``."""

    def __init__(self, completed=None, fail=False):
        self.completed = dict(completed or {})
        self.saved: list[int] = []
        self.fail = fail

    def load_completed(self):
        return dict(self.completed)

    def save_shard(self, result):
        if self.fail:
            raise OSError("shard log write failed")
        self.saved.append(result.index)


class TestDispatchShardsContract:
    """dispatch_shards is the one restore → run → record loop: what a
    shard log holds is restored, the rest runs, and each result is
    saved the moment it completes."""

    @pytest.fixture(params=["serial", "process"])
    def backend(self, request):
        if request.param == "process":
            request.getfixturevalue("forked_pool")
        return request.param

    def test_restores_runs_the_rest_and_saves_each_once(
            self, world, backend, monkeypatch):
        specs = plan_shards(world, 4, **SUBSET)
        restored = {index: ShardResult(index=index, count=4)
                    for index in RESTORED}
        log = MemoryShardLog(restored)
        progress = []

        def on_progress(done, total, result, was_restored):
            progress.append((done, total, result.index, was_restored))

        monkeypatch.setattr(executor_module, "run_shard",
                            _run_unrestored_shard)
        completed = dispatch_shards(
            world, specs, RuntimeConfig(shards=4, workers=2,
                                        backend=backend),
            log, on_progress)
        assert sorted(completed) == [0, 1, 2, 3]
        for index in RESTORED:
            assert completed[index] is restored[index]
        assert sorted(log.saved) == [1, 3]
        assert progress[:2] == [(1, 4, 0, True), (2, 4, 2, True)]
        assert [done for done, *_ in progress] == [1, 2, 3, 4]
        assert sorted((index, was_restored)
                      for _, _, index, was_restored in progress[2:]) == \
            [(1, False), (3, False)]
        for index in (1, 3):
            assert _shard_to_json(completed[index]) == _shard_to_json(
                run_shard(world.config, specs[index], world=world))

    def test_failed_save_fails_the_run(self, world, backend):
        log = MemoryShardLog(fail=True)
        with pytest.raises(OSError, match="shard log write failed"):
            dispatch_shards(world, plan_shards(world, 2, **SUBSET),
                            RuntimeConfig(shards=2, workers=2,
                                          backend=backend), log)
        assert log.saved == []
        assert executor_module._WORLD_CACHE == {}


class TestCheckpointResume:
    def test_interrupted_run_resumes_without_recomputation(
            self, world, subset_baseline, tmp_path, monkeypatch):
        shard_dir = str(tmp_path / "ckpt")
        executed: list[int] = []

        def counting_run_shard(scenario, spec, *args, **kwargs):
            if len(executed) == 2:  # simulate a crash after 2 shards
                raise KeyboardInterrupt
            executed.append(spec.index)
            return run_shard(scenario, spec, *args, **kwargs)

        import repro.runtime.executor as executor_module

        monkeypatch.setattr(executor_module, "run_shard", counting_run_shard)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(
                world,
                RuntimeConfig(shards=4, backend="serial",
                              checkpoint_dir=shard_dir),
                **SUBSET)
        assert len(executed) == 2
        monkeypatch.setattr(executor_module, "run_shard", run_shard)

        # Resume: only the two missing shards run.
        resumed_indices: list[int] = []

        def tracking_run_shard(scenario, spec, *args, **kwargs):
            resumed_indices.append(spec.index)
            return run_shard(scenario, spec, *args, **kwargs)

        monkeypatch.setattr(executor_module, "run_shard", tracking_run_shard)
        collection, q3 = execute_campaign(
            world,
            RuntimeConfig(shards=4, backend="serial",
                          checkpoint_dir=shard_dir, resume=True),
            **SUBSET)
        assert sorted(resumed_indices + executed) == [0, 1, 2, 3]
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_async_backend_killed_and_resumed_matches_uninterrupted(
            self, world, subset_baseline, tmp_path, monkeypatch):
        """Kill an event-loop run after N shards, resume it, and the
        merged output must equal an uninterrupted run."""
        shard_dir = str(tmp_path / "ckpt-async")
        config = RuntimeConfig(shards=4, backend="serial", max_inflight=12,
                               checkpoint_dir=shard_dir)
        executed: list[int] = []

        def dying_run_shard(scenario, spec, *args, **kwargs):
            if len(executed) == 2:  # kill after 2 shards complete
                raise KeyboardInterrupt
            executed.append(spec.index)
            return run_shard(scenario, spec, *args, **kwargs)

        import repro.runtime.executor as executor_module

        monkeypatch.setattr(executor_module, "run_shard", dying_run_shard)
        with pytest.raises(KeyboardInterrupt):
            execute_campaign(world, config, **SUBSET)
        assert len(executed) == 2
        monkeypatch.setattr(executor_module, "run_shard", run_shard)

        resumed = RuntimeConfig(shards=4, backend="serial", max_inflight=12,
                                checkpoint_dir=shard_dir, resume=True)
        collection, q3 = execute_campaign(world, resumed, **SUBSET)
        baseline_collection, baseline_q3 = subset_baseline
        assert log_keys(collection.log) == log_keys(baseline_collection.log)
        assert log_keys(q3.log) == log_keys(baseline_q3.log)

    def test_fingerprint_covers_campaign_scope(self, tiny_config):
        base = campaign_fingerprint(tiny_config, None, ("att",), 4)
        assert base != campaign_fingerprint(tiny_config, None, ("att",), 8)
        assert base != campaign_fingerprint(
            tiny_config, None, ("att",), 4, states=("VT",))
        assert base != campaign_fingerprint(
            tiny_config, None, ("att",), 4, q3_states=("UT",))
        assert base != campaign_fingerprint(
            tiny_config, None, ("att",), 4, max_replacements=0)

    def test_truncated_manifest_rebuilds_from_shard_files(
            self, world, tmp_path):
        """A torn manifest no longer discards intact work: the store
        rebuilds it from the shard files (see test_checkpoint_crash.py
        for the full crash matrix)."""
        specs = plan_shards(world, 2, **SUBSET)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(run_shard(world.config, specs[0], world=world))
        (store.campaign_directory / "checkpoint.json").write_text(
            "{trunc", encoding="utf-8")
        assert set(store.load_completed()) == {0}
        # And saving over the wreckage works.
        store.save_shard(run_shard(world.config, specs[1], world=world))
        assert set(store.load_completed()) == {0, 1}

    def test_fingerprint_mismatch_sees_no_foreign_checkpoints(
            self, world, tmp_path):
        """Campaigns are namespaced by fingerprint: another campaign
        sharing the root neither sees nor disturbs this one's work."""
        specs = plan_shards(world, 2, **SUBSET)
        result = run_shard(world.config, specs[0], world=world)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(result)
        assert set(store.load_completed()) == {0}
        other = CheckpointStore(tmp_path, "deadbeef")
        assert other.load_completed() == {}
        # The foreign store clearing itself leaves this campaign alone.
        other.clear()
        assert set(store.load_completed()) == {0}

    def test_corrupted_shard_ignored(self, world, tmp_path):
        specs = plan_shards(world, 2, **SUBSET)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(run_shard(world.config, specs[0], world=world))
        store.save_shard(run_shard(world.config, specs[1], world=world))
        store.shard_path(1).write_text("{corrupted", encoding="utf-8")
        assert set(store.load_completed()) == {0}
        # A byte that is not UTF-8 is damage too, not a crash.
        store.shard_path(1).write_bytes(b'{"index":"\xff"}')
        assert set(store.load_completed()) == {0}

    def test_checkpoint_roundtrip_exact(self, world, tmp_path):
        specs = plan_shards(world, 2, **SUBSET)
        original = run_shard(world.config, specs[0], world=world)
        fingerprint = campaign_fingerprint(world.config, None,
                                           SUBSET["isps"], 2)
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(original)
        restored = store.load_completed()[0]
        assert restored.q12_records.keys() == original.q12_records.keys()
        for cell, records in original.q12_records.items():
            assert list(map(record_key, restored.q12_records[cell])) == \
                list(map(record_key, records))
        assert restored.q3_outcomes.keys() == original.q3_outcomes.keys()


STUDY_ISPS = ("att", "centurylink", "frontier", "consolidated")


@pytest.fixture(scope="module")
def campaign(world):
    """The whole tiny campaign as one shard: what an audit entry holds."""
    return run_shard(world.config, plan_shards(world, 1)[0], world=world)


@pytest.fixture(scope="module")
def subset_shard(world):
    """A small one-shard campaign, for tests that store many entries."""
    return run_shard(world.config, plan_shards(world, 1, **SUBSET)[0],
                     world=world)


class TestAuditCache:
    def test_digest_sensitivity(self, tiny_config):
        base = audit_digest(tiny_config, None, ("att",))
        assert base == audit_digest(tiny_config, None, ("att",))
        assert base != audit_digest(tiny_config, None, ("att", "frontier"))
        assert base != audit_digest(tiny_config, None, ("att",),
                                    use_urban_survey=False)
        reseeded = type(tiny_config)(seed=99)
        assert base != audit_digest(reseeded, None, ("att",))
        # An omitted engine config is the default one; any other
        # config gets its own address.
        from repro.bqt.engine import EngineConfig

        assert base == audit_digest(tiny_config, None, ("att",),
                                    engine_config=EngineConfig())
        assert base != audit_digest(tiny_config, None, ("att",),
                                    engine_config=EngineConfig(
                                        max_attempts=1))

    def test_run_full_audit_cache_hit_skips_rebuild(
            self, world, report, tmp_path, monkeypatch):
        config = RuntimeConfig(shards=2, backend="serial",
                               cache_dir=str(tmp_path))
        first = run_full_audit(world=world, parallel=config)
        assert first.headline() == report.headline()

        # A second call must come from the cache: building a world or
        # querying a website would blow up.
        import repro.core.pipeline as pipeline_module

        def forbidden(*args, **kwargs):
            raise AssertionError("cache miss: pipeline recomputed")

        monkeypatch.setattr(pipeline_module, "build_world", forbidden)
        monkeypatch.setattr(pipeline_module, "CollectionCampaign", forbidden)
        second = run_full_audit(scenario=world.config, parallel=config)
        assert second.headline() == report.headline()

    def test_context_uses_cache(self, tmp_path, world, report, campaign,
                                monkeypatch):
        from repro.analysis.context import ExperimentContext

        cache = AuditCache(tmp_path)
        cache.put(audit_digest(world.config, None, STUDY_ISPS), campaign)

        def forbidden(*args, **kwargs):
            raise AssertionError("cache miss: campaign recomputed")

        monkeypatch.setattr(executor_module, "execute_campaign", forbidden)
        context = ExperimentContext.at_scale("tiny",
                                             cache_dir=str(tmp_path))
        assert context.report.summary_lines() == report.summary_lines()
        # The report's world is adopted so report and world agree.
        assert context.world is context.report.world

    def test_entries_and_sidecar(self, campaign, world, tmp_path):
        """An audit entry is one shard record and nothing beside it."""
        cache = AuditCache(tmp_path)
        digest = audit_digest(world.config, None, ("att",))
        path = cache.put(digest, campaign)
        assert cache.entries() == [digest]
        assert path == cache.path_for(digest)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert cache.get("0" * 64) is None
        restored = cache.get(digest)
        assert (restored.index, restored.count) == (0, 1)
        assert _shard_to_json(restored) == _shard_to_json(campaign)

    def test_entry_ignores_the_shard_count(self, world, campaign, tmp_path):
        """One audit's entry is the same bytes whatever partition ran
        it, and the bytes a direct put of the campaign writes."""
        cache = AuditCache(tmp_path / "direct")
        digest = audit_digest(world.config, None, STUDY_ISPS)
        expected = cache.put(digest, campaign).read_bytes()
        for shards in (1, 8):
            directory = tmp_path / f"shards-{shards}"
            run_full_audit(world=world, parallel=RuntimeConfig(
                shards=shards, backend="serial", cache_dir=str(directory)))
            entry = AuditCache(directory).path_for(digest)
            assert entry.read_bytes() == expected

    def test_hit_counts_once_and_dispatches_nothing(self, world, report,
                                                    campaign, tmp_path):
        from repro.obs.metrics import REGISTRY

        AuditCache(tmp_path).put(
            audit_digest(world.config, None, STUDY_ISPS), campaign)
        hits = REGISTRY.counter("audit_cache_hits_total")
        dispatched = REGISTRY.counter("shards_dispatched_total")
        before = hits.value, dispatched.value
        warm = run_full_audit(world=world, parallel=RuntimeConfig(
            shards=4, backend="serial", cache_dir=str(tmp_path)))
        assert (hits.value, dispatched.value) == (before[0] + 1, before[1])
        assert warm.summary_lines() == report.summary_lines()

    @pytest.mark.parametrize("payload", [
        b"\x80\x05\x8c\x01\xff\x94.",  # UnicodeDecodeError
        b"\x80\x09N.",  # ValueError: unsupported pickle protocol
    ])
    def test_damaged_entry_is_a_miss(self, payload, tmp_path):
        from repro.obs.metrics import REGISTRY

        cache = AuditCache(tmp_path)
        digest = "ab" * 32
        misses = REGISTRY.counter("audit_cache_misses_total")
        for path, load in ((cache.path_for(digest), cache.get),
                           (cache.world_path_for(digest), cache.get_world)):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)
            before = misses.value
            assert load(digest) is None
            assert misses.value == before + 1

    @pytest.mark.parametrize("damage", ["truncated", "other digest",
                                        "reindexed", "not an object"])
    def test_damaged_record_is_a_miss(self, damage, subset_shard, tmp_path):
        import json

        from repro.obs.metrics import REGISTRY

        cache = AuditCache(tmp_path)
        digest, other = "ab" * 32, "cd" * 32
        path = cache.put(digest, subset_shard)
        text = path.read_text(encoding="utf-8")
        if damage == "truncated":
            path.write_text(text[:len(text) // 2], encoding="utf-8")
        elif damage == "other digest":
            cache.put(other, subset_shard).replace(path)
        elif damage == "reindexed":
            record = json.loads(text)
            record["index"] = 1
            path.write_text(json.dumps(record), encoding="utf-8")
        else:
            path.write_text(json.dumps([json.loads(text)]), encoding="utf-8")
        misses = REGISTRY.counter("audit_cache_misses_total")
        before = misses.value
        assert cache.get(digest) is None
        assert misses.value == before + 1

    def test_flipped_bytes_are_always_a_miss(self, subset_shard, tmp_path):
        """Three seeded character swaps in a real shard record, 300
        times over — digit for digit, letter for letter, so the damage
        mostly stays parseable JSON: every one is a counted miss, never
        a loaded campaign."""
        import random

        from repro.obs.metrics import REGISTRY

        cache = AuditCache(tmp_path)
        digest = "ab" * 32
        path = cache.put(digest, subset_shard)
        original = path.read_bytes()
        alphabets = (b"0123456789", b"abcdefghijklmnopqrstuvwxyz")
        positions = [offset for offset, byte in enumerate(original)
                     if any(byte in alphabet for alphabet in alphabets)]
        rng = random.Random(0)
        misses = REGISTRY.counter("audit_cache_misses_total")
        before = misses.value
        with path.open("r+b") as handle:
            for _ in range(300):
                offsets = rng.sample(positions, 3)
                for offset in offsets:
                    alphabet = next(a for a in alphabets
                                    if original[offset] in a)
                    handle.seek(offset)
                    handle.write(bytes([rng.choice(
                        [b for b in alphabet if b != original[offset]])]))
                handle.flush()
                assert cache.get(digest) is None
                for offset in offsets:
                    handle.seek(offset)
                    handle.write(original[offset:offset + 1])
                handle.flush()
        assert misses.value == before + 300
        assert (_shard_to_json(cache.get(digest))
                == _shard_to_json(subset_shard))

    def test_environment_wiring(self, monkeypatch, tmp_path):
        from repro.analysis.context import ExperimentContext
        from repro.runtime.cache import cache_dir_from_environment

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cache_dir_from_environment() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_dir_from_environment() == str(tmp_path)
        context = ExperimentContext.at_scale("tiny")
        assert context.cache_dir == str(tmp_path)


class TestWorldCacheSplit:
    """The world build is content-addressed separately from the audit."""

    def test_world_digest_ignores_policy(self, tiny_config):
        from repro.core.sampling import SamplingPolicy
        from repro.runtime import world_digest

        assert world_digest(tiny_config) == world_digest(tiny_config)
        assert world_digest(tiny_config) != world_digest(
            type(tiny_config)(seed=99))
        # audit digests differ across policies; the world digest is
        # policy-blind by design.
        a = audit_digest(tiny_config, SamplingPolicy(min_samples=30), ("att",))
        b = audit_digest(tiny_config, SamplingPolicy(min_samples=10), ("att",))
        assert a != b

    def test_world_roundtrip(self, world, tmp_path):
        from repro.runtime import world_digest

        cache = AuditCache(tmp_path)
        digest = world_digest(world.config)
        assert cache.get_world(digest) is None
        cache.put_world(digest, world)
        assert cache.world_entries() == [digest]
        restored = cache.get_world(digest)
        assert restored.config == world.config
        assert len(restored.caf_addresses) == len(world.caf_addresses)

    def test_policy_sweep_shares_one_world_build(
            self, world, tmp_path, monkeypatch):
        from repro.core.sampling import SamplingPolicy

        config = RuntimeConfig(shards=2, backend="serial",
                               cache_dir=str(tmp_path))
        run_full_audit(scenario=world.config, parallel=config,
                       policy=SamplingPolicy(min_samples=30))

        # Second policy: audit cache misses, but the world must come
        # from the cache — building one again would blow up.
        import repro.core.pipeline as pipeline_module

        def forbidden(*args, **kwargs):
            raise AssertionError("world rebuilt despite cached build")

        monkeypatch.setattr(pipeline_module, "build_world", forbidden)
        report = run_full_audit(scenario=world.config, parallel=config,
                                policy=SamplingPolicy(min_samples=10))
        assert report.collection.log
        cache = AuditCache(tmp_path)
        assert len(cache.world_entries()) == 1
        assert len(cache.entries()) == 2  # one audit per policy


class TestCacheEviction:
    def _put(self, cache, shard, tag):
        digest = audit_digest(ScenarioConfig.tiny(), None, (tag,))
        cache.put(digest, shard)
        return digest

    def test_lru_eviction_respects_bound(self, subset_shard, tmp_path):
        import time

        unbounded = AuditCache(tmp_path)
        first = self._put(unbounded, subset_shard, "att")
        entry_bytes = unbounded.total_bytes()

        # Bound: room for roughly two entries; the third put evicts
        # the least-recently-used one.
        cache = AuditCache(tmp_path, max_bytes=int(entry_bytes * 2.5))
        time.sleep(0.02)
        second = self._put(cache, subset_shard, "frontier")
        time.sleep(0.02)
        assert cache.get(first) is not None  # refresh first's clock
        time.sleep(0.02)
        third = self._put(cache, subset_shard, "centurylink")
        assert cache.total_bytes() <= cache.max_bytes
        # `second` was coldest; `first` survived because the hit
        # refreshed it, and the just-written entry is never evicted.
        assert set(cache.entries()) == {first, third}
        assert cache.get(second) is None

    def test_eviction_spans_worlds_and_audits(self, world, subset_shard, tmp_path):
        import time

        from repro.runtime import world_digest

        probe = AuditCache(tmp_path)
        self._put(probe, subset_shard, "att")
        audit_bytes = probe.total_bytes()

        cache = AuditCache(tmp_path, max_bytes=audit_bytes)
        time.sleep(0.02)
        cache.put_world(world_digest(world.config), world)
        # The world write pushed the total over the bound, so the
        # older audit entry was evicted to make room.
        assert cache.entries() == []
        assert len(cache.world_entries()) == 1

    def test_stale_tmp_files_swept_on_eviction(self, subset_shard, tmp_path):
        import os
        import time

        cache = AuditCache(tmp_path, max_bytes=10**9)
        stale = tmp_path / "deadbeef.json.tmp-99999"
        stale.write_bytes(b"orphaned by a crashed writer")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = tmp_path / "cafe.json.tmp-11111"
        fresh.write_bytes(b"a live writer's in-progress file")
        self._put(cache, subset_shard, "att")
        assert not stale.exists()  # crash leak reclaimed
        assert fresh.exists()      # live writer untouched

    def test_two_writer_eviction_skips_vanished_entries(
            self, subset_shard, tmp_path, monkeypatch):
        """Two processes evicting the same directory: an entry whose
        stat races a second writer (returns ``None``) must be skipped.
        The old code sorted such an entry as mtime 0.0, "evicted" it
        first — deleting the most-recently-used live entry — and
        subtracted its bytes from a running total that was computed by
        a *separate* stat pass, so the genuinely-LRU entry survived."""
        import time

        unbounded = AuditCache(tmp_path)
        oldest = self._put(unbounded, subset_shard, "att")
        entry_bytes = unbounded.total_bytes()

        cache = AuditCache(tmp_path, max_bytes=int(entry_bytes * 1.5))
        time.sleep(0.02)
        recent = self._put(unbounded, subset_shard, "frontier")
        time.sleep(0.02)

        # The second writer races exactly one stat: the first stat of
        # the *recent* entry observes it "vanished".
        real_stat = AuditCache._stat_or_none
        recent_entry = cache.path_for(recent)
        raced = []

        def racing_stat(path):
            if path == recent_entry and not raced:
                raced.append(path)
                return None
            return real_stat(path)

        monkeypatch.setattr(AuditCache, "_stat_or_none",
                            staticmethod(racing_stat))
        third = self._put(cache, subset_shard, "centurylink")
        monkeypatch.undo()
        assert raced, "the race window was never exercised"

        # The vanished-stat entry is not ours to count or delete: the
        # LRU `oldest` is evicted, `recent` survives untouched.
        assert set(cache.entries()) == {recent, third}
        assert cache.get(recent) is not None
        assert cache.get(oldest) is None

    def test_max_bytes_environment(self, monkeypatch, tmp_path):
        from repro.runtime import cache_max_bytes_from_environment

        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert cache_max_bytes_from_environment() is None
        assert AuditCache(tmp_path).max_bytes is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1048576")
        assert cache_max_bytes_from_environment() == 1048576
        assert AuditCache(tmp_path).max_bytes == 1048576
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "zero")
        with pytest.raises(ValueError):
            cache_max_bytes_from_environment()
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
        with pytest.raises(ValueError):
            cache_max_bytes_from_environment()


class TestPendingAwareBudget:
    def test_resumed_tail_gets_full_headroom(self):
        """An event-loop process-pool tail with one shard left runs
        alone, so it may use the whole politeness cap instead of a
        fleet-divided slice."""
        config = RuntimeConfig(shards=8, workers=4, backend="process",
                               max_inflight=8)
        assert config.per_shard_isp_cap == MAX_POLITE_WORKERS_PER_ISP // 4
        assert config.per_shard_isp_cap_for(8) == config.per_shard_isp_cap
        assert config.per_shard_isp_cap_for(2) == MAX_POLITE_WORKERS_PER_ISP // 2
        assert config.per_shard_isp_cap_for(1) == MAX_POLITE_WORKERS_PER_ISP
        # Never exceeds the global cap, whatever remains.
        for pending in range(9):
            cap = config.per_shard_isp_cap_for(pending)
            assert cap * min(config.concurrent_shards, max(1, pending)) \
                <= MAX_POLITE_WORKERS_PER_ISP
