"""Tests for repro.analysis.incremental — rows, reduce, row cache.

The byte-equality of the incremental fold against the full-logbook
recompute is proven scenario-by-scenario in
tests/test_equivalence_harness.py; this file covers the machinery:
cache invalidation semantics (digest stable ⇒ cached row byte-equal,
digest moved ⇒ row recomputed under the new key), the disk-backed
row store (atomic publish, damage and foreign-namespace rejection),
and the reduce's own contracts.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.incremental import (
    WaveRowCache,
    full_wave_analysis,
    q12_cell_row,
    reduce_rows,
    row_cache_for,
    standard_for_seed,
    wave_analysis,
)
from repro.longitudinal import PanelCampaign, diff_digests
from repro.synth.churn import ChurnModel

pytestmark = pytest.mark.longitudinal

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))

SPARSE = ChurnModel(cell_rate=0.3)


@pytest.fixture(scope="module")
def panel_outcomes(world):
    return PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                         **SUBSET).run()


def _row_bytes(row) -> bytes:
    return json.dumps(row, sort_keys=True, separators=(",", ":")).encode()


class TestRowInvalidation:
    def test_stable_digest_reuses_byte_equal_row(self, world,
                                                 panel_outcomes):
        """A cell whose digest did not move folds the *cached* row,
        and that row is byte-equal to a fresh recompute of the cell."""
        base, wave1 = panel_outcomes[0], panel_outcomes[1]
        delta = diff_digests(base.digests, wave1.digests)
        unchanged = [cell for cell in wave1.digests.q12
                     if cell not in set(delta.changed_q12)]
        assert unchanged, "sparse churn should leave some cells alone"

        campaign = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                                 **SUBSET)
        cache = row_cache_for(campaign)
        wave_analysis(base, cache=cache)
        hits_before = cache.hits
        wave_analysis(wave1, cache=cache)
        assert cache.hits - hits_before >= len(unchanged)

        standard = standard_for_seed(world.config.seed)
        for cell in unchanged:
            digest = wave1.digests.q12[cell]
            assert digest == base.digests.q12[cell]
            hit, cached = cache.lookup("q12", digest)
            assert hit
            fresh = q12_cell_row(
                cell, wave1.cells.q12_records[cell],
                wave1.collection.cbg_totals[(cell.isp_id, cell.cbg)],
                standard)
            assert _row_bytes(cached) == _row_bytes(fresh)

    def test_moved_digest_recomputes_row(self, world):
        """A churned cell's new digest must miss the cache: its row is
        computed from the wave's fresh records, never replayed from
        the prior wave's world state."""
        aggressive = ChurnModel(cell_rate=1.0, upgrade_rate=0.9)
        campaign = PanelCampaign(world, model=aggressive, horizons=(1,),
                                 **SUBSET)
        base, wave1 = campaign.run()
        delta = diff_digests(base.digests, wave1.digests)
        assert delta.changed_q12, "aggressive churn should move cells"

        cache = row_cache_for(campaign)
        wave_analysis(base, cache=cache)
        misses_before = cache.misses
        wave_analysis(wave1, cache=cache)
        assert cache.misses - misses_before >= len(delta.changed_q12)
        # Both generations stay addressable — the old digest's row is
        # not invalidated in place, the new digest gets its own entry.
        for cell in delta.changed_q12:
            assert cache.lookup("q12", base.digests.q12[cell])[0]
            assert cache.lookup("q12", wave1.digests.q12[cell])[0]

    def test_analysis_matches_oracle_without_cache(self, panel_outcomes):
        from harness.equivalence import canonical_analysis_bytes

        for outcome in panel_outcomes:
            assert canonical_analysis_bytes(wave_analysis(outcome)) == \
                canonical_analysis_bytes(full_wave_analysis(outcome))


class TestDiskBackedRows:
    def test_rows_persist_across_cache_instances(self, world, tmp_path,
                                                 panel_outcomes):
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                                 **SUBSET)
        warm = row_cache_for(campaign, directory=tmp_path)
        wave_analysis(panel_outcomes[0], cache=warm)
        assert warm.directory.exists()

        cold = row_cache_for(campaign, directory=tmp_path)
        assert cold.namespace == warm.namespace
        hits_or_misses = []
        for cell, digest in panel_outcomes[0].digests.q12.items():
            hit, row = cold.lookup("q12", digest)
            hits_or_misses.append(hit)
        assert all(hits_or_misses)
        assert cold.hits > 0 and cold.misses == 0

    @staticmethod
    def _entries(cache):
        """``(pack path, start, end, meta)`` of every row entry."""
        from repro.tabular.colio import MAGIC, decode_row_document

        found = []
        for path in sorted(cache.directory.glob("*.pack")):
            data, start = path.read_bytes(), 0
            for entry in (MAGIC + part for part in data.split(MAGIC)[1:]):
                start = data.index(entry, start)
                meta, row = decode_row_document(entry)
                found.append((path, start, start + len(entry), meta, row))
        return found

    def test_damaged_row_file_is_a_miss(self, world, tmp_path,
                                        panel_outcomes):
        """A torn pack tail costs only the entry it cuts."""
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 **SUBSET)
        cache = row_cache_for(campaign, directory=tmp_path)
        wave_analysis(panel_outcomes[0], cache=cache)
        entries = self._entries(cache)
        path, _, end, meta, _ = entries[-1]
        path.write_bytes(path.read_bytes()[:end - 10])  # torn write
        fresh = row_cache_for(campaign, directory=tmp_path)
        assert not fresh.lookup(meta["kind"], meta["digest"])[0]
        survivor = entries[0][3]
        assert fresh.lookup(survivor["kind"], survivor["digest"])[0]

    def test_corrupted_row_value_is_a_miss_not_a_wrong_rate(
            self, world, tmp_path, panel_outcomes):
        """A bit-flipped row *value* in a still-parseable entry must
        fail the row checksum — folded in, it would silently break the
        byte-equality contract. Only that entry misses, and re-putting
        the row heals the store."""
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 **SUBSET)
        cache = row_cache_for(campaign, directory=tmp_path)
        wave_analysis(panel_outcomes[0], cache=cache)
        from repro.tabular.colio import decode_row_document

        entries = self._entries(cache)
        path, start, end, meta, row = next(
            entry for entry in entries if entry[4] and entry[3]["kind"]
            == "q12")
        payload = bytearray(path.read_bytes())
        payload[end - 1] ^= 0xFF  # flip a bit in the last value buffer
        path.write_bytes(bytes(payload))
        assert decode_row_document(bytes(payload[start:end]))[1]
        fresh = row_cache_for(campaign, directory=tmp_path)
        assert not fresh.lookup("q12", meta["digest"])[0]
        assert fresh.hits == 0 and fresh.misses == 1
        others = [entry[3] for entry in entries
                  if entry[3]["digest"] != meta["digest"]]
        assert all(fresh.lookup(other["kind"], other["digest"])[0]
                   for other in others)
        fresh.put("q12", meta["digest"], row)
        healed = row_cache_for(campaign, directory=tmp_path)
        assert healed.lookup("q12", meta["digest"]) == (True, row)

    def test_foreign_namespace_rejected(self, world, tmp_path,
                                        panel_outcomes):
        """Two panels must not exchange rows even if their digests
        collide — the namespace inside each row file is checked."""
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 **SUBSET)
        cache = row_cache_for(campaign, directory=tmp_path)
        wave_analysis(panel_outcomes[0], cache=cache)
        foreign = WaveRowCache(cache.namespace[:16] + "f" * 48,
                               directory=tmp_path)
        # Same 16-hex directory prefix, different full namespace.
        assert foreign.directory == cache.directory
        digest = next(iter(panel_outcomes[0].digests.q12.values()))
        assert not foreign.lookup("q12", digest)[0]
        # Nor may its sweep delete a pack holding our rows.
        assert foreign.sweep_unreferenced(set()) == []
        assert list(cache.directory.glob("*.pack"))
        # A format-1 JSON row file, even one carrying this namespace,
        # is a miss that neither a lookup nor the sweep unlinks.
        from repro.runtime.cache import content_digest

        row, old_digest = {"queried": 8}, "e" * 64
        legacy = cache.directory / f"q12-{old_digest}.json"
        legacy.write_text(json.dumps({
            "format": 1, "namespace": cache.namespace,
            "digest": old_digest,
            "row_sha256": content_digest({"row": row}), "row": row,
        }), encoding="utf-8")
        fresh = row_cache_for(campaign, directory=tmp_path)
        assert not fresh.lookup("q12", old_digest)[0]
        fresh.sweep_unreferenced(set())
        assert legacy.exists()

    def test_cached_none_row_round_trips(self, tmp_path):
        cache = WaveRowCache("a" * 64, directory=tmp_path)
        cache.put("q12", "b" * 64, None)
        fresh = WaveRowCache("a" * 64, directory=tmp_path)
        hit, row = fresh.lookup("q12", "b" * 64)
        assert hit and row is None

    def test_sweep_unreferenced_rows(self, tmp_path):
        """Churned cells strand one row file per superseded digest;
        sweeping against the live digest set (the panel store's
        referenced digests) reclaims exactly those."""
        cache = WaveRowCache("a" * 64, directory=tmp_path)
        live, stale = "b" * 64, "c" * 64
        cache.put("q12", live, {"queried": 1})
        cache.put("q12", stale, {"queried": 2})
        cache.put("q3", stale, {"records": 0})
        removed = cache.sweep_unreferenced({live})
        assert sorted(removed) == [stale, stale]
        fresh = WaveRowCache("a" * 64, directory=tmp_path)
        assert fresh.lookup("q12", live)[0]
        assert not fresh.lookup("q12", stale)[0]
        assert not fresh.lookup("q3", stale)[0]


class TestReduce:
    def test_empty_rows_raise_like_the_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            reduce_rows([], [])

    def test_custom_standard_rejected_with_a_cache(self, world,
                                                   panel_outcomes):
        """The cache namespace digests only the default standard, so
        mixing a custom standard with a cache would silently exchange
        rows computed under different standards."""
        from repro.core.audit import ComplianceStandard

        with pytest.raises(ValueError, match="standard"):
            wave_analysis(panel_outcomes[0],
                          cache=WaveRowCache("a" * 64),
                          standard=ComplianceStandard())

    def test_experiment_reports_row_reuse(self, context):
        from repro.analysis.panel import run as run_panel

        result = run_panel(context, waves=2)
        assert result.scalars["analysis_row_reuse_fraction"] > 0.0


class TestLazyMerge:
    """A wave merges its logbook on first read, never for the fold."""

    def test_waves_analyze_without_merging(self, world, monkeypatch):
        import repro.longitudinal.campaign as campaign_module
        from harness.equivalence import canonical_logbook_bytes
        from repro.obs.trace import drain_spans
        from repro.runtime.merge import merge_shard_results
        from repro.runtime.shards import ShardSpec

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a wave merged before its logbook was "
                                 "read")

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        drain_spans()
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1, 2, 4),
                                 **SUBSET)
        cache = row_cache_for(campaign)
        outcomes, payloads = [], []
        with monkeypatch.context() as patched:
            patched.setattr(campaign_module, "merge_shard_results", refuse)
            for outcome in campaign.waves():
                payloads.append(wave_analysis(outcome, cache=cache))
                outcomes.append(outcome)
        spans = drain_spans()
        assert not [s for s in spans if s["name"] == "wave.merge"]
        # Each delta wave's evolve span names the years it rolled.
        assert [s["attrs"].get("years") for s in spans
                if s["name"] == "wave.evolve"] == [None, [0], [1], [2, 3]]

        for outcome, payload in zip(outcomes, payloads):
            spec = ShardSpec(index=0, count=1,
                             q12_cells=tuple(outcome.digests.q12),
                             q3_blocks=tuple(outcome.digests.q3))
            collection, q3 = merge_shard_results(
                outcome.world, [spec], {0: outcome.cells}, **SUBSET)
            assert canonical_logbook_bytes(outcome.collection, outcome.q3) \
                == canonical_logbook_bytes(collection, q3)
            assert outcome.collection.plans == collection.plans
            assert outcome.collection.cbg_totals == collection.cbg_totals \
                == outcome.digests.cbg_totals
            assert outcome.collection is outcome.collection
            assert _row_bytes(payload.to_payload()) == _row_bytes(
                full_wave_analysis(outcome).to_payload())
        # The span runs where the merge does: once per wave, on first read.
        assert [s["attrs"]["wave"] for s in drain_spans()
                if s["name"] == "wave.merge"] == [0, 1, 2, 3]
