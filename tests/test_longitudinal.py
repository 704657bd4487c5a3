"""Tests for repro.longitudinal — panels, digests, delta planning.

The replay-equivalence scenarios (incremental wave == from-scratch
re-collection, byte for byte) live in tests/test_equivalence_harness.py
with the backend matrix; this file covers the subsystem's own
mechanics: digest stability, delta planning, fold/merge conservation,
wave resume (checkpoints and the panel store), and the wave-scenario
recipe fresh-interpreter workers rebuild evolved worlds from.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.runtime.executor as executor_module
from harness.equivalence import canonical_logbook_bytes
from repro.longitudinal import (
    PanelCampaign,
    PanelStore,
    compute_wave_digests,
    diff_digests,
)
from repro.runtime import RuntimeConfig, execute_campaign
from repro.runtime.distributed import _scenario_from_json
from repro.synth.churn import ChurnModel, WaveScenario, churned_world
from repro.synth.scenario import ScenarioConfig

pytestmark = pytest.mark.longitudinal

# One ISP's footprint in two states plus one Q3 state: the same shape
# the backend-equivalence matrix uses — small enough for many panels.
SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))

SPARSE = ChurnModel(cell_rate=0.3)


@pytest.fixture(scope="module")
def panel_outcomes(world):
    """One shared incremental panel over the session world."""
    return PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                         **SUBSET).run()


class TestWaveDigests:
    def test_recompute_is_stable(self, world):
        first = compute_wave_digests(world, **SUBSET)
        second = compute_wave_digests(world, **SUBSET)
        assert first.q12 == second.q12
        assert first.q3 == second.q3
        assert first.total_cells > 0

    def test_zero_churn_preserves_every_digest(self, world):
        frozen = ChurnModel(upgrade_rate=0.0, new_deployment_rate=0.0,
                            retirement_rate=0.0)
        evolved = churned_world(world, years=3, model=frozen)
        assert compute_wave_digests(evolved, **SUBSET).q12 == \
            compute_wave_digests(world, **SUBSET).q12

    def test_zero_cell_rate_preserves_every_digest(self, world):
        evolved = churned_world(world, years=3,
                                model=ChurnModel(cell_rate=0.0))
        base = compute_wave_digests(world, **SUBSET)
        after = compute_wave_digests(evolved, **SUBSET)
        assert base.q12 == after.q12
        assert base.q3 == after.q3

    def test_unchanged_cells_keep_digests_under_sparse_churn(self, world):
        """Digest stability is cell-local: churn elsewhere must not
        move an untouched cell's digest."""
        evolved = churned_world(world, years=1, model=SPARSE)
        base = compute_wave_digests(world, **SUBSET)
        after = compute_wave_digests(evolved, **SUBSET)
        delta = diff_digests(base, after)
        unchanged = set(base.q12) - set(delta.changed_q12)
        assert unchanged, "sparse churn should leave some cells alone"
        for cell in unchanged:
            assert base.q12[cell] == after.q12[cell]

    def test_aggressive_churn_moves_digests(self, world):
        evolved = churned_world(
            world, years=2,
            model=ChurnModel(upgrade_rate=0.9, cell_rate=1.0))
        delta = diff_digests(compute_wave_digests(world, **SUBSET),
                             compute_wave_digests(evolved, **SUBSET))
        assert len(delta.changed_q12) > 0
        assert delta.requery_fraction > 0.5

    def test_diff_against_nothing_changes_everything(self, world):
        digests = compute_wave_digests(world, **SUBSET)
        delta = diff_digests(None, digests)
        assert len(delta.changed_q12) == delta.total_q12
        assert len(delta.changed_q3) == delta.total_q3
        assert delta.requery_fraction == 1.0


class TestPanelCampaign:
    def test_wave_zero_matches_direct_campaign(self, world, panel_outcomes):
        from repro.core.collection import (
            CollectionCampaign,
            collect_q3_dataset,
        )

        snapshot = panel_outcomes[0]
        collection = CollectionCampaign(world).run(
            isps=SUBSET["isps"], states=SUBSET["states"])
        q3 = collect_q3_dataset(world, states=SUBSET["q3_states"])
        assert canonical_logbook_bytes(snapshot.collection, snapshot.q3) \
            == canonical_logbook_bytes(collection, q3)

    def test_accounting_conserves_cells(self, panel_outcomes):
        for outcome in panel_outcomes:
            assert (outcome.fresh_q12 + outcome.replayed_q12
                    == outcome.delta.total_q12)
            assert (outcome.fresh_q3 + outcome.replayed_q3
                    == outcome.delta.total_q3)
        assert panel_outcomes[0].reuse_fraction == 0.0

    def test_sparse_churn_actually_replays(self, panel_outcomes):
        assert sum(o.replayed_q12 + o.replayed_q3
                   for o in panel_outcomes[1:]) > 0

    def test_zero_churn_waves_replay_everything(self, world):
        frozen = ChurnModel(cell_rate=0.0)
        outcomes = PanelCampaign(world, model=frozen, horizons=(1, 2),
                                 **SUBSET).run()
        snapshot_bytes = canonical_logbook_bytes(
            outcomes[0].collection, outcomes[0].q3)
        for outcome in outcomes[1:]:
            assert outcome.fresh_q12 == outcome.fresh_q3 == 0
            assert outcome.reuse_fraction == 1.0
            assert canonical_logbook_bytes(
                outcome.collection, outcome.q3) == snapshot_bytes

    def test_horizon_validation(self, world):
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=())
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=(0, 1))
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=(2, 1))
        with pytest.raises(ValueError):
            PanelCampaign(world, horizons=(1, 1))
        with pytest.raises(ValueError, match="resume"):
            PanelCampaign(world, horizons=(1,), resume=True)

    def test_determinism_across_runs(self, world, panel_outcomes):
        again = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                              **SUBSET).run()
        for first, second in zip(panel_outcomes, again):
            assert canonical_logbook_bytes(first.collection, first.q3) \
                == canonical_logbook_bytes(second.collection, second.q3)
            assert first.delta == second.delta


class TestWaveResume:
    def _bytes(self, outcomes):
        return [canonical_logbook_bytes(o.collection, o.q3)
                for o in outcomes]

    def test_checkpointed_waves_resume_without_queries(
            self, world, tmp_path, monkeypatch):
        runtime = RuntimeConfig(backend="serial", shards=2,
                                checkpoint_dir=str(tmp_path / "ckpt"))
        reference = self._bytes(PanelCampaign(
            world, model=SPARSE, horizons=(1, 2), runtime=runtime,
            **SUBSET).run())

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-queried a checkpointed shard")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        resumed = RuntimeConfig(backend="serial", shards=2,
                                checkpoint_dir=str(tmp_path / "ckpt"),
                                resume=True)
        outcomes = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                                 runtime=resumed, **SUBSET).run()
        assert self._bytes(outcomes) == reference

    def test_panel_store_resume_replays_waves(
            self, world, tmp_path, monkeypatch):
        store_dir = str(tmp_path / "panel")
        reference = self._bytes(PanelCampaign(
            world, model=SPARSE, horizons=(1, 2), store_dir=store_dir,
            **SUBSET).run())

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("store resume re-queried a wave")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                                 store_dir=store_dir, resume=True,
                                 **SUBSET)
        outcomes = campaign.run()
        assert self._bytes(outcomes) == reference
        assert all(o.restored_from_store for o in outcomes)
        assert campaign.store.waves() == [0, 1, 2]

    def test_damaged_store_wave_recomputes(self, world, tmp_path):
        store_dir = str(tmp_path / "panel")
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 store_dir=store_dir, **SUBSET)
        reference = self._bytes(campaign.run())
        # Truncate wave 1 mid-document: resume must fall back to
        # recomputing it (and still match), never crash or mis-replay.
        path = campaign.store.wave_path(1)
        path.write_text(path.read_text(encoding="utf-8")[:100],
                        encoding="utf-8")
        outcomes = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 store_dir=store_dir, resume=True,
                                 **SUBSET).run()
        assert self._bytes(outcomes) == reference
        assert outcomes[0].restored_from_store
        assert not outcomes[1].restored_from_store

    def test_store_rejects_foreign_fingerprint(self, world, tmp_path):
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                 store_dir=str(tmp_path), **SUBSET)
        campaign.run()
        foreign = PanelStore(tmp_path, "deadbeef" * 8)
        assert foreign.load_wave(0) is None


class TestPanelStoreCAS:
    """The format-3 store: one cell pack per wave + thin manifests."""

    def _run(self, world, tmp_path, horizons=(1, 2), resume=False):
        return PanelCampaign(world, model=SPARSE, horizons=horizons,
                             store_dir=str(tmp_path / "panel"),
                             resume=resume, **SUBSET)

    @staticmethod
    def _manifest(store, wave):
        return json.loads(store.wave_path(wave).read_text("utf-8"))

    def _located(self, store, wave):
        """One wave's digest → (pack, offset, length)."""
        document = self._manifest(store, wave)
        return {digest: (document["packs"][pack], offset, length)
                for digest, (pack, offset, length)
                in document["locations"].items()}

    @staticmethod
    def _pack_digests(store):
        """The digest of every entry in every pack, in file order."""
        decoder = json.JSONDecoder()
        digests = []
        for path in sorted(store.packs_directory.glob("*.pack")):
            text, position = path.read_text("utf-8"), 0
            while position < len(text):
                document, position = decoder.raw_decode(text, position)
                digests.append(document["digest"])
        return digests

    def _referenced_packs(self, store):
        return {pack for wave in store.waves()
                for pack, _, _ in self._located(store, wave).values()}

    def test_unchanged_cells_stored_once_per_digest(self, world, tmp_path):
        """The storage analogue of delta collection: pack entries number
        distinct digests (snapshot cells + churned generations), not
        waves x cells — one pack per wave, and every entry referenced."""
        campaign = self._run(world, tmp_path)
        outcomes = campaign.run()
        store = campaign.store
        total = outcomes[0].delta.total_q12 + outcomes[0].delta.total_q3
        churned = sum(o.fresh_q12 + o.fresh_q3 for o in outcomes[1:])
        stored = self._pack_digests(store)
        assert len(stored) == len(set(stored))
        assert len(stored) <= total + churned
        assert len(stored) < len(outcomes) * total, (
            "packs stored cells once per wave — no cross-wave sharing")
        assert set(stored) == {digest for wave in store.waves()
                               for digest in self._located(store, wave)}
        assert len(list(store.packs_directory.glob("*.pack"))) == len(
            outcomes)

    @pytest.mark.parametrize("resume", (False, True),
                             ids=("published", "loaded"))
    def test_a_wave_probes_only_digests_its_prior_lacked(
            self, world, tmp_path, monkeypatch, resume):
        """A delta wave writes entries only for digests no earlier wave
        of the run published or loaded — O(churn) entries, located
        through the manifests without a probe of the disk per digest."""
        if resume:
            # Waves 0-1 stay stored: they load, and wave 2 saves.
            stored = self._run(world, tmp_path)
            stored.run()
            stored.store.wave_path(2).unlink()
        # One list per save_wave call.
        written: list[list[str]] = []
        document, save_wave = PanelStore._cell_document, PanelStore.save_wave

        def writing(store, digest, payload):
            written[-1].append(digest)
            return document(store, digest, payload)

        def saving(store, *args, **kwargs):
            written.append([])
            return save_wave(store, *args, **kwargs)

        monkeypatch.setattr(PanelStore, "_cell_document", writing)
        monkeypatch.setattr(PanelStore, "save_wave", saving)
        outcomes = self._run(world, tmp_path, resume=resume).run()
        saved = [o for o in outcomes if not o.restored_from_store]
        assert [o.wave for o in saved] == ([2] if resume else [0, 1, 2])
        assert len(written) == len(saved)
        for outcome, digests in zip(saved, written):
            wave = set(outcome.digests.q12.values()) | set(
                outcome.digests.q3.values())
            earlier = {digest for prior in outcomes[:outcome.wave]
                       for digest in (*prior.digests.q12.values(),
                                      *prior.digests.q3.values())}
            assert sorted(digests) == sorted(wave - earlier)
        assert 0 < len(written[-1]) < saved[-1].digests.total_cells

    def test_sweep_reclaims_only_orphans(self, world, tmp_path):
        campaign = self._run(world, tmp_path)
        campaign.run()
        store = campaign.store
        # Nothing referenced may be reclaimed...
        assert store.sweep_unreferenced_cells() == []
        # ...while an orphan (e.g. a crash between the pack publish and
        # the manifest write) is.
        orphan = "f" * 64 + ".pack"
        store.pack_path(orphan).write_text("{}", encoding="utf-8")
        assert store.sweep_unreferenced_cells() == [orphan]

    def test_sweep_is_safe_under_resume(self, world, tmp_path,
                                        monkeypatch):
        """A sweep between runs must never strand a wave a later
        ``--resume`` will load: after sweeping, every wave still
        restores from the store without a single query."""
        campaign = self._run(world, tmp_path)
        reference = [canonical_logbook_bytes(o.collection, o.q3)
                     for o in campaign.run()]
        campaign.store.sweep_unreferenced_cells()

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume re-queried after a sweep")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        resumed = self._run(world, tmp_path, resume=True)
        outcomes = resumed.run()
        assert [canonical_logbook_bytes(o.collection, o.q3)
                for o in outcomes] == reference
        assert all(o.restored_from_store for o in outcomes)

    def test_crash_orphans_reclaimed_by_end_of_run_sweep(
            self, world, tmp_path):
        """A crash between publishing a wave's pack and its manifest
        leaves an orphaned pack; the next completed run's end-of-panel
        sweep reclaims it (and a healthy store sweeps nothing — packs
        on disk and packs referenced coincide exactly)."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        packs = {p.name for p in store.packs_directory.glob("*.pack")}
        assert packs == self._referenced_packs(store)
        # Simulate the crash: orphan packs with no manifest.
        orphans = {"a" * 64 + ".pack", "b" * 64 + ".pack"}
        for name in orphans:
            store.pack_path(name).write_text("{}", encoding="utf-8")
        rerun = self._run(world, tmp_path, horizons=(1,), resume=True)
        rerun.run()
        remaining = {p.name for p in store.packs_directory.glob("*.pack")}
        assert remaining == self._referenced_packs(store)
        assert not (orphans & remaining)

    def test_different_horizons_use_disjoint_panel_directories(
            self, world, tmp_path):
        """Horizons feed the panel fingerprint, so panels at different
        horizons can never share (or sweep) each other's packs."""
        one = self._run(world, tmp_path, horizons=(1,))
        two = self._run(world, tmp_path, horizons=(1, 2))
        assert one.fingerprint != two.fingerprint
        assert (one.store.panel_directory
                != two.store.panel_directory)

    def test_missing_cas_entry_makes_the_wave_a_miss(self, world,
                                                     tmp_path):
        """A missing pack makes exactly the waves that locate entries in
        it a miss; a resumed panel recomputes them and heals the
        store."""
        campaign = self._run(world, tmp_path)
        campaign.run()
        store = campaign.store
        victim = self._located(store, 1)[
            next(iter(set(self._located(store, 1))
                      - set(self._located(store, 0))))][0]
        store.pack_path(victim).unlink()
        reader = PanelStore(store.directory, store.fingerprint)
        affected = [wave for wave in store.waves()
                    if reader.load_wave(wave) is None]
        assert affected == [wave for wave in store.waves()
                            if victim in {pack for pack, _, _ in
                                          self._located(store, wave).values()}]
        assert 0 not in affected
        self._run(world, tmp_path, resume=True).run()
        assert all(reader.load_wave(wave) is not None
                   for wave in store.waves())

    @pytest.mark.parametrize("damage", ("flip", "truncate"))
    def test_damaged_entry_misses_only_its_waves_and_heals(
            self, world, tmp_path, monkeypatch, damage):
        """A flipped byte or a truncated tail inside one entry makes only
        the waves that reference that entry miss; the resumed panel
        recomputes the first of them (whose republished pack restores
        the entry), and the next resume loads every wave with no
        re-query."""
        campaign = self._run(world, tmp_path)
        reference = [canonical_logbook_bytes(o.collection, o.q3)
                     for o in campaign.run()]
        store = campaign.store
        located = self._located(store, 1)
        pack = self._located(store, 1)[
            next(iter(set(located) - set(self._located(store, 0))))][0]
        # The pack's last entry: the tail a torn write would cut.
        victim, (_, offset, length) = max(
            ((digest, location) for digest, location in located.items()
             if location[0] == pack), key=lambda item: item[1][1])
        path = store.pack_path(pack)
        data = bytearray(path.read_bytes())
        if damage == "flip":
            data[offset + length // 2] ^= 0x01
        else:
            del data[offset + length - 5:]
        path.write_bytes(bytes(data))

        referencing = [wave for wave in store.waves()
                       if victim in self._located(store, wave)]
        assert referencing and 0 not in referencing
        reader = PanelStore(store.directory, store.fingerprint)
        assert [wave for wave in store.waves()
                if reader.load_wave(wave) is None] == referencing
        assert reader.cell(victim) is None

        healed = self._run(world, tmp_path, resume=True).run()
        recomputed = [o.wave for o in healed if not o.restored_from_store]
        assert recomputed and recomputed[0] == referencing[0]
        assert set(recomputed) <= set(referencing)
        assert [canonical_logbook_bytes(o.collection, o.q3)
                for o in healed] == reference

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("the healed store re-queried a wave")

        monkeypatch.setattr(executor_module, "run_shard", refuse)
        again = self._run(world, tmp_path, resume=True).run()
        assert all(o.restored_from_store for o in again)
        assert PanelStore(store.directory,
                          store.fingerprint).cell(victim) is not None

    def test_tampered_cell_payload_rejected_and_healed(self, world,
                                                       tmp_path):
        """An entry rewritten in place with a tampered payload fails its
        checksum: a miss, never loaded, and never unlinked — the store
        forgets the location, and the resumed run's republished pack
        and manifest heal every wave."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        located = self._located(store, 0)
        victim, (pack, offset, length) = next(iter(located.items()))
        path = store.pack_path(pack)
        data = path.read_bytes()
        document = json.loads(data[offset:offset + length])
        document["payload"]["tampered"] = True
        path.write_bytes(data[:offset]
                         + json.dumps(document).encode("utf-8")
                         + data[offset + length:])
        assert store.cell(victim) is None
        assert store.load_wave(0) is None
        assert path.exists()  # a miss, not a deletion

        # The resumed run recomputes the affected wave(s) and heals
        # the store: the entry is republished and every wave loads.
        self._run(world, tmp_path, horizons=(1,), resume=True).run()
        reader = PanelStore(store.directory, store.fingerprint)
        assert reader.cell(victim) is not None
        assert all(reader.load_wave(wave) is not None
                   for wave in store.waves())

    def test_entry_serving_the_wrong_cell_is_rewritten(self, world,
                                                       tmp_path):
        """An intact entry whose payload is another cell's — manifest/
        pack skew — makes its waves miss; the recompute writes the
        digest afresh, the republished manifest points at the good
        copy, and the end-of-run sweep drops the skewed pack."""
        from repro.runtime.cache import content_digest

        campaign = self._run(world, tmp_path)
        campaign.run()
        store = campaign.store
        refs = self._manifest(store, 0)["cells"]["q12"]
        victim = refs[0]
        other = next(ref for ref in refs if ref[:3] != victim[:3])
        payload = store.cell(other[-1])
        skewed = store._cell_document(victim[-1], payload)
        skewed_pack = "c" * 64 + ".pack"
        store.pack_path(skewed_pack).write_bytes(skewed)
        for wave in store.waves():
            document = self._manifest(store, wave)
            if victim[-1] not in document["locations"]:
                continue
            document["packs"].append(skewed_pack)
            document["locations"][victim[-1]] = [
                len(document["packs"]) - 1, 0, len(skewed)]
            document["index_sha256"] = content_digest(
                {key: document[key]
                 for key in ("cells", "packs", "locations")})
            store.wave_path(wave).write_text(json.dumps(document),
                                             encoding="utf-8")
        reader = PanelStore(store.directory, store.fingerprint)
        assert reader.load_wave(0) is None

        self._run(world, tmp_path, resume=True).run()
        reader = PanelStore(store.directory, store.fingerprint)
        assert all(reader.load_wave(wave) is not None
                   for wave in store.waves())
        healed = reader.cell(victim[-1])
        assert (healed["isp_id"], healed["state"], healed["cbg"]) == tuple(
            victim[:3])
        assert not store.pack_path(skewed_pack).exists()

    def test_rollback_never_unlinks_newer_format_entries(
            self, world, tmp_path):
        """An entry claiming a *future* format is a plain miss, and no
        load deletes anything: rolling back a binary must not destroy
        the newer store it cannot read. Older layouts are misses that
        are kept too."""
        import hashlib

        from repro.runtime.checkpoint import _shard_to_json

        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        cell_payload = json.dumps(_shard_to_json(store.load_wave(0)[0]),
                                  sort_keys=True, separators=(",", ":"))
        located = self._located(store, 0)
        victim, (pack, offset, length) = next(iter(located.items()))
        path = store.pack_path(pack)
        data = path.read_bytes()
        document = json.loads(data[offset:offset + length])
        document["format"] = 99
        future = json.dumps(document, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
        path.write_bytes(data[:offset] + future + data[offset + length:])
        assert PanelStore(store.directory,
                          store.fingerprint).cell(victim) is None
        assert store.load_wave(0) is None
        assert path.exists()
        # A format-2 per-cell file and an older wave document — format
        # 1 embedded the whole wave as one double-encoded JSON string —
        # are misses that neither a load nor the sweep touches.
        legacy_cell = store.panel_directory / "cells" / f"{victim}.json"
        legacy_cell.parent.mkdir()
        legacy_cell.write_text("{}", encoding="utf-8")
        v1_document = json.dumps({
            "format": 1, "fingerprint": store.fingerprint, "wave": 0,
            "horizon_years": 0, "counts": {},
            "cells_sha256": hashlib.sha256(
                cell_payload.encode("utf-8")).hexdigest(),
            "cells": cell_payload,
        }, sort_keys=True)
        store.wave_path(0).write_text(v1_document, encoding="utf-8")
        assert store.load_wave(0) is None
        store.sweep_unreferenced_cells()
        assert store.wave_path(0).read_text("utf-8") == v1_document
        assert legacy_cell.read_text("utf-8") == "{}"

    def test_v2_document_is_not_double_encoded(self, world, tmp_path):
        """Manifests and pack entries store nested JSON objects, not
        pre-serialized strings, and one checksum covers a manifest's
        references and their locations."""
        campaign = self._run(world, tmp_path, horizons=(1,))
        campaign.run()
        store = campaign.store
        document = self._manifest(store, 0)
        assert document["format"] == 3
        assert isinstance(document["cells"], dict)
        from repro.runtime.cache import content_digest

        assert document["index_sha256"] == content_digest(
            {key: document[key] for key in ("cells", "packs", "locations")})
        digest = document["cells"]["q12"][0][-1]
        pack, offset, length = self._located(store, 0)[digest]
        cell = json.loads(store.pack_path(pack).read_bytes()[
            offset:offset + length])
        assert isinstance(cell["payload"], dict)
        assert cell["payload_sha256"] == content_digest(cell["payload"])


class TestWaveScenario:
    def test_realize_matches_direct_evolution(self, world, tiny_config):
        scenario = WaveScenario(base=tiny_config, years=2, model=SPARSE)
        realized = scenario.realize()
        direct = churned_world(world, years=2, model=SPARSE)
        assert compute_wave_digests(realized, **SUBSET).q12 == \
            compute_wave_digests(direct, **SUBSET).q12

    def test_realized_world_reproduces_the_wave_campaign(
            self, world, tiny_config, monkeypatch):
        """The executor's cache-miss path — what a worker in a fresh
        interpreter runs — realizes the recipe into a world whose
        campaign is byte-equal to the evolved wave world's."""
        scenario = WaveScenario(base=tiny_config, years=2, model=SPARSE)
        monkeypatch.setattr(executor_module, "_WORLD_CACHE", {})
        realized = executor_module._world_for(scenario)
        evolved = churned_world(world, years=2, model=SPARSE)
        config = RuntimeConfig(shards=2, backend="serial")
        assert canonical_logbook_bytes(
            *execute_campaign(realized, config, **SUBSET)) == \
            canonical_logbook_bytes(
                *execute_campaign(evolved, config, **SUBSET))

    def test_wire_codec_roundtrip(self, tiny_config):
        scenario = WaveScenario(base=tiny_config, years=3,
                                model=ChurnModel(cell_rate=0.25))
        decoded = _scenario_from_json(json.loads(
            json.dumps(asdict(scenario), sort_keys=True)))
        assert decoded == scenario

    def test_plain_scenario_codec_still_works(self, tiny_config):
        decoded = _scenario_from_json(json.loads(
            json.dumps(asdict(tiny_config), sort_keys=True)))
        assert decoded == tiny_config

    def test_negative_years_raise(self, tiny_config):
        with pytest.raises(ValueError):
            WaveScenario(base=tiny_config, years=-1)

    def test_passthrough_properties(self, tiny_config):
        scenario = WaveScenario(base=tiny_config, years=1)
        assert scenario.seed == tiny_config.seed
        assert scenario.states == tiny_config.states
        assert scenario.q3_states == tiny_config.q3_states


class TestProcessBackendRealizesWaves:
    def test_process_delta_matches_serial(self, world):
        """Process-pool workers inherit the coordinator's evolved wave
        world — their records must match the in-process serial path
        byte for byte. (Workers in a fresh interpreter realize the
        WaveScenario recipe instead; TestWaveScenario covers that.)"""
        serial = PanelCampaign(world, model=SPARSE, horizons=(1,),
                               **SUBSET).run()
        pooled = PanelCampaign(
            world, model=SPARSE, horizons=(1,),
            runtime=RuntimeConfig(backend="process", shards=2, workers=2),
            **SUBSET).run()
        for left, right in zip(serial, pooled):
            assert canonical_logbook_bytes(left.collection, left.q3) \
                == canonical_logbook_bytes(right.collection, right.q3)


class TestPanelExperiment:
    def test_trajectory_and_attribution(self, context):
        from repro.analysis.panel import run as run_panel

        result = run_panel(context, waves=2)
        trajectory = result.tables["trajectory"]
        assert len(trajectory) == 3
        assert trajectory.row(0)["years_after_snapshot"] == 0
        assert trajectory.row(0)["reuse_fraction"] == 0.0
        assert result.scalars["mean_wave_reuse_fraction"] > 0.0
        assert result.scalars["staleness_half_life_years"] > 0.0
        attribution = result.tables["churn_attribution"]
        assert len(attribution) > 0

    def test_waves_validation(self, context):
        from repro.analysis.panel import run as run_panel

        with pytest.raises(ValueError):
            run_panel(context, waves=0)
