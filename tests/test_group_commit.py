"""Group commit: ``atomic_write_pack`` and the two stores built on it.

The panel store's cell entries and the wave row cache's rows go out as
one pack file per wave — written as they are encoded, one fsync, one
rename, one directory barrier — and only then the wave's manifest.
These tests stage the wrecks that design must survive (a kill before
the pack's rename, a kill between the pack and the manifest, an fsync
that fails), check that the packs hold exactly the self-verifying
documents a per-file store wrote, and hold each wave to O(1) new files
and fsyncs.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.analysis.incremental as incremental_module
import repro.longitudinal.store as store_module
from harness.equivalence import canonical_logbook_bytes
from repro.analysis.incremental import row_cache_for, wave_analysis
from repro.longitudinal import PanelCampaign, PanelStore
from repro.runtime.atomicio import atomic_write_pack
from repro.synth.churn import ChurnModel
from repro.tabular.colio import MAGIC, decode_row_document

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))
SPARSE = ChurnModel(cell_rate=0.3)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def panel_campaign(world, root: Path, resume: bool = False):
    """A 3-wave panel storing its waves under ``root/store``."""
    return PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                         store_dir=str(root / "store"), resume=resume,
                         **SUBSET)


def analyzed_waves(campaign: PanelCampaign, root: Path):
    """The panel's waves, each yielded once its analysis rows are
    persisted under ``root/rows``."""
    cache = row_cache_for(campaign, directory=root / "rows")
    for outcome in campaign.waves():
        wave_analysis(outcome, cache=cache)
        yield outcome


def run_panel(world, root: Path, resume: bool = False):
    campaign = panel_campaign(world, root, resume)
    return campaign, list(analyzed_waves(campaign, root))


def manifest_locations(store: PanelStore) -> dict[str, tuple[str, int, int]]:
    """digest → (pack, offset, length) over every stored manifest."""
    located = {}
    for wave in store.waves():
        document = json.loads(store.wave_path(wave).read_text("utf-8"))
        for digest, (pack, offset, length) in document["locations"].items():
            located[digest] = (document["packs"][pack], offset, length)
    return located


def referenced_packs(store: PanelStore) -> set[str]:
    return {pack for pack, _, _ in manifest_locations(store).values()}


@pytest.fixture(scope="module")
def reference(world, tmp_path_factory):
    """An uninterrupted panel: its directory tree and logbooks."""
    root = tmp_path_factory.mktemp("reference")
    _, outcomes = run_panel(world, root)
    return tree_bytes(root), [canonical_logbook_bytes(o.collection, o.q3)
                              for o in outcomes]


class TestBatchWriter:
    def test_fsync_failure_publishes_no_target(self, tmp_path, monkeypatch):
        kept = atomic_write_pack(tmp_path, [b"old"])[0]

        def failing_fsync(fd):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            atomic_write_pack(tmp_path, (b"new %d" % i for i in range(4)))
        assert [path.name for path in tmp_path.glob("*.pack")] == [kept]
        assert (tmp_path / kept).read_bytes() == b"old"

    def test_pack_syncs_once_before_its_rename(self, tmp_path, monkeypatch):
        """Every entry is written, then one fsync, one rename and one
        directory barrier; the spans locate each entry."""
        events: list[str] = []
        real_fsync, real_replace = os.fsync, Path.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(self, target):
            events.append("rename")
            return real_replace(self, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        entries = [b"entry %d" % i * (i + 1) for i in range(7)]
        name, spans = atomic_write_pack(tmp_path, iter(entries))
        assert events == ["fsync", "rename", "fsync"]
        data = (tmp_path / name).read_bytes()
        assert [data[offset:offset + length]
                for offset, length in spans] == entries
        assert [path.name for path in tmp_path.iterdir()] == [name]

    def test_no_entries_write_no_file(self, tmp_path):
        assert atomic_write_pack(tmp_path / "packs", iter(())) is None
        assert not (tmp_path / "packs").exists()


class TestKilledMidBatch:
    K = 1

    def test_kth_rename_kill_leaves_targets_whole_and_resumes(
            self, world, tmp_path, monkeypatch, reference):
        """A kill at the k-th pack rename of wave 2 leaves its entries in
        a tmp file and no wave-2 manifest; the resumed panel matches an
        uninterrupted one, and its end-of-run sweep leaves exactly the
        referenced packs."""
        reference_tree, reference_logbooks = reference
        store = panel_campaign(world, tmp_path).store
        real_replace = Path.replace
        renames = []

        def dying_replace(tmp, target):
            target = Path(target)
            if (target.parent == store.packs_directory
                    and store.wave_path(1).exists()):
                renames.append(target)
                if len(renames) == self.K:
                    raise KeyboardInterrupt  # the kill lands mid-publish
            return real_replace(tmp, target)

        monkeypatch.setattr(Path, "replace", dying_replace)
        with pytest.raises(KeyboardInterrupt):
            run_panel(world, tmp_path)
        monkeypatch.undo()

        assert len(renames) == self.K
        assert store.waves() == [0, 1]  # no manifest for the killed wave
        wrecked = tree_bytes(tmp_path)
        leftovers = [name for name in wrecked if ".tmp-" in name]
        assert leftovers  # the unrenamed pack, for the stale sweep
        for name, payload in wrecked.items():
            if ".tmp-" not in name:
                assert payload == reference_tree[name], name

        resumed, outcomes = run_panel(world, tmp_path, resume=True)
        assert [canonical_logbook_bytes(o.collection, o.q3)
                for o in outcomes] == reference_logbooks
        packs = {path.name
                 for path in resumed.store.packs_directory.glob("*.pack")}
        assert packs == referenced_packs(resumed.store)

    def test_kill_between_pack_and_manifest_sweeps_the_orphan(
            self, world, tmp_path, monkeypatch, reference):
        """A kill after wave 2's pack is published and before its
        manifest: the sweep reclaims exactly that pack, and the resumed
        panel's tree equals an uninterrupted run's, byte for byte."""
        reference_tree, reference_logbooks = reference
        store = panel_campaign(world, tmp_path).store
        published: list[str] = []
        real_pack, real_text = store_module.atomic_write_pack, \
            store_module.atomic_write_text

        def recording_pack(directory, entries):
            result = real_pack(directory, entries)
            published.append(result[0])
            return result

        def dying_text(path, text):
            if path == store.wave_path(2):
                raise KeyboardInterrupt
            return real_text(path, text)

        monkeypatch.setattr(store_module, "atomic_write_pack",
                            recording_pack)
        monkeypatch.setattr(store_module, "atomic_write_text", dying_text)
        with pytest.raises(KeyboardInterrupt):
            run_panel(world, tmp_path)
        monkeypatch.undo()

        assert store.waves() == [0, 1]
        orphan = published[-1]
        assert orphan not in referenced_packs(store)
        assert store.sweep_unreferenced_cells() == [orphan]

        _, outcomes = run_panel(world, tmp_path, resume=True)
        assert [canonical_logbook_bytes(o.collection, o.q3)
                for o in outcomes] == reference_logbooks
        assert tree_bytes(tmp_path) == reference_tree


class TestRowCacheBatch:
    def test_row_put_during_wave_analysis_hits_later_cells(
            self, world, tmp_path):
        """Two cells of one wave sharing a digest: the second is a hit
        on the row the first just put, though nothing is on disk until
        the wave's pack — which then holds that row once."""
        outcome = PanelCampaign(world, model=SPARSE, horizons=(1,),
                                **SUBSET).run()[0]
        (first, digest), (second, _) = list(outcome.digests.q12.items())[:2]
        shared = SimpleNamespace(
            digests=dataclasses.replace(
                outcome.digests, q12={first: digest, second: digest}, q3={}),
            cells=outcome.cells, collection=outcome.collection,
            world=outcome.world)
        cache = row_cache_for(
            PanelCampaign(world, model=SPARSE, horizons=(1,), **SUBSET),
            directory=tmp_path)
        wave_analysis(shared, cache=cache)
        assert (cache.misses, cache.hits) == (1, 1)
        [pack] = list(cache.directory.iterdir())
        entries = pack.read_bytes().split(MAGIC)[1:]
        assert [(meta["kind"], meta["digest"]) for meta, _ in
                (decode_row_document(MAGIC + entry) for entry in entries)
                ] == [("q12", digest)]

    def test_put_is_a_one_entry_batch(self, tmp_path):
        cache = incremental_module.WaveRowCache("ab" * 32,
                                                directory=tmp_path)
        cache.put("q12", "c" * 64, {"queried": 3})
        reopened = incremental_module.WaveRowCache("ab" * 32,
                                                   directory=tmp_path)
        assert reopened.lookup("q12", "c" * 64) == (True, {"queried": 3})


class TestOnePackPerWave:
    def test_each_wave_adds_at_most_three_files(self, world, tmp_path,
                                                monkeypatch):
        """Every wave, the snapshot included, adds at most its cell pack,
        its row pack and its manifest, and pays a constant number of
        fsyncs — however many cells it re-queried."""
        real_fsync = os.fsync
        fsyncs = [0]

        def counting_fsync(fd):
            fsyncs[0] += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        before, synced = set(), 0
        fresh = []
        for outcome in analyzed_waves(panel_campaign(world, tmp_path),
                                      tmp_path):
            files = {path for path in tmp_path.rglob("*") if path.is_file()}
            assert len(files - before) <= 3, sorted(files - before)
            assert fsyncs[0] - synced <= 6
            before, synced = files, fsyncs[0]
            fresh.append(outcome.fresh_q12 + outcome.fresh_q3)
        assert fresh[0] > 3 and all(fresh)


@pytest.mark.longitudinal
class TestBatchedStoresWriteTheSameBytes:
    def test_batched_equals_per_file_publish(self, world, tmp_path,
                                             monkeypatch, reference):
        """Each entry a manifest locates is, byte for byte, the cell
        document a per-file publish wrote for that digest; the tree is
        deterministic, and every published file costs two fsyncs (its
        own and its directory's)."""
        reference_tree, _ = reference
        real_fsync = os.fsync
        fsyncs = [0]

        def counting_fsync(fd):
            fsyncs[0] += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        campaign, outcomes = run_panel(world, tmp_path)
        tree = tree_bytes(tmp_path)
        assert tree == reference_tree
        assert fsyncs[0] == 2 * len(tree)

        store = campaign.store
        located = manifest_locations(store)
        cells = {}
        for outcome in outcomes:
            cells.update({digest: ("q12", cell, outcome)
                          for cell, digest in outcome.digests.q12.items()})
            cells.update({digest: ("q3", block, outcome)
                          for block, digest in outcome.digests.q3.items()})
        assert set(located) == set(cells)
        for digest, (pack, offset, length) in located.items():
            kind, key, outcome = cells[digest]
            entry = (store_module._q12_entry(
                key, outcome.cells.q12_records[key]) if kind == "q12"
                else store_module._q3_entry(
                    key, outcome.cells.q3_outcomes[key]))
            document = store._cell_document(digest, {"kind": kind, **entry})
            raw = store.pack_path(pack).read_bytes()
            assert raw[offset:offset + length] == document, digest

    def test_cas_cells_are_canonical_json(self, world, tmp_path):
        """The payload encoded once and spliced into its entry still
        yields the entry's canonical JSON, byte for byte."""
        campaign, _ = run_panel(world, tmp_path)
        store = campaign.store
        located = manifest_locations(store)
        assert located
        for digest, (pack, offset, length) in located.items():
            payload = store.pack_path(pack).read_bytes()[
                offset:offset + length]
            document = json.loads(payload)
            assert document["digest"] == digest
            assert payload == json.dumps(
                document, sort_keys=True,
                separators=(",", ":")).encode("utf-8"), digest
