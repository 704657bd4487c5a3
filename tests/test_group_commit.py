"""Group commit: ``atomic_write_batch`` and the two stores built on it.

The panel store's cell CAS and the wave row cache publish a wave's
files as one batch — every file fsynced before its rename, one
directory barrier after the batch's last rename. These tests stage the
wrecks that design must survive (a kill at the k-th rename, an fsync
that fails), check the chunking, and prove the batched stores write
the same bytes as the per-file publish they replace, with about half
its fsyncs.
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
import repro.runtime.atomicio as atomicio
from harness.equivalence import canonical_logbook_bytes
from repro.analysis.incremental import row_cache_for, wave_analysis
from repro.longitudinal import PanelCampaign
from repro.runtime.atomicio import atomic_write_batch, atomic_write_bytes
from repro.synth.churn import ChurnModel

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))
SPARSE = ChurnModel(cell_rate=0.3)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def run_panel(world, root: Path, resume: bool = False):
    """A 3-wave panel with the store and the row cache on disk."""
    campaign = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                             store_dir=str(root / "store"), resume=resume,
                             **SUBSET)
    cache = row_cache_for(campaign, directory=root / "rows")
    outcomes = []
    for outcome in campaign.waves():
        wave_analysis(outcome, cache=cache)
        outcomes.append(outcome)
    return campaign, outcomes


@pytest.fixture(scope="module")
def reference(world, tmp_path_factory):
    """An uninterrupted panel: its directory tree and logbooks."""
    root = tmp_path_factory.mktemp("reference")
    _, outcomes = run_panel(world, root)
    return tree_bytes(root), [canonical_logbook_bytes(o.collection, o.q3)
                              for o in outcomes]


class TestBatchWriter:
    def test_fsync_failure_publishes_no_target(self, tmp_path, monkeypatch):
        kept = tmp_path / "kept.bin"
        kept.write_bytes(b"old")
        items = [(tmp_path / f"f{i}.bin", b"new %d" % i) for i in range(4)]
        items.append((kept, b"new"))

        def failing_fsync(fd):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            atomic_write_batch(items)
        assert not any(path.exists() for path, _ in items[:-1])
        assert kept.read_bytes() == b"old"

    def test_batch_beyond_one_chunk_publishes_every_file(self, tmp_path):
        count = atomicio.BATCH_OPEN_HANDLES * 2 + 5
        items = [(tmp_path / f"f{i:04d}.bin", b"payload %d" % i)
                 for i in range(count)]
        atomic_write_batch(items)
        assert tree_bytes(tmp_path) == {path.name: payload
                                        for path, payload in items}

    def test_each_chunk_syncs_before_it_renames(self, tmp_path,
                                                monkeypatch):
        """Per chunk: every file fsync, then every rename; a single
        directory barrier after the last rename."""
        events: list[str] = []
        real_fsync, real_replace = os.fsync, Path.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(self, target):
            events.append("rename")
            return real_replace(self, target)

        monkeypatch.setattr(atomicio, "BATCH_OPEN_HANDLES", 3)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        atomic_write_batch((tmp_path / f"f{i}", b"x") for i in range(7))
        chunks = [3, 3, 1]
        assert events == [event for size in chunks
                          for event in ["fsync"] * size + ["rename"] * size
                          ] + ["fsync"]
        assert len(list(tmp_path.iterdir())) == 7

    def test_repeated_path_keeps_the_last_payload(self, tmp_path):
        target = tmp_path / "twice.bin"
        atomic_write_batch([(target, b"a longer first payload"),
                            (tmp_path / "other.bin", b"other"),
                            (target, b"second")])
        assert tree_bytes(tmp_path) == {"twice.bin": b"second",
                                        "other.bin": b"other"}


class TestKilledMidBatch:
    K = 3

    def test_kth_rename_kill_leaves_targets_whole_and_resumes(
            self, world, tmp_path, monkeypatch, reference):
        """A kill at the k-th CAS rename of wave 2 (of six) leaves every
        cell file absent or whole and no wave-2 manifest; the resumed panel
        matches an uninterrupted one, and its end-of-run sweep leaves
        the CAS exactly the referenced digests."""
        reference_tree, reference_logbooks = reference
        campaign = PanelCampaign(world, model=SPARSE, horizons=(1, 2),
                                 store_dir=str(tmp_path / "store"),
                                 **SUBSET)
        store = campaign.store
        real_replace = Path.replace
        renames = []
        kill_at = self.K

        def dying_replace(tmp, target):
            target = Path(target)
            if (target.parent == store.cells_directory
                    and store.wave_path(1).exists()):
                renames.append(target)
                if len(renames) == kill_at:
                    raise KeyboardInterrupt  # the kill lands mid-batch
            return real_replace(tmp, target)

        monkeypatch.setattr(Path, "replace", dying_replace)
        with pytest.raises(KeyboardInterrupt):
            run_panel(world, tmp_path)
        monkeypatch.undo()

        assert len(renames) == self.K
        assert store.waves() == [0, 1]  # no manifest for the killed wave
        wrecked = tree_bytes(tmp_path)
        leftovers = [name for name in wrecked if ".tmp-" in name]
        assert leftovers  # the unrenamed tail, for the stale sweep
        for name, payload in wrecked.items():
            if ".tmp-" not in name:
                assert payload == reference_tree[name], name

        resumed, outcomes = run_panel(world, tmp_path, resume=True)
        assert [canonical_logbook_bytes(o.collection, o.q3)
                for o in outcomes] == reference_logbooks
        cas = {path.stem
               for path in resumed.store.cells_directory.glob("*.json")}
        assert cas == resumed.store.referenced_digests()


class TestRowCacheBatch:
    def test_row_put_during_wave_analysis_hits_later_cells(
            self, world, tmp_path):
        """Two cells of one wave sharing a digest: the second is a hit
        on the row the first just put, though nothing is on disk until
        the wave's batch — which then holds that row once."""
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
        assert [path.name for path in cache.directory.iterdir()] == [
            f"q12-{digest}.col"]

    def test_put_is_a_one_entry_batch(self, tmp_path):
        cache = incremental_module.WaveRowCache("ab" * 32,
                                                directory=tmp_path)
        cache.put("q12", "c" * 64, {"queried": 3})
        reopened = incremental_module.WaveRowCache("ab" * 32,
                                                   directory=tmp_path)
        assert reopened.lookup("q12", "c" * 64) == (True, {"queried": 3})


@pytest.mark.longitudinal
class TestBatchedStoresWriteTheSameBytes:
    def test_batched_equals_per_file_publish(self, world, tmp_path,
                                             monkeypatch, reference):
        """A 3-wave panel's store and row-cache trees are byte-identical
        whether each wave's files go out as one batch or one atomic
        publish apiece — and the batch pays at most one fsync per file
        plus one per directory per batch."""
        reference_tree, _ = reference
        real_fsync = os.fsync
        fsyncs = {"batched": 0, "per_file": 0}
        batches: list[set[Path]] = []
        side = "batched"

        def counting_fsync(fd):
            fsyncs[side] += 1
            real_fsync(fd)

        def counting_batch(items):
            items = list(items)
            batches.append({path.parent for path, _ in items})
            atomic_write_batch(items)

        def per_file(items):
            for path, payload in items:
                atomic_write_bytes(path, payload)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        for module in (store_module, incremental_module):
            monkeypatch.setattr(module, "atomic_write_batch", counting_batch)
        run_panel(world, tmp_path / "batched")
        manifests = len(reference_tree) - sum(
            1 for name in reference_tree
            if "/cells/" in name or "/rows/" in name)

        side = "per_file"
        for module in (store_module, incremental_module):
            monkeypatch.setattr(module, "atomic_write_batch", per_file)
        run_panel(world, tmp_path / "per_file")

        batched = tree_bytes(tmp_path / "batched")
        assert batched == tree_bytes(tmp_path / "per_file")
        assert batched == reference_tree
        files = len(batched)
        assert fsyncs["per_file"] == 2 * files
        assert fsyncs["batched"] <= (
            files + sum(len(dirs) for dirs in batches) + manifests)
        assert fsyncs["batched"] < fsyncs["per_file"]

    def test_cas_cells_are_canonical_json(self, reference):
        """The payload encoded once and spliced into its document still
        yields the document's canonical JSON, byte for byte."""
        reference_tree, _ = reference
        cells = {name: payload for name, payload in reference_tree.items()
                 if "/cells/" in name}
        assert cells
        for name, payload in cells.items():
            document = json.loads(payload)
            assert payload == json.dumps(
                document, sort_keys=True,
                separators=(",", ":")).encode("utf-8"), name
