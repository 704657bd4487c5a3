"""Kill-mid-write crash tests for the checkpoint store.

With the distributed backend, checkpoints are what survive a machine
failure — so the store must stay readable whatever instruction the
writer died on. Each test here stages one concrete wreck (truncated
shard file, orphaned tmp file, a rename that never happened,
parseable bit rot, another campaign's or an older layout's files) and
asserts that ``load_completed`` recovers every intact shard instead
of silently discarding work, that every shard record is verified on
load, and that campaigns sharing a checkpoint root cannot destroy
each other.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.runtime import (
    CheckpointStore,
    campaign_fingerprint,
    plan_shards,
    run_shard,
)
from repro.runtime.cache import canonical_json
from repro.runtime.checkpoint import (
    _shard_to_json,
    shard_record,
    verified_shard,
)
from repro.service.journal import Journal, service_fingerprint

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))


@pytest.fixture(scope="module")
def two_shards(world):
    """Two completed shards of the subset campaign, plus fingerprint."""
    specs = plan_shards(world, 2, **SUBSET)
    results = [run_shard(world.config, spec, world=world) for spec in specs]
    fingerprint = campaign_fingerprint(world.config, None, SUBSET["isps"], 2)
    return results, fingerprint


def record_key(record):
    return (record.isp_id, record.address_id, record.block_geoid,
            record.status, record.plans, record.error_category,
            record.attempts, record.elapsed_seconds, record.replacement_for)


class TestTruncatedShardFile:
    def test_truncated_shard_skipped_others_survive(
            self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        path = store.shard_path(1)
        path.write_text(path.read_text(encoding="utf-8")[:50],
                        encoding="utf-8")
        assert set(store.load_completed()) == {0}

    def test_truncated_shard_and_manifest_together(
            self, two_shards, tmp_path):
        """The worst wreck: manifest torn AND one shard torn — the
        rebuild must keep exactly the shards that still parse."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        for result in results:
            store.save_shard(result)
        shard = store.shard_path(0)
        shard.write_text(shard.read_text(encoding="utf-8")[:50],
                         encoding="utf-8")
        (store.campaign_directory / "checkpoint.json").write_text(
            "{not json", encoding="utf-8")
        assert set(store.load_completed()) == {1}


class TestPartialTmpFiles:
    def test_leftover_tmp_never_loaded(self, two_shards, tmp_path):
        """A writer killed before its rename leaves a ``*.tmp-<pid>``
        file; it must be invisible to resume."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        partial = (store.campaign_directory
                   / "shard-0001.json.tmp-99999")
        partial.write_text('{"index": 1, "count"', encoding="utf-8")
        assert set(store.load_completed()) == {0}

    def test_stale_tmp_swept_fresh_tmp_kept(self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        stale = store.campaign_directory / "shard-0001.json.tmp-99999"
        stale.write_text("orphaned by a crashed writer", encoding="utf-8")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = store.campaign_directory / "checkpoint.json.tmp-11111"
        fresh.write_text("a live writer's in-progress file",
                         encoding="utf-8")
        store.save_shard(results[1])
        assert not stale.exists()  # crash leak reclaimed
        assert fresh.exists()      # concurrent writer untouched

    def test_writes_publish_by_rename(self, two_shards, tmp_path,
                                      monkeypatch):
        """If the writer dies between writing the tmp file and the
        rename, the shard's previously published state is the one on
        disk — no torn state, only old state — and the other shards
        still load."""
        from pathlib import Path

        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        original_replace = Path.replace

        def dying_replace(self, target):
            if target.name == "shard-0001.json":
                raise KeyboardInterrupt  # the kill lands mid-publish
            return original_replace(self, target)

        monkeypatch.setattr(Path, "replace", dying_replace)
        with pytest.raises(KeyboardInterrupt):
            store.save_shard(results[1])
        monkeypatch.undo()
        # A first publish that died leaves no shard file at all.
        assert not store.shard_path(1).exists()
        assert set(store.load_completed()) == {0}

        store.save_shard(results[1])
        before = store.shard_path(1).read_bytes()
        monkeypatch.setattr(Path, "replace", dying_replace)
        with pytest.raises(KeyboardInterrupt):
            store.save_shard(results[1])
        monkeypatch.undo()
        # A re-publish that died leaves the old file, not a torn one.
        assert store.shard_path(1).read_bytes() == before
        assert set(store.load_completed()) == {0, 1}


class TestChecksumAuthority:
    def test_listed_file_failing_checksum_is_recomputed(
            self, two_shards, tmp_path):
        """Every shard file is verified against its own
        ``shard_sha256``: parseable damage inside the shard payload
        (bit rot that stays valid JSON and leaves the header intact)
        is skipped and recomputed rather than silently merged —
        integrity beats stale-record recovery."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        store.save_shard(results[1])
        path = store.shard_path(0)
        # Parseable damage: perturb one digit of a record value inside
        # the shard payload.
        text = path.read_text(encoding="utf-8")
        key = '"elapsed_seconds":'
        at = text.index(key, text.index('"shard":{')) + len(key)
        digit = "3" if text[at] == "2" else "2"
        damaged = text[:at] + digit + text[at + 1:]
        original, rotted = json.loads(text), json.loads(damaged)
        assert rotted["shard"] != original["shard"]
        assert ({k: v for k, v in rotted.items() if k != "shard"}
                == {k: v for k, v in original.items() if k != "shard"})
        path.write_text(damaged, encoding="utf-8")
        assert set(store.load_completed()) == {1}
        assert path.exists()  # a miss, never deleted
        # Re-saving the recomputed shard replaces the damaged file.
        store.save_shard(results[0])
        assert set(store.load_completed()) == {0, 1}


class TestOneShardRecord:
    def test_checkpoint_file_and_journal_event_share_one_record(
            self, two_shards, tmp_path):
        """A checkpoint file and the journal's ``shard-completed``
        event carry the same self-verifying record, and one verifier
        rejects tampering in either."""
        results, fingerprint = two_shards
        result = results[0]
        store = CheckpointStore(tmp_path / "checkpoints", fingerprint)
        store.save_shard(result)
        journal_root = tmp_path / "journal"
        journal = Journal(journal_root, service_fingerprint("record"))
        journal.append({"kind": "shard-completed", "job": "job-a",
                        **shard_record(fingerprint, result)})
        journal.close()
        event = Journal(journal_root,
                        service_fingerprint("record")).entries()[0].event

        text = store.shard_path(0).read_text("utf-8")
        assert text == canonical_json(shard_record(fingerprint, result))
        on_disk = json.loads(text)
        assert on_disk["shard"] == event["shard"]
        assert on_disk["shard_sha256"] == event["shard_sha256"]
        for record in (on_disk, event):
            decoded = verified_shard(record, fingerprint)
            assert _shard_to_json(decoded) == _shard_to_json(result)
            assert verified_shard(record, "deadbeef" * 8) is None
            tampered = json.loads(json.dumps(record))
            tampered["shard"]["count"] += 1
            assert verified_shard(tampered, fingerprint) is None
            reindexed = dict(record, index=record["index"] + 1)
            assert verified_shard(reindexed, fingerprint) is None

        # Both recovery paths route through that verifier.
        tampered = json.loads(json.dumps(on_disk))
        tampered["shard"]["count"] += 1
        store.shard_path(0).write_text(canonical_json(tampered),
                                       encoding="utf-8")
        assert store.load_completed() == {}
        journal = Journal(tmp_path / "tampered", service_fingerprint("record"))
        journal.append({"kind": "shard-completed", "job": "job-b",
                        **tampered})
        assert journal.completed_shard_results(fingerprint) == {}
        journal.close()


class TestLegacyLayoutMigration:
    """Pre-1.3 checkpoints lived at the root, and pre-record shard
    files were plain shard JSON next to a manifest of checksums. No
    such layout is migrated: each is a miss whose shards recompute,
    and none of its files is ever deleted."""

    @staticmethod
    def _stage_legacy(directory, fingerprint, results):
        """Write a manifest-plus-plain-shards layout into
        ``directory``; returns every staged file's bytes."""
        import hashlib

        directory.mkdir(parents=True, exist_ok=True)
        checksums = {}
        for result in results:
            path = directory / f"shard-{result.index:04d}.json"
            path.write_text(json.dumps(_shard_to_json(result),
                                       sort_keys=True), encoding="utf-8")
            checksums[path.name] = hashlib.sha256(
                path.read_bytes()).hexdigest()
        (directory / "checkpoint.json").write_text(json.dumps({
            "format": 1,
            "fingerprint": fingerprint,
            "checksums": checksums,
        }), encoding="utf-8")
        return {path: path.read_bytes()
                for path in directory.glob("*.json")}

    def test_foreign_legacy_layout_untouched(self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        staged = {}
        # Another campaign's pre-1.3 root layout, then this campaign's
        # own: neither is adopted.
        staged.update(self._stage_legacy(tmp_path, "deadbeef" * 8,
                                         results))
        assert store.load_completed() == {}
        staged.update(self._stage_legacy(tmp_path, fingerprint, results))
        assert store.load_completed() == {}
        # Plain pre-record shard files (and their manifest) inside the
        # namespace are misses too.
        staged.update(self._stage_legacy(store.campaign_directory,
                                         fingerprint, results[1:]))
        assert store.load_completed() == {}
        store.save_shard(results[0])
        assert set(store.load_completed()) == {0}
        for path, payload in staged.items():
            assert path.read_bytes() == payload, path


class TestFingerprintNamespacing:
    def test_resume_with_different_shard_count(self, world, tmp_path):
        """The documented fingerprint behavior: rerunning with a
        different ``--shards`` is a *different campaign* — it resumes
        nothing, and (the bug this PR fixes) it must not delete the
        original campaign's checkpoints either."""
        specs2 = plan_shards(world, 2, **SUBSET)
        fp2 = campaign_fingerprint(world.config, None, SUBSET["isps"], 2)
        store2 = CheckpointStore(tmp_path, fp2)
        for spec in specs2:
            store2.save_shard(run_shard(world.config, spec, world=world))

        fp3 = campaign_fingerprint(world.config, None, SUBSET["isps"], 3)
        assert fp3 != fp2
        store3 = CheckpointStore(tmp_path, fp3)
        assert store3.load_completed() == {}  # nothing to resume
        specs3 = plan_shards(world, 3, **SUBSET)
        store3.save_shard(run_shard(world.config, specs3[0], world=world))
        # Both campaigns now coexist under one root, fully intact.
        assert set(store2.load_completed()) == {0, 1}
        assert set(store3.load_completed()) == {0}
        assert store2.campaign_directory != store3.campaign_directory

    def test_foreign_manifest_warns_instead_of_deleting(
            self, two_shards, tmp_path):
        """save_shard used to call clear() when the manifest
        fingerprint mismatched, destroying another campaign's files.
        A shard file carrying a foreign fingerprint is a miss, and
        saving this campaign's shards deletes no other file."""
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        foreign = store.shard_path(1)
        foreign.write_text(
            canonical_json(shard_record("deadbeef" * 8, results[1])),
            encoding="utf-8")
        payload = foreign.read_bytes()
        assert set(store.load_completed()) == {0}
        store.save_shard(results[0])
        assert foreign.read_bytes() == payload
        # Only a re-save of the same shard replaces it.
        store.save_shard(results[1])
        assert set(store.load_completed()) == {0, 1}

    def test_clear_only_touches_own_namespace(self, two_shards, tmp_path):
        results, fingerprint = two_shards
        store = CheckpointStore(tmp_path, fingerprint)
        store.save_shard(results[0])
        other = CheckpointStore(tmp_path, "feedc0de" * 8)
        other.save_shard(results[1])
        store.clear()
        assert store.load_completed() == {}
        assert set(other.load_completed()) == {1}
