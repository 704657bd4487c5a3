"""Shard checkpoints: interrupted campaigns resume, not restart.

Each completed shard is written as one self-verifying JSON record the
moment it finishes — the canonical JSON of ``{"fingerprint", "index",
"shard", "shard_sha256"}`` (:func:`shard_record`), the same record the
service journal's ``shard-completed`` event carries. On resume the
store reloads every record that passes :func:`verified_shard` and the
executor runs only the remainder; because shard records round-trip
exactly (JSON floats use shortest-round-trip ``repr``), the resumed
merge is bit-identical to an uninterrupted run.

Crash safety is load-bearing here — with the distributed backend a
checkpoint directory survives machine failures, so every write must
leave the store readable no matter where the writer dies:

* every shard file is published with the tmp-then-``rename`` pattern,
  so readers never observe a half-written JSON document;
* each campaign's files live in a subdirectory named by a prefix of
  its fingerprint, so two campaigns sharing a checkpoint root can
  never clobber each other's work;
* every file is SHA-256-verified on every load — a torn, foreign,
  old-format or bit-rotted file is a miss whose shard recomputes and
  whose re-save replaces it; no file is ever deleted over it.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from pathlib import Path

from repro.bqt.errors import ErrorCategory
from repro.bqt.logbook import QueryRecord
from repro.bqt.responses import QueryStatus
from repro.core.collection import Q3BlockOutcome
from repro.core.sampling import SamplingPolicy
from repro.isp.plans import BroadbandPlan
from repro.obs.metrics import REGISTRY as _METRICS
from repro.runtime.atomicio import atomic_write_text, sweep_stale_tmp_files
from repro.runtime.cache import canonical_json, content_digest
from repro.runtime.shards import Q12Cell
from repro.runtime.storebase import (FingerprintNamespacedStore,
                                     read_json_document)
from repro.synth.scenario import ScenarioConfig

__all__ = [
    "CheckpointStore",
    "campaign_fingerprint",
    "checkpoint_log",
    "shard_document",
    "shard_record",
    "verified_shard",
]

FORMAT_VERSION = 1


def campaign_fingerprint(
    scenario: ScenarioConfig,
    policy: SamplingPolicy | None,
    isps: tuple[str, ...],
    shard_count: int,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
    max_replacements: int = 2,
) -> str:
    """Content digest identifying one campaign's checkpointable work.

    Everything that changes the shard partition or any shard's records
    must feed the digest, or resume could adopt another campaign's
    checkpoints: the scenario (seed included), sampling policy, ISP
    set, state subsets, replacement budget, and shard count.
    """
    policy = policy or SamplingPolicy()
    return content_digest({
        "format": FORMAT_VERSION,
        "scenario": asdict(scenario),
        "policy": asdict(policy),
        "isps": list(isps),
        "states": list(states or scenario.states),
        "q3_states": list(q3_states or scenario.q3_states),
        "max_replacements": max_replacements,
        "shard_count": shard_count,
    })


# ----------------------------------------------------------------------
# JSON codecs (exact round-trip: enums by value, floats via repr)
# ----------------------------------------------------------------------

def _plan_to_json(plan: BroadbandPlan) -> dict:
    return {
        "name": plan.name,
        "download_mbps": plan.download_mbps,
        "upload_mbps": plan.upload_mbps,
        "monthly_price_usd": plan.monthly_price_usd,
        "technology": plan.technology,
        "is_speed_guaranteed": plan.is_speed_guaranteed,
    }


def _plan_from_json(data: dict) -> BroadbandPlan:
    return BroadbandPlan(**data)


def _record_to_json(record: QueryRecord) -> dict:
    return {
        "isp_id": record.isp_id,
        "address_id": record.address_id,
        "block_geoid": record.block_geoid,
        "state_abbreviation": record.state_abbreviation,
        "status": record.status.value,
        "plans": [_plan_to_json(plan) for plan in record.plans],
        "error_category": (record.error_category.value
                           if record.error_category else None),
        "attempts": record.attempts,
        "elapsed_seconds": record.elapsed_seconds,
        "replacement_for": record.replacement_for,
    }


def _record_from_json(data: dict) -> QueryRecord:
    return QueryRecord(
        isp_id=data["isp_id"],
        address_id=data["address_id"],
        block_geoid=data["block_geoid"],
        state_abbreviation=data["state_abbreviation"],
        status=QueryStatus(data["status"]),
        plans=tuple(_plan_from_json(p) for p in data["plans"]),
        error_category=(ErrorCategory(data["error_category"])
                        if data["error_category"] else None),
        attempts=data["attempts"],
        elapsed_seconds=data["elapsed_seconds"],
        replacement_for=data["replacement_for"],
    )


def _q12_entry(cell: Q12Cell, records) -> dict:
    """One Q1/Q2 cell and its record stream, as a JSON object."""
    return {
        "isp_id": cell.isp_id,
        "state": cell.state,
        "cbg": cell.cbg,
        "records": [_record_to_json(r) for r in records],
    }


def _q12_from_entry(entry: dict) -> tuple[Q12Cell, tuple[QueryRecord, ...]]:
    """Inverse of :func:`_q12_entry`."""
    cell = Q12Cell(isp_id=entry["isp_id"], state=entry["state"],
                   cbg=entry["cbg"])
    return cell, tuple(_record_from_json(r) for r in entry["records"])


def _q3_entry(block: str, outcome: Q3BlockOutcome | None) -> dict:
    """One Q3 block and its outcome (``None``: not analyzed)."""
    return {
        "block_geoid": block,
        "outcome": None if outcome is None else {
            "incumbent_isp_id": outcome.incumbent_isp_id,
            "records": [_record_to_json(r) for r in outcome.records],
            "modes": outcome.modes,
        },
    }


def _q3_from_entry(entry: dict) -> tuple[str, Q3BlockOutcome | None]:
    """Inverse of :func:`_q3_entry`."""
    block, outcome = entry["block_geoid"], entry["outcome"]
    if outcome is None:
        return block, None
    return block, Q3BlockOutcome(
        block_geoid=block, incumbent_isp_id=outcome["incumbent_isp_id"],
        records=tuple(_record_from_json(r) for r in outcome["records"]),
        modes=dict(outcome["modes"]))


def _shard_to_json(result: "ShardResult") -> dict:
    return {
        "index": result.index,
        "count": result.count,
        "q12": [_q12_entry(cell, records)
                for cell, records in result.q12_records.items()],
        "q3": [_q3_entry(block, outcome)
               for block, outcome in result.q3_outcomes.items()],
    }


def _shard_from_json(data: dict) -> "ShardResult":
    from repro.runtime.executor import ShardResult

    result = ShardResult(index=data["index"], count=data["count"])
    result.q12_records.update(_q12_from_entry(e) for e in data["q12"])
    result.q3_outcomes.update(_q3_from_entry(e) for e in data["q3"])
    return result


def shard_record(fingerprint: str, result: "ShardResult") -> dict:
    """The self-verifying record of one completed shard.

    A checkpoint file is this record's canonical JSON; the service
    journal's ``shard-completed`` event is this record plus its
    ``kind`` and ``job``. ``shard_sha256`` covers the shard payload, so
    the record verifies itself wherever it is stored.
    """
    return _encode_record(fingerprint, result)[0]


def shard_document(fingerprint: str, result: "ShardResult") -> str:
    """A :func:`shard_record`'s canonical JSON (a checkpoint file)."""
    return _encode_record(fingerprint, result)[1]


def _encode_record(fingerprint: str,
                   result: "ShardResult") -> tuple[dict, str]:
    """A :func:`shard_record` and its canonical JSON, with the shard
    encoded once — its canonical form is both what ``shard_sha256``
    hashes and what the document embeds, keys in canonical order."""
    shard = _shard_to_json(result)
    body = canonical_json(shard)
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    record = {"fingerprint": fingerprint, "index": result.index,
              "shard": shard, "shard_sha256": checksum}
    document = (f'{{"fingerprint":{canonical_json(fingerprint)},'
                f'"index":{result.index},"shard":{body},'
                f'"shard_sha256":"{checksum}"}}')
    return record, document


def verified_shard(record: dict, fingerprint: str) -> "ShardResult | None":
    """Decode one :func:`shard_record` of ``fingerprint``'s campaign.

    ``None`` covers every way a record can be unusable — another
    campaign's fingerprint, a missing or mismatching ``shard_sha256``,
    an index that disagrees with its shard, or a payload the codec
    rejects — so callers treat it as a miss and recompute.
    """
    shard = record.get("shard")
    if (record.get("fingerprint") != fingerprint
            or not isinstance(shard, dict)
            or content_digest(shard) != record.get("shard_sha256")):
        return None
    try:
        result = _shard_from_json(shard)
    except (KeyError, TypeError, ValueError):
        return None
    return result if result.index == record.get("index") else None


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class CheckpointStore(FingerprintNamespacedStore):
    """One campaign's shard checkpoints under a directory.

    ``directory`` is the shared checkpoint *root*; this campaign's
    files live in :attr:`campaign_directory` (the base class's
    fingerprint-namespaced subdirectory). Namespacing (rather than a
    fingerprint check that deletes on mismatch) means campaigns that
    share a root can never destroy each other's checkpoints.
    """

    @property
    def campaign_directory(self) -> Path:
        """This campaign's namespaced subdirectory under the root."""
        return self.namespace_directory

    def shard_path(self, index: int) -> Path:
        """Path of one shard's checkpoint file."""
        return self.campaign_directory / f"shard-{index:04d}.json"

    def save_shard(self, result: "ShardResult") -> Path:
        """Persist one completed shard as its self-verifying record."""
        self.campaign_directory.mkdir(parents=True, exist_ok=True)
        path = self.shard_path(result.index)
        atomic_write_text(path, shard_document(self._fingerprint, result))
        sweep_stale_tmp_files(self.campaign_directory)
        _METRICS.counter("checkpoint_shards_saved_total").inc()
        return path

    def load_completed(self) -> dict[int, "ShardResult"]:
        """Reload every intact checkpointed shard of this campaign.

        Each file is verified on its own (:func:`verified_shard`), so
        there is no index to go stale: damage that happens to stay
        parseable (bit rot on flaky storage) fails its checksum and
        must not silently break the bit-identical-merge guarantee. A
        failing file is skipped, never deleted — its shard reruns and
        the re-save replaces it.
        """
        directory = self.campaign_directory
        if not directory.exists():
            return {}
        completed: dict[int, "ShardResult"] = {}
        for path in sorted(directory.glob("shard-*.json")):
            record = read_json_document(path)
            result = (None if record is None
                      else verified_shard(record, self._fingerprint))
            if result is not None:
                completed[result.index] = result
        return completed

    def clear(self) -> None:
        """Delete this campaign's checkpoint files.

        Only the namespaced campaign directory is touched; other
        campaigns sharing the checkpoint root are left intact.
        """
        directory = self.campaign_directory
        if not directory.exists():
            return
        for pattern in ("shard-*.json", "*.tmp-*"):
            for path in directory.glob(pattern):
                path.unlink(missing_ok=True)
        try:
            directory.rmdir()
        except OSError:
            pass  # unexpected extra files: leave them alone


def checkpoint_log(config: "RuntimeConfig",
                   fingerprint: str) -> CheckpointStore | None:
    """A run's checkpoint store as its shard log: ``None`` without a
    ``checkpoint_dir``, cleared of earlier shards unless resuming."""
    if config.checkpoint_dir is None:
        return None
    store = CheckpointStore(config.checkpoint_dir, fingerprint)
    if not config.resume:
        store.clear()
    return store
