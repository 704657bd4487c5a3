"""Content-addressed result cache: audits, and the worlds under them.

Twenty-odd benchmark and example scripts each call
``ExperimentContext.at_scale(...)`` and rebuild the same audit from
scratch. The cache keys a completed audit by the content digest of
everything that determines it — the scenario (seed included), the
sampling policy, and the ISP set — so the second script at a given
scale loads the first one's campaign instead of recomputing it. The
entry is the campaign as one checkpoint shard record, so its bytes do
not depend on how many shards ran it.

The *world* is cached separately, under the digest of the scenario
alone (:func:`world_digest`, entries in a ``worlds/`` subdirectory).
A policy sweep — same scenario, different sampling policies — misses
the audit cache on every variant but shares one cached world build,
which is the expensive half of a small audit.

The cache is size-bounded: give the constructor ``max_bytes`` or set
``REPRO_CACHE_MAX_BYTES`` and, after each store, the least-recently-
*used* entries (hits refresh an entry's clock) are evicted until the
directory fits. Every entry verifies itself on load: an audit record
by its ``shard_sha256`` and fingerprint, a world as
``worlds/<digest>.pkl`` (the pickle, then the SHA-256 that load checks
first). The world pickle implies the usual trust caveat: only point
``cache_dir`` (or ``REPRO_CACHE_DIR``) at directories you write
yourself.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.sampling import SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.runtime.atomicio import (atomic_write_stream, atomic_write_text,
                                    sweep_stale_tmp_files)
from repro.runtime.storebase import read_json_document
from repro.synth.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.executor import ShardResult
    from repro.synth.world import World

__all__ = [
    "AuditCache",
    "audit_digest",
    "canonical_json",
    "content_digest",
    "world_digest",
    "cache_dir_from_environment",
    "cache_max_bytes_from_environment",
]

CACHE_ENV_VAR = "REPRO_CACHE_DIR"
CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"
# Bump when a change anywhere in the pipeline invalidates old entries.
CACHE_FORMAT_VERSION = 1

_WORLDS_SUBDIR = "worlds"
# ImportError covers entries pickled by an older code version whose
# classes have since moved — stale, so a miss, not a crash. Damaged
# bytes fail the checksum before they reach pickle; the rest catch
# what an intact pickle of a stale class layout can still raise.
_PICKLE_LOAD_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                       ImportError, OSError, ValueError, TypeError,
                       IndexError, OverflowError, MemoryError)
_CHECKSUM_BYTES = hashlib.sha256().digest_size


class _HashingWriter:
    """Writes through to ``handle``, hashing the bytes that pass."""

    def __init__(self, handle):
        self.handle, self.sha256 = handle, hashlib.sha256()

    def write(self, chunk) -> int:
        self.sha256.update(chunk)
        return self.handle.write(chunk)


def canonical_json(payload) -> str:
    """A payload's canonical JSON form: sorted keys, no whitespace.

    The bytes :func:`content_digest` hashes; a store that also writes
    them (the panel store's CAS cells) encodes each payload once.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload: dict) -> str:
    """SHA-256 of a payload's canonical JSON form.

    The one fingerprinting idiom every store shares (audit cache,
    checkpoints, panel store, per-cell wave digests):
    sorted keys, no whitespace, UTF-8. Canonicalization must never
    drift between stores — a digest written by one and compared by
    another would silently stop matching — so it lives only here.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def audit_digest(
    scenario: ScenarioConfig,
    policy: SamplingPolicy | None,
    isps: tuple[str, ...],
    use_urban_survey: bool = True,
    engine_config=None,
) -> str:
    """Content address of one audit: every input that determines it —
    scenario, policy, ISP set, the urban-survey toggle, and the engine
    config (``None`` hashes as the default
    :class:`~repro.bqt.engine.EngineConfig`). Retry policy changes the
    records, and a paced rehearsal that hit the cache would never
    actually pace, so a non-default config gets its own address.
    """
    from repro.bqt.engine import EngineConfig

    policy = policy or SamplingPolicy()
    return content_digest({
        "format": CACHE_FORMAT_VERSION,
        "scenario": asdict(scenario),
        "policy": asdict(policy),
        "isps": sorted(isps),
        "use_urban_survey": use_urban_survey,
        "engine_config": asdict(engine_config or EngineConfig()),
    })


def world_digest(scenario: ScenarioConfig) -> str:
    """Content address of one world build: the scenario alone.

    Deliberately independent of sampling policy and ISP set — the
    world is fully determined by the scenario's seed and shape, which
    is what lets audits with different policies share one build.
    """
    return content_digest({
        "format": CACHE_FORMAT_VERSION,
        "scenario": asdict(scenario),
    })


def cache_dir_from_environment() -> str | None:
    """The cache directory named by ``REPRO_CACHE_DIR`` (if any)."""
    value = os.environ.get(CACHE_ENV_VAR, "").strip()
    return value or None


def cache_max_bytes_from_environment() -> int | None:
    """The eviction bound named by ``REPRO_CACHE_MAX_BYTES`` (if any)."""
    value = os.environ.get(CACHE_MAX_BYTES_ENV_VAR, "").strip()
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(
            f"{CACHE_MAX_BYTES_ENV_VAR} must be an integer byte count, "
            f"got {value!r}") from None
    if parsed <= 0:
        raise ValueError(f"{CACHE_MAX_BYTES_ENV_VAR} must be positive")
    return parsed


class AuditCache:
    """A directory of content-addressed audit campaigns and world builds.

    ``max_bytes`` (default: ``REPRO_CACHE_MAX_BYTES``) bounds the
    total size of the entries; stores evict least-recently-used
    entries — audit or world, whichever is coldest — to fit.
    """

    def __init__(self, directory: str | Path, max_bytes: int | None = None):
        self._directory = Path(directory)
        self._max_bytes = (max_bytes if max_bytes is not None
                           else cache_max_bytes_from_environment())
        if self._max_bytes is not None and self._max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        # Sidecar telemetry only — counts never touch cached bytes.
        self._metric_hits = _METRICS.counter("audit_cache_hits_total")
        self._metric_misses = _METRICS.counter("audit_cache_misses_total")
        self._metric_evictions = _METRICS.counter(
            "audit_cache_evictions_total")

    @property
    def max_bytes(self) -> int | None:
        """The eviction bound (None = unbounded)."""
        return self._max_bytes

    def path_for(self, digest: str) -> Path:
        """Path of the campaign record for one digest."""
        return self._directory / f"{digest}.json"

    def world_path_for(self, digest: str) -> Path:
        """Path of the pickled world for one digest."""
        return self._directory / _WORLDS_SUBDIR / f"{digest}.pkl"

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    def get(self, digest: str) -> "ShardResult | None":
        """Load the campaign stored under a digest (None on miss).

        A torn, damaged or misnamed entry is a miss, not a crash: the
        caller recomputes and overwrites it."""
        from repro.runtime.checkpoint import verified_shard

        path = self.path_for(digest)
        record = read_json_document(path)
        return self._counted(path, None if record is None
                             else verified_shard(record, digest))

    def put(self, digest: str, shard: "ShardResult") -> Path:
        """Store a whole campaign (one shard, index 0 of 1) under its
        digest; returns the entry path."""
        from repro.runtime.checkpoint import shard_document

        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, shard_document(digest, shard))
        self._evict(keep=path)
        return path

    def entries(self) -> list[str]:
        """Audit digests currently stored, sorted."""
        if not self._directory.exists():
            return []
        return sorted(p.stem for p in self._directory.glob("*.json"))

    # ------------------------------------------------------------------
    # worlds
    # ------------------------------------------------------------------
    def get_world(self, digest: str) -> "World | None":
        """Load the cached world for a scenario digest (None on miss)."""
        path = self.world_path_for(digest)
        return self._counted(path, self._load_pickle(path))

    def put_world(self, digest: str, world: "World") -> Path:
        """Store a world build under its scenario digest."""
        path = self.world_path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Streamed through the atomic publish, so a multi-megabyte
        # world is never duplicated in memory and readers never see
        # half a pickle.
        with atomic_write_stream(path) as handle:
            writer = _HashingWriter(handle)
            pickle.dump(world, writer, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(writer.sha256.digest())
        self._evict(keep=path)
        return path

    def world_entries(self) -> list[str]:
        """World digests currently stored, sorted."""
        worlds = self._directory / _WORLDS_SUBDIR
        if not worlds.exists():
            return []
        return sorted(p.stem for p in worlds.glob("*.pkl"))

    # ------------------------------------------------------------------
    # storage and eviction
    # ------------------------------------------------------------------
    def _counted(self, path: Path, loaded):
        """Count one lookup; a hit refreshes the entry's LRU clock."""
        if loaded is None:
            self._metric_misses.inc()
            return None
        self._metric_hits.inc()
        try:
            os.utime(path)
        except OSError:
            pass  # evicted meanwhile, or a read-only cache: still a hit
        return loaded

    @staticmethod
    def _load_pickle(path: Path):
        try:
            data = path.read_bytes()
        except OSError:
            return None
        body = memoryview(data)[:-_CHECKSUM_BYTES]
        if (len(data) <= _CHECKSUM_BYTES
                or hashlib.sha256(body).digest() != data[-_CHECKSUM_BYTES:]):
            return None
        try:
            return pickle.loads(body)
        except _PICKLE_LOAD_ERRORS:
            return None

    def _entry_paths(self) -> list[Path]:
        paths = list(self._directory.glob("*.json"))
        worlds = self._directory / _WORLDS_SUBDIR
        if worlds.exists():
            paths.extend(worlds.glob("*.pkl"))
        return paths

    @staticmethod
    def _stat_or_none(path: Path):
        # Concurrent processes evict from the same directory; any
        # entry may vanish between listing and stat'ing it.
        try:
            return path.stat()
        except FileNotFoundError:
            return None

    def total_bytes(self) -> int:
        """Total size of all entries, audits and worlds."""
        if not self._directory.exists():
            return 0
        return sum(stat.st_size for stat in map(self._stat_or_none,
                                                 self._entry_paths())
                   if stat is not None)

    def _evict(self, keep: Path) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        The just-written ``keep`` entry is never evicted: the bound
        governs what accumulates, not what the caller stored last.

        Sizes and mtimes come from one stat snapshot per entry, and an
        entry whose stat returns ``None`` — deleted by a concurrent
        evictor between the listing and the stat — is skipped
        entirely. Re-stat'ing (as this method once did, separately for
        the sort key, the running total, and the subtraction) let a
        racing-deleted path sort as mtime ``0.0``, get "evicted"
        first, and throw the byte accounting off against entries the
        other writer had already removed.
        """
        if self._max_bytes is None:
            return
        # Tmp files of crashed puts are no entries, so only this sweep
        # ever reclaims them.
        for directory in (self._directory, self._directory / _WORLDS_SUBDIR):
            sweep_stale_tmp_files(directory)
        total = 0
        evictable: list[tuple[float, Path, int]] = []
        for path in self._entry_paths():
            stat = self._stat_or_none(path)
            if stat is None:
                # Vanished under a concurrent writer's eviction: not
                # ours to count, and not ours to delete.
                continue
            total += stat.st_size
            if path != keep:
                evictable.append((stat.st_mtime, path, stat.st_size))
        evictable.sort(key=lambda entry: entry[0])
        for _mtime, path, size in evictable:
            if total <= self._max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            self._metric_evictions.inc()
