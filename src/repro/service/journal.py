"""The campaign journal: an append-only, hash-chained event log.

The always-on service (:mod:`repro.service.daemon`) records every
lifecycle event — submission accepted, campaign planned, shard
completed, wave sealed, job finished — as one entry in this journal,
and *nothing else is the coordinator's durable state*. Restart or
crash recovery is :meth:`Journal.replay`: fold the verified entries
into a :class:`CoordinatorState`, deterministically. A
``shard-completed`` entry is the checkpoint store's own self-verifying
shard record (:func:`~repro.runtime.checkpoint.shard_record`), so the
journal *is* the checkpoint (the equivalence harness
proves ``replay()`` after a SIGKILL reconstructs the same completed-
shard state as :class:`~repro.runtime.checkpoint.CheckpointStore`'s
resume path, byte for byte).

**Hash chain.** Each entry binds its predecessor: entry *n* stores
``prev`` (entry *n-1*'s digest, or 64 zeros at genesis) and its own
``digest = content_digest({"event", "prev", "seq"})`` — the same
canonical-JSON SHA-256 idiom every store here shares, and the MABS
stream-authentication shape: a follower that verifies the chain has
verified the whole feed, not just individual frames. Two journals
agree iff their tip digests agree.

**Durability.** Entries append to ``segment-<firstseq>.jsonl`` files
(one canonical-JSON line each, flushed and fsynced per append — a WAL,
not a rename-per-entry store, so appends stay O(1)). Segments rotate
at a fixed entry count so no single file grows unbounded. On open the
chain is verified from genesis:

* a *torn tail* — damage at the very end of the last segment, the
  signature of a writer killed mid-append — is truncated back to the
  last verifiable entry;
* damage with verified-looking data *after* it (mid-file corruption,
  a chain break, bit rot) is **quarantined**: the damaged remainder
  moves to a ``*.quarantine`` sibling for post-mortem and the journal
  resumes from the last verified entry — suffix entries whose ``prev``
  no longer links are unverifiable by construction, so replaying them
  would be serving unauthenticated state.

The journal is the third client of
:class:`~repro.runtime.storebase.FingerprintNamespacedStore`: journals
for different services can share a root directory without clobbering
each other, and foreign-fingerprint files are never touched.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import REGISTRY as _METRICS
from repro.runtime.atomicio import atomic_write_bytes
from repro.runtime.cache import content_digest
from repro.runtime.storebase import FingerprintNamespacedStore

__all__ = [
    "CoordinatorState",
    "GENESIS_DIGEST",
    "Journal",
    "JournalEntry",
    "JournalError",
    "JobState",
    "entry_digest",
    "service_fingerprint",
]

FORMAT_VERSION = 1

# The chain's root: entry 0 links to this instead of a predecessor.
GENESIS_DIGEST = "0" * 64

# Entries per segment file before rotating to a fresh one.
SEGMENT_ENTRIES = 1024

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"
_QUARANTINE_SUFFIX = ".quarantine"

# Job statuses replay() assigns, in lifecycle order.
_TERMINAL_STATUSES = ("completed", "failed")


class JournalError(RuntimeError):
    """An entry failed verification (digest, chain link, or sequence)."""


def service_fingerprint(name: str) -> str:
    """Content fingerprint namespacing one service's journal.

    Keyed by the service *name* alone: the journal must survive every
    restart of the same logical service, whatever campaigns it runs.
    """
    return content_digest({"format": FORMAT_VERSION,
                           "kind": "service-journal",
                           "service": name})


def entry_digest(seq: int, prev: str, event: dict) -> str:
    """The digest one entry commits to: its event, link, and position.

    Folding ``seq`` and ``prev`` into the digest is what makes the
    chain positional — an attacker (or a bug) cannot reorder, drop, or
    splice verified entries without the tip digest changing.
    """
    return content_digest({"event": event, "prev": prev, "seq": seq})


@dataclass(frozen=True)
class JournalEntry:
    """One verified journal entry."""

    seq: int
    prev: str
    digest: str
    event: dict

    def to_json(self) -> dict:
        return {"digest": self.digest, "event": self.event,
                "prev": self.prev, "seq": self.seq}

    @classmethod
    def from_json(cls, data: dict) -> "JournalEntry":
        """Decode and *verify* one entry; raises :class:`JournalError`.

        Verification here is self-consistency (the digest matches the
        entry's own content); chain linkage against the predecessor is
        the caller's check.
        """
        if not isinstance(data, dict):
            raise JournalError("journal entry must be a JSON object")
        seq, prev, digest, event = (data.get("seq"), data.get("prev"),
                                    data.get("digest"), data.get("event"))
        if (not isinstance(seq, int) or isinstance(seq, bool) or seq < 0
                or not isinstance(prev, str)
                or not isinstance(digest, str)
                or not isinstance(event, dict)):
            raise JournalError("journal entry is structurally invalid")
        if entry_digest(seq, prev, event) != digest:
            raise JournalError(
                f"entry {seq} digest does not match its content")
        return cls(seq=seq, prev=prev, digest=digest, event=event)


# ----------------------------------------------------------------------
# Replayed coordinator state
# ----------------------------------------------------------------------

@dataclass
class JobState:
    """One submitted job's replayed lifecycle."""

    job_id: str
    kind: str
    status: str = "submitted"
    spec: dict = field(default_factory=dict)
    fingerprint: str | None = None
    shards_total: int | None = None
    shards_completed: int = 0
    waves_sealed: int = 0
    result: dict | None = None
    error: str | None = None

    def to_payload(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "shards_total": self.shards_total,
            "shards_completed": self.shards_completed,
            "waves_sealed": self.waves_sealed,
            "result": self.result,
            "error": self.error,
        }


@dataclass
class CoordinatorState:
    """The deterministic fold of a journal's events.

    ``campaigns`` maps each campaign fingerprint to its completed
    shards as ``{index: shard_sha256}`` — exactly the projection the
    equivalence harness compares against the checkpoint store's
    resume path. ``analyses`` holds sealed wave-analysis payloads
    (``(job_id, wave) → payload``) so the read API can serve them
    without recomputation.
    """

    jobs: dict[str, JobState] = field(default_factory=dict)
    campaigns: dict[str, dict[int, str]] = field(default_factory=dict)
    analyses: dict[tuple[str, int], dict] = field(default_factory=dict)
    tip_seq: int = -1
    tip_digest: str = GENESIS_DIGEST

    def completed_shards(self, fingerprint: str) -> dict[int, str]:
        """One campaign's completed shards as ``{index: sha256}``."""
        return dict(self.campaigns.get(fingerprint, {}))

    def canonical_bytes(self) -> bytes:
        """Canonical JSON of the state — byte-comparable across
        replays, processes, and recovery paths."""
        payload = {
            "jobs": {job_id: state.to_payload()
                     for job_id, state in sorted(self.jobs.items())},
            "campaigns": {
                fingerprint: {str(index): sha
                              for index, sha in sorted(shards.items())}
                for fingerprint, shards in sorted(self.campaigns.items())
            },
        }
        import json

        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def apply(self, entry: JournalEntry) -> None:
        """Fold one entry into the state."""
        event = entry.event
        kind = event.get("kind")
        job_id = event.get("job")
        self.tip_seq = entry.seq
        self.tip_digest = entry.digest
        if kind == "submitted" and isinstance(job_id, str):
            spec = event.get("spec") or {}
            self.jobs[job_id] = JobState(
                job_id=job_id,
                kind=str(spec.get("kind", "campaign")),
                spec=dict(spec))
            return
        job = self.jobs.get(job_id) if isinstance(job_id, str) else None
        if kind == "started" and job is not None:
            if job.status not in _TERMINAL_STATUSES:
                job.status = "running"
        elif kind == "campaign-planned" and job is not None:
            job.fingerprint = event.get("fingerprint")
            job.shards_total = event.get("shards")
            self.campaigns.setdefault(job.fingerprint, {})
        elif kind == "shard-completed":
            fingerprint = event.get("fingerprint")
            index = event.get("index")
            sha = event.get("shard_sha256")
            if (isinstance(fingerprint, str) and isinstance(index, int)
                    and isinstance(sha, str)):
                self.campaigns.setdefault(fingerprint, {})[index] = sha
                if job is not None:
                    job.shards_completed = len(
                        self.campaigns[fingerprint])
        elif kind == "wave-sealed" and job is not None:
            wave = event.get("wave")
            if isinstance(wave, int):
                job.waves_sealed += 1
                analysis = event.get("analysis")
                if isinstance(analysis, dict):
                    self.analyses[(job.job_id, wave)] = analysis
        elif kind == "completed" and job is not None:
            job.status = "completed"
            result = event.get("result")
            job.result = dict(result) if isinstance(result, dict) else None
        elif kind == "failed" and job is not None:
            job.status = "failed"
            error = event.get("error")
            job.error = str(error) if error is not None else None
        # Unknown kinds (a newer daemon's vocabulary) fold to nothing:
        # replay of a future journal degrades to partial state, never
        # to a crash.


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

class Journal(FingerprintNamespacedStore):
    """One service's hash-chained event log under a directory.

    Thread-safe: the daemon appends from its worker thread while
    connection threads read entries for followers; all verified
    entries stay in memory (they are small lifecycle records — the
    one large payload class, shard checkpoints, is exactly what a
    restart needs in memory anyway).
    """

    def __init__(self, directory: str | Path, fingerprint: str):
        super().__init__(directory, fingerprint)
        self._entries: list[JournalEntry] = []
        self._handle = None  # open append handle on the tail segment
        self._handle_path: Path | None = None
        self._handle_entries = 0  # entries in the tail segment
        self._lock = threading.RLock()
        # Signaled on every append; followers long-poll on it.
        self.appended = threading.Condition(self._lock)
        self._recover()

    # ------------------------------------------------------------------
    # open-time recovery
    # ------------------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        directory = self.namespace_directory
        if not directory.exists():
            return []
        return sorted(directory.glob(
            f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    @staticmethod
    def _segment_name(first_seq: int) -> str:
        return f"{_SEGMENT_PREFIX}{first_seq:08d}{_SEGMENT_SUFFIX}"

    def _recover(self) -> None:
        """Verify the chain from genesis; truncate or quarantine damage.

        Scans segments in order, verifying each line's digest and its
        link to the predecessor. The first failure splits the log:
        everything before it is the verified prefix; the failing line
        and everything after (same segment and later segments) is the
        *remainder*. An empty remainder beyond the failing line is a
        torn tail (truncate); a non-empty one is quarantined — those
        entries' ``prev`` links dangle once the damage is cut out, so
        they are unverifiable and must not be replayed.
        """
        damage: tuple[Path, int, bytes] | None = None
        segments = self._segment_paths()
        for path in segments:
            if damage is not None:
                # Everything after a damaged point is remainder.
                self._quarantine(path, path.read_bytes())
                path.unlink(missing_ok=True)
                continue
            offset = 0
            data = path.read_bytes()
            for line in data.splitlines(keepends=True):
                stripped = line.strip()
                entry = None
                if stripped and line.endswith(b"\n"):
                    entry = self._verify_line(stripped)
                if entry is None:
                    damage = (path, offset, data[offset:])
                    break
                self._entries.append(entry)
                offset += len(line)
            else:
                if data[offset:]:
                    # Trailing bytes with no newline: a torn append.
                    damage = (path, offset, data[offset:])
        if damage is None:
            return
        path, offset, remainder = damage
        later_segments = [p for p in segments if p.name > path.name]
        torn_tail_only = (not later_segments
                          and not remainder.partition(b"\n")[2].strip())
        if not torn_tail_only:
            self._quarantine(path, remainder)
        if offset == 0:
            path.unlink(missing_ok=True)
        else:
            with path.open("r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())

    def _verify_line(self, line: bytes) -> JournalEntry | None:
        import json

        try:
            data = json.loads(line.decode("utf-8"))
            entry = JournalEntry.from_json(data)
        except (UnicodeDecodeError, json.JSONDecodeError, JournalError):
            return None
        expected_seq = len(self._entries)
        expected_prev = (self._entries[-1].digest if self._entries
                         else GENESIS_DIGEST)
        if entry.seq != expected_seq or entry.prev != expected_prev:
            return None  # chain break: reordered, spliced, or skewed
        return entry

    def _quarantine(self, source: Path, remainder: bytes) -> None:
        """Preserve a damaged remainder for post-mortem, uniquely named
        so repeated recoveries never overwrite earlier evidence."""
        base = source.with_name(source.name + _QUARANTINE_SUFFIX)
        path, counter = base, 0
        while path.exists():
            counter += 1
            path = base.with_name(f"{base.name}.{counter}")
        atomic_write_bytes(path, remainder)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    @property
    def tip_seq(self) -> int:
        """The newest entry's sequence number (-1 when empty)."""
        with self._lock:
            return len(self._entries) - 1

    @property
    def tip_digest(self) -> str:
        """The newest entry's digest (genesis digest when empty).

        Two journals hold identical entry sets iff their tips agree —
        the hash chain's whole point.
        """
        with self._lock:
            return (self._entries[-1].digest if self._entries
                    else GENESIS_DIGEST)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _ensure_handle(self) -> None:
        if (self._handle is not None
                and self._handle_entries < SEGMENT_ENTRIES):
            return
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        directory = self.namespace_directory
        directory.mkdir(parents=True, exist_ok=True)
        segments = self._segment_paths()
        next_seq = len(self._entries)
        if segments and self._handle_path is None:
            # Reopening an existing journal: count the tail segment's
            # entries to honor the rotation bound across restarts.
            tail = segments[-1]
            tail_first = int(tail.name[len(_SEGMENT_PREFIX):-len(
                _SEGMENT_SUFFIX)])
            tail_entries = next_seq - tail_first
            if tail_entries < SEGMENT_ENTRIES:
                self._handle_path = tail
                self._handle_entries = tail_entries
                self._handle = tail.open("ab")
                return
        self._handle_path = directory / self._segment_name(next_seq)
        self._handle_entries = 0
        self._handle = self._handle_path.open("ab")

    def _persist(self, entry: JournalEntry) -> None:
        import json

        self._ensure_handle()
        line = json.dumps(entry.to_json(), sort_keys=True,
                          separators=(",", ":")) + "\n"
        # Monotonic latency of the durability hot path (write + flush +
        # fsync); observed into the sidecar registry, never journaled.
        persisted_from = time.monotonic()
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        _METRICS.histogram("journal_append_fsync_seconds").observe(
            time.monotonic() - persisted_from)
        _METRICS.counter("journal_appends_total").inc()
        self._handle_entries += 1
        self._entries.append(entry)
        self.appended.notify_all()

    def append(self, event: dict) -> JournalEntry:
        """Append one event; returns the sealed entry.

        The entry is flushed and fsynced before this returns — an
        acknowledged submission survives a power cut.
        """
        with self._lock:
            seq = len(self._entries)
            prev = self.tip_digest
            entry = JournalEntry(seq=seq, prev=prev,
                                 digest=entry_digest(seq, prev, event),
                                 event=event)
            self._persist(entry)
            return entry

    def append_replicated(self, data: dict) -> JournalEntry:
        """Append an entry received from upstream, verifying it first.

        The follower path: the entry must decode, carry a digest
        matching its own content, and link to *this* journal's tip.
        Raises :class:`JournalError` otherwise — a replica never
        persists a frame it could not verify.
        """
        entry = JournalEntry.from_json(data)
        with self._lock:
            if entry.seq != len(self._entries):
                raise JournalError(
                    f"replicated entry seq {entry.seq} does not follow "
                    f"tip {len(self._entries) - 1}")
            if entry.prev != self.tip_digest:
                raise JournalError(
                    f"replicated entry {entry.seq} does not link to "
                    f"this journal's tip digest")
            self._persist(entry)
            return entry

    def close(self) -> None:
        """Close the append handle (entries stay readable)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._handle_path = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def entries(self, start: int = 0,
                limit: int | None = None) -> list[JournalEntry]:
        """Verified entries from sequence ``start`` (a snapshot)."""
        with self._lock:
            window = self._entries[max(0, start):]
        return window[:limit] if limit is not None else window

    def wait_for(self, seq: int, timeout: float | None = None) -> bool:
        """Block until entry ``seq`` exists (or timeout); the
        follower feed's long-poll primitive."""
        with self.appended:
            return self.appended.wait_for(
                lambda: len(self._entries) > seq, timeout=timeout)

    def replay(self) -> CoordinatorState:
        """Fold the verified entries into coordinator state.

        Pure over the entry list: same journal bytes, same state
        bytes, whichever process replays them.
        """
        state = CoordinatorState()
        for entry in self.entries():
            state.apply(entry)
        return state

    def completed_shard_results(self, fingerprint: str) -> dict[int, object]:
        """Rebuild one campaign's completed shards from the journal.

        The resume path's payload source: a ``shard-completed`` entry
        is a checkpoint shard record plus its ``kind`` and ``job``,
        decoded by the checkpoint store's own verifier
        (:func:`~repro.runtime.checkpoint.verified_shard`) — a journal
        entry is chain-verified as *bytes*, but the shard record is
        the authority on its payload.
        """
        from repro.runtime.checkpoint import verified_shard

        completed: dict[int, object] = {}
        for entry in self.entries():
            if entry.event.get("kind") != "shard-completed":
                continue
            result = verified_shard(entry.event, fingerprint)
            if result is not None:
                completed[result.index] = result
        return completed
