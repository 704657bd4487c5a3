"""Atomic publish-and-sweep primitives shared by the durable stores.

Both on-disk stores (:mod:`repro.runtime.checkpoint` and
:mod:`repro.runtime.cache`) need the same two guarantees, so the logic
lives once here:

* **atomic publish** — write to a per-process ``*.tmp-<pid>`` sibling,
  ``fsync`` it, then ``rename`` over the target (and best-effort
  ``fsync`` the directory), so a writer killed at any instruction —
  or a machine losing power — leaves either the old file or the new
  one, never a truncated hybrid;
* **stale-tmp sweep** — tmp files orphaned by crashed writers are
  reclaimed once they are old enough that no live writer can still
  own them (deleting a *young* tmp file would crash a concurrent
  writer's rename).

:func:`atomic_write_pack` is the same publish for stores that write
many small entries at once (the panel store's cells, the wave row
cache): the entries stream into *one* content-named pack, so a wave
pays one fsync, one rename and one directory barrier. Each entry stays
self-verifying; the caller publishes the manifest (its commit point)
that locates them only after the call returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable

__all__ = ["atomic_write_bytes", "atomic_write_json", "atomic_write_pack",
           "atomic_write_stream", "atomic_write_text",
           "sweep_stale_tmp_files"]

# Live writers publish within seconds; anything older is a crash leak.
STALE_TMP_SECONDS = 3600.0


def _tmp_path(path: Path) -> Path:
    return path.with_name(f"{path.name}.tmp-{os.getpid()}")


def _fsync_directory(directory: Path) -> None:
    # Makes the rename itself durable. Best-effort: some filesystems
    # refuse to fsync a directory fd, and the data file is already
    # synced either way.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write_stream(path: Path):
    """Stream into a tmp file, then publish it atomically and durably.

    Yields the open binary handle; on clean exit the file is fsynced
    and renamed over ``path``. For large payloads (pickled worlds)
    this avoids materializing the whole serialization in memory.
    """
    tmp = _tmp_path(path)
    with tmp.open("wb") as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    _fsync_directory(path.parent)


def atomic_write_bytes(path: Path, payload: bytes) -> Path:
    """Publish ``payload`` at ``path`` atomically and durably."""
    with atomic_write_stream(path) as handle:
        handle.write(payload)
    return path


def atomic_write_pack(
    directory: Path, entries: Iterable[bytes],
) -> tuple[str, list[tuple[int, int]]] | None:
    """Publish ``entries`` as one pack in ``directory``, named by the
    SHA-256 of its bytes: ``(name, [(offset, length), ...])``, or
    ``None`` (and no file) for none. Entries are written as they arrive;
    equal entries make an equal pack, so a pack republished after a
    crash overwrites its orphan with identical bytes."""
    pending = iter(entries)
    first = next(pending, None)
    if first is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(directory / "pack")
    digest = hashlib.sha256()
    spans: list[tuple[int, int]] = []
    offset = 0
    with tmp.open("wb") as handle:
        for entry in chain((first,), pending):
            handle.write(entry)
            digest.update(entry)
            spans.append((offset, len(entry)))
            offset += len(entry)
        handle.flush()
        os.fsync(handle.fileno())
    name = f"{digest.hexdigest()}.pack"
    tmp.replace(directory / name)
    _fsync_directory(directory)
    return name, spans


def atomic_write_text(path: Path, text: str) -> Path:
    """Publish UTF-8 ``text`` at ``path`` atomically and durably."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path, payload) -> Path:
    """Publish ``payload`` as canonical JSON (sorted keys, no
    whitespace) atomically and durably.

    The canonical form is the same one :func:`repro.runtime.cache
    .content_digest` hashes, so a document published here can be
    re-digested byte-for-byte by any reader.
    """
    return atomic_write_text(
        path, json.dumps(payload, sort_keys=True, separators=(",", ":")))


def sweep_stale_tmp_files(
    directory: Path,
    max_age_seconds: float = STALE_TMP_SECONDS,
) -> None:
    """Reclaim ``*.tmp-*`` files orphaned by crashed writers."""
    if not directory.exists():
        return
    cutoff = time.time() - max_age_seconds
    for tmp in directory.glob("*.tmp-*"):
        try:
            if tmp.stat().st_mtime < cutoff:
                tmp.unlink(missing_ok=True)
        except FileNotFoundError:
            pass
