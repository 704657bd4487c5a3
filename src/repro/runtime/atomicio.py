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

:func:`atomic_write_batch` is the group commit of the same publish for
stores that write many small files at once (the panel store's cell
CAS, the wave row cache). Every file is still fsynced before its
rename, so a writer killed mid-batch leaves each target absent or
whole — plus ``*.tmp-<pid>`` files the sweep reclaims. Only the
directory barrier is shared: each distinct parent directory is
fsynced once, after the batch's last rename, so every rename is
durable when the call returns — before the caller publishes the
manifest (its commit point) that references the batch.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack, contextmanager
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable

__all__ = ["atomic_write_batch", "atomic_write_bytes", "atomic_write_json",
           "atomic_write_stream", "atomic_write_text",
           "sweep_stale_tmp_files"]

# Live writers publish within seconds; anything older is a crash leak.
STALE_TMP_SECONDS = 3600.0

# Tmp files one batch holds open at once: bounds the writer's file
# descriptors however many files a batch publishes.
BATCH_OPEN_HANDLES = 128


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


def _write_all(handle, payload: bytes) -> None:
    # An unbuffered write may be short; the rest follows.
    view = memoryview(payload)
    while view:
        view = view[handle.write(view):]


def atomic_write_batch(items: Iterable[tuple[Path, bytes]]) -> None:
    """Publish many ``(path, payload)`` pairs atomically and durably,
    with one directory barrier per distinct parent directory.

    Consumes ``items`` lazily, in chunks of at most
    :data:`BATCH_OPEN_HANDLES` files: write each tmp file as its item
    arrives (unbuffered, so a chunk holds handles, not payloads), fsync
    each through its own handle, close them, then rename each over its
    target. After the last rename each parent directory is fsynced
    once. A path given twice ends with its last payload, as after a
    per-file loop.
    """
    pending = iter(items)
    directories: dict[Path, None] = {}
    while True:
        with ExitStack() as stack:
            handles: dict[Path, BinaryIO] = {}
            for path, payload in islice(pending, BATCH_OPEN_HANDLES):
                handle = handles.get(path)
                if handle is None:
                    handle = handles[path] = stack.enter_context(
                        _tmp_path(path).open("wb", buffering=0))
                else:  # never two handles on one tmp file
                    handle.seek(0)
                    handle.truncate()
                _write_all(handle, payload)
            for handle in handles.values():
                os.fsync(handle.fileno())
        if not handles:
            break
        for path in handles:
            _tmp_path(path).replace(path)
            directories[path.parent] = None
    for directory in directories:
        _fsync_directory(directory)


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
