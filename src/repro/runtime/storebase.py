"""The durable stores' common base: fingerprint-namespaced, self-verifying.

Three on-disk stores share one survival story — the shard checkpoints
(:class:`~repro.runtime.checkpoint.CheckpointStore`), the panel wave
store (:class:`~repro.longitudinal.store.PanelStore`), and the
service's campaign journal (:class:`~repro.service.journal.Journal`).
All of them:

* live under a shared *root* directory, with each owner's files
  namespaced into a subdirectory named by a 16-hex prefix of its
  content **fingerprint**, so owners sharing a root can never clobber
  each other's work;
* treat every document as untrusted until it passes a checksum —
  parse failures, foreign fingerprints, and digest mismatches are
  *misses that recompute* (a damaged journal segment is also
  quarantined; the panel store writes a fresh copy of a damaged entry
  instead), never crashes or silent wrong data;
* publish through :mod:`repro.runtime.atomicio` — one file per
  document, or one pack per wave for the panel store's cells — and
  sweep its stale tmp files.

This base class holds the shared mechanics; the two integrity schemes
(per-document digests for checkpoint records and pack entries, a hash
chain for the journal) stay in the subclasses.
"""

from __future__ import annotations

import json
from pathlib import Path


__all__ = ["FingerprintNamespacedStore", "read_json_document"]


def read_json_document(path: Path) -> dict | None:
    """Parse one JSON document, or ``None`` on any damage.

    ``None`` covers the whole miss family every store treats the same
    way: missing file, unreadable file, torn/invalid JSON or UTF-8,
    and valid JSON that is not an object.
    """
    try:
        document = json.loads(path.read_bytes().decode("utf-8"))
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


class FingerprintNamespacedStore:
    """A durable store owning one fingerprint's namespace under a root.

    ``directory`` is the shared root; this owner's files live in
    :attr:`namespace_directory`, a subdirectory named by a prefix of
    the fingerprint. Namespacing (rather than a fingerprint check that
    deletes on mismatch) means owners that share a root can never
    destroy each other's files.
    """

    # Enough hex digits that distinct fingerprints practically never
    # collide, short enough to keep paths readable.
    _NAMESPACE_DIGITS = 16

    def __init__(self, directory: str | Path, fingerprint: str):
        self._directory = Path(directory)
        self._fingerprint = fingerprint

    @property
    def directory(self) -> Path:
        """The store root (shared across fingerprints)."""
        return self._directory

    @property
    def fingerprint(self) -> str:
        """The content fingerprint this store's files belong to."""
        return self._fingerprint

    @property
    def namespace_directory(self) -> Path:
        """This fingerprint's namespaced subdirectory under the root."""
        return self._directory / self._fingerprint[:self._NAMESPACE_DIGITS]

    # ------------------------------------------------------------------
    # shared damage-tolerant reads
    # ------------------------------------------------------------------

    def _owned_document(self, path: Path) -> dict | None:
        """A parsed document whose ``fingerprint`` field matches ours.

        A document carrying a *different* fingerprint is foreign data
        (another owner's file, or external tampering) — a miss, never
        deleted: the namespace scheme makes it not ours to judge.
        """
        document = read_json_document(path)
        if document is None:
            return None
        if document.get("fingerprint") != self._fingerprint:
            return None
        return document
