"""The panel store: one cell pack per wave + thin wave manifests.

Format 3 splits each wave document in two:

* **cell packs** — every (ISP, CBG) cell's record stream and every Q3
  block's outcome is one self-verifying JSON entry (its *world digest*,
  :mod:`repro.longitudinal.digests`, and the SHA-256 of its payload).
  Digest equality ⟺ record equality, so a cell unchanged across waves
  is stored once per digest: a wave writes only the digests the run has
  not located yet, streamed into one pack under ``packs/``
  (:func:`~repro.runtime.atomicio.atomic_write_pack`) — O(churn) bytes
  in O(1) files, one fsync.
* **wave manifests** — ``wave-0003.json`` holds the wave's horizon and
  accounting, its ordered ``(cell identity, digest)`` references and,
  under one checksum with them, where each digest lives (pack, offset,
  length). A manifest is published after its pack, so every location
  it names is durable before it exists.

Any damage — a torn or missing pack, a flipped byte, an entry serving
the wrong cell, a foreign fingerprint, another format (format 2's
per-cell files included) — makes the waves that read it a miss that
recomputes, never a crash or a silent wrong replay. The store forgets
the damaged location, so the recompute writes the digest into its own
pack and the republished manifest points at the good copy.
:meth:`PanelStore.sweep_unreferenced_cells` deletes exactly the packs no
intact manifest references (crash orphans, superseded copies), so it is
always safe to run, ``--resume`` included.

The layout mirrors :class:`~repro.runtime.checkpoint.CheckpointStore`:
``root/<fingerprint16>/...``, so several panels (panels at different
horizons included) share one store root without touching each other.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from repro.runtime.atomicio import (
    atomic_write_pack,
    atomic_write_text,
    sweep_stale_tmp_files,
)
from repro.runtime.cache import canonical_json, content_digest
from repro.runtime.checkpoint import (
    _q3_entry,
    _q3_from_entry,
    _q12_entry,
    _q12_from_entry,
)
from repro.runtime.storebase import FingerprintNamespacedStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.longitudinal.digests import WaveDigests
    from repro.runtime.executor import ShardResult

__all__ = ["PanelStore"]

FORMAT_VERSION = 3
_PACKS_SUBDIR = "packs"


class PanelStore(FingerprintNamespacedStore):
    """One panel campaign's persisted waves under a directory.

    Its location index (digest → pack, offset, length) holds the entries
    of the waves it published or loaded; an indexed digest is never
    written again. :meth:`start_run` forgets the index (another process
    may have changed the directory since) and sweeps stale tmp files.
    """

    def __init__(self, directory: str | Path, fingerprint: str):
        super().__init__(directory, fingerprint)
        self._locations: dict[str, tuple[str, int, int]] = {}
        self._indexed_manifests: list | None = None

    @property
    def panel_directory(self) -> Path:
        """This panel's namespaced subdirectory under the root."""
        return self.namespace_directory

    @property
    def packs_directory(self) -> Path:
        """The cell packs under the panel directory."""
        return self.panel_directory / _PACKS_SUBDIR

    def wave_path(self, wave: int) -> Path:
        """Path of one wave's manifest."""
        return self.panel_directory / f"wave-{wave:04d}.json"

    def pack_path(self, name: str) -> Path:
        """Path of one cell pack."""
        return self.packs_directory / name

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    def _cell_document(self, digest: str, payload: dict) -> bytes:
        """One pack entry's bytes: the canonical JSON of ``{"format",
        "digest", "payload_sha256", "payload"}``, with the payload
        encoded once — its canonical form is both what the checksum
        hashes and what the document embeds."""
        body = canonical_json(payload)
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return (f'{{"digest":{json.dumps(digest)},'
                f'"format":{FORMAT_VERSION},"payload":{body},'
                f'"payload_sha256":"{checksum}"}}').encode("utf-8")

    def start_run(self) -> None:
        """Begin a panel run: trust no remembered location, and sweep
        the stale tmp files crashed writers left behind."""
        self._locations = {}
        sweep_stale_tmp_files(self.panel_directory)
        sweep_stale_tmp_files(self.packs_directory)

    def _new_cell_documents(self, cells: "ShardResult",
                            digests: "WaveDigests",
                            written: dict[str, None]):
        """Entry bytes, built lazily in wave order, for each digest the
        index does not locate; each is recorded in ``written``."""
        for cell, digest in digests.q12.items():
            if digest not in self._locations and digest not in written:
                written[digest] = None
                yield self._cell_document(digest, {
                    "kind": "q12",
                    **_q12_entry(cell, cells.q12_records[cell])})
        for block, digest in digests.q3.items():
            if digest not in self._locations and digest not in written:
                written[digest] = None
                yield self._cell_document(digest, {
                    "kind": "q3",
                    **_q3_entry(block, cells.q3_outcomes[block])})

    def save_wave(
        self,
        wave: int,
        horizon_years: int,
        cells: "ShardResult",
        counts: dict[str, int],
        digests: "WaveDigests",
    ) -> Path:
        """Publish one completed wave: its new entries as one pack,
        then the manifest (atomically) — a crash between the two leaves
        only an unreferenced pack, which the sweep reclaims."""
        self.panel_directory.mkdir(parents=True, exist_ok=True)
        written: dict[str, None] = {}
        published = atomic_write_pack(
            self.packs_directory,
            self._new_cell_documents(cells, digests, written))
        if published is not None:
            name, spans = published
            for digest, (offset, length) in zip(written, spans):
                self._locations[digest] = (name, offset, length)
        packs: dict[str, int] = {}
        locations = {}
        for digest in chain(digests.q12.values(), digests.q3.values()):
            name, offset, length = self._locations[digest]
            locations[digest] = [packs.setdefault(name, len(packs)),
                                 offset, length]
        index = {
            "cells": {
                "q12": [[cell.isp_id, cell.state, cell.cbg, digest]
                        for cell, digest in digests.q12.items()],
                "q3": [[block, digest]
                       for block, digest in digests.q3.items()],
            },
            "packs": list(packs),
            "locations": locations,
        }
        document = {
            "format": FORMAT_VERSION,
            "fingerprint": self._fingerprint,
            "wave": wave,
            "horizon_years": horizon_years,
            "counts": counts,
            "index_sha256": content_digest(index),
            **index,
        }
        path = self.wave_path(wave)
        atomic_write_text(path, json.dumps(document, sort_keys=True))
        return path

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def _verified_manifest(
        self, wave: int,
    ) -> tuple[dict, dict[str, tuple[str, int, int]]] | None:
        """One wave's manifest whose index passes its checksum, with its
        digest → ``(pack, offset, length)`` locations; or ``None``."""
        document = self._owned_document(self.wave_path(wave))
        if (document is None
                or document.get("format") != FORMAT_VERSION
                or document.get("wave") != wave):
            return None
        index = {key: document.get(key)
                 for key in ("cells", "packs", "locations")}
        if content_digest(index) != document.get("index_sha256"):
            return None
        try:
            packs = index["packs"]
            located = {digest: (packs[pack], int(offset), int(length))
                       for digest, (pack, offset, length)
                       in index["locations"].items()}
        except (AttributeError, IndexError, TypeError, ValueError):
            return None
        return document, located

    def _forget(self, digest: str, location: tuple[str, int, int]) -> None:
        # Only the damaged copy: a good one found since stays indexed.
        if self._locations.get(digest) == location:
            del self._locations[digest]

    def _read_payload(self, digest: str,
                      location: tuple[str, int, int]) -> dict | None:
        """The verified payload of the entry at ``location``; ``None``
        (and the location forgotten) unless it is intact and names
        ``digest``."""
        name, offset, length = location
        try:
            with self.pack_path(name).open("rb") as handle:
                handle.seek(offset)
                document = json.loads(handle.read(length))
        except (OSError, ValueError):
            document = None
        payload = (document.get("payload") if isinstance(document, dict)
                   else None)
        if (not isinstance(payload, dict)
                or document.get("format") != FORMAT_VERSION
                or document.get("digest") != digest
                or content_digest(payload) != document.get("payload_sha256")):
            self._forget(digest, location)
            return None
        return payload

    def load_wave(
        self, wave: int
    ) -> "tuple[ShardResult, dict] | None":
        """Reload one wave: ``(cells, manifest)`` or ``None``.

        ``None`` covers every way the wave can be unusable — missing,
        torn, checksum-mismatched, foreign fingerprint, a missing or
        damaged pack entry, or an unknown format version — so callers
        simply recompute.
        """
        from repro.runtime.executor import ShardResult

        verified = self._verified_manifest(wave)
        if verified is None:
            return None
        document, located = verified
        cells = ShardResult(index=0, count=1)
        try:
            for isp_id, state, cbg, digest in document["cells"]["q12"]:
                payload = self._read_payload(digest, located[digest]) or {}
                if (payload.get("kind"), payload.get("isp_id"),
                        payload.get("state"), payload.get("cbg")) != (
                        "q12", isp_id, state, cbg):
                    # Damaged, or intact but another cell's (manifest/
                    # pack skew): forgotten, so the recompute rewrites it.
                    self._forget(digest, located[digest])
                    return None
                cell, records = _q12_from_entry(payload)
                cells.q12_records[cell] = records
            for block, digest in document["cells"]["q3"]:
                payload = self._read_payload(digest, located[digest]) or {}
                if (payload.get("kind"),
                        payload.get("block_geoid")) != ("q3", block):
                    self._forget(digest, located[digest])
                    return None
                cells.q3_outcomes[block] = _q3_from_entry(payload)[1]
        except (KeyError, TypeError, ValueError):
            return None
        self._locations.update(located)
        return cells, {
            "wave": wave,
            "format": document["format"],
            "horizon_years": document.get("horizon_years"),
            "counts": dict(document.get("counts", {})),
        }

    def waves(self) -> list[int]:
        """Indices of waves currently stored, sorted."""
        indices = []
        for path in sorted(self.panel_directory.glob("wave-*.json")):
            try:
                indices.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return indices

    # ------------------------------------------------------------------
    # lookups for readers
    # ------------------------------------------------------------------

    def wave_refs(self, wave: int) -> dict | None:
        """One intact wave's cell references, ``{"q12": [[isp, state,
        cbg, digest], ...], "q3": [[block, digest], ...]}``, or
        ``None``."""
        verified = self._verified_manifest(wave)
        return None if verified is None else verified[0]["cells"]

    def cell(self, digest: str) -> dict | None:
        """One verified cell payload by digest, or ``None``; an unindexed
        digest re-reads the manifests if any changed since last read."""
        if digest not in self._locations:
            self._index_manifests()
        location = self._locations.get(digest)
        return None if location is None else self._read_payload(digest,
                                                                location)

    def _index_manifests(self) -> None:
        # Manifests are replaced by rename, never deleted: each stats.
        signature = [(path.name, path.stat().st_mtime_ns) for path
                     in sorted(self.panel_directory.glob("wave-*.json"))]
        if signature == self._indexed_manifests:
            return
        self._indexed_manifests = signature
        for _, located in self._intact_manifests():
            self._locations.update(located)

    # ------------------------------------------------------------------
    # garbage collection and accounting
    # ------------------------------------------------------------------

    def _intact_manifests(self):
        for wave in self.waves():
            verified = self._verified_manifest(wave)
            if verified is not None:
                yield verified

    def sweep_unreferenced_cells(self) -> list[str]:
        """Delete the packs no intact manifest references.

        The reference set is recomputed from the manifests on disk at
        sweep time, so the sweep can never strand a wave a later
        ``--resume`` will load — a pack is only reclaimed once no
        manifest (current horizons or not) still points into it.
        Returns the pack names removed.
        """
        referenced = {name for _, located in self._intact_manifests()
                      for name, _, _ in located.values()}
        removed = []
        for path in sorted(self.packs_directory.glob("*.pack")):
            if path.name not in referenced:
                path.unlink(missing_ok=True)
                removed.append(path.name)
        sweep_stale_tmp_files(self.packs_directory)
        return removed

    def total_bytes(self) -> int:
        """On-disk size of this panel's manifests and packs."""
        total = 0
        for path in chain(self.panel_directory.glob("wave-*.json"),
                          self.packs_directory.glob("*.pack")):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total
