"""The panel store: a digest-keyed cell CAS + thin wave manifests.

Format 2 splits each wave document in two:

* **cell CAS** — every (ISP, CBG) cell's record stream and every Q3
  block's outcome is one JSON file under ``cells/``, named by the
  cell's *world digest* (:mod:`repro.longitudinal.digests`). Digest
  equality ⟺ record equality, so a cell unchanged across waves is
  stored once per **digest**, not once per wave: saving a wave writes
  only the churned cells' files — O(churn) bytes, the storage analogue
  of delta re-collection.
* **wave manifests** — ``wave-0003.json`` holds the wave's horizon and
  accounting plus an ordered list of ``(cell identity, digest)``
  references; loading a wave reassembles the
  :class:`~repro.runtime.executor.ShardResult` from the CAS in
  manifest order.

Every file is integrity-checked on load — cell payloads carry their
:func:`~repro.runtime.cache.content_digest`, manifests checksum their
reference list — and any damage (torn file, missing cell, foreign
fingerprint, skewed format) makes the wave a miss that recomputes,
never a crash or a silent wrong replay. A wave's new cell files are
published as one group commit (:func:`~repro.runtime.atomicio
.atomic_write_batch`: each file fsynced before its rename, one
directory barrier for the batch) and only then its manifest, with the
shared atomic tmp-then-rename primitive — so every cell a manifest
references is durable before the manifest exists. A wave document in
any other format (the pre-CAS format-1 layout included) is a plain
miss: the wave recomputes and its republish replaces the document.

Cell files can be orphaned — a crash between publishing a wave's CAS
entries and its manifest, a manifest damaged beyond recognition, or a
quarantined-and-unlinked entry's replacement racing a reader.
:meth:`PanelStore.sweep_unreferenced_cells` is the refcount-style
collector — it deletes exactly the cell files no intact manifest
references, so it is always safe to run, ``--resume`` included.
(Panels at different horizons have different fingerprints and thus
disjoint directories; they never share or orphan each other's cells.)

The layout mirrors :class:`~repro.runtime.checkpoint.CheckpointStore`:
``root/<fingerprint16>/...``, so several panels can share one store
root without clobbering each other.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.runtime.atomicio import (
    atomic_write_batch,
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

FORMAT_VERSION = 2
_CELLS_SUBDIR = "cells"


class PanelStore(FingerprintNamespacedStore):
    """One panel campaign's persisted waves under a directory.

    The store remembers the digests of the last wave it published or
    loaded: those CAS entries are known to exist, so the next wave's
    :meth:`save_wave` probes the disk only for the others — O(churn)
    probes, not O(world). A panel run starts with :meth:`start_run`,
    which forgets them (another process may have changed the directory
    since) and reclaims stale tmp files once for the whole run.
    """

    def __init__(self, directory: str | Path, fingerprint: str):
        super().__init__(directory, fingerprint)
        self._present: set[str] = set()

    @property
    def panel_directory(self) -> Path:
        """This panel's namespaced subdirectory under the root."""
        return self.namespace_directory

    @property
    def cells_directory(self) -> Path:
        """The digest-keyed cell CAS under the panel directory."""
        return self.panel_directory / _CELLS_SUBDIR

    def wave_path(self, wave: int) -> Path:
        """Path of one wave's manifest."""
        return self.panel_directory / f"wave-{wave:04d}.json"

    def cell_path(self, digest: str) -> Path:
        """Path of one cell's CAS entry."""
        return self.cells_directory / f"{digest}.json"

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    def _cell_document(self, digest: str, payload: dict) -> bytes:
        """One CAS entry's bytes: the canonical JSON of ``{"format",
        "digest", "payload_sha256", "payload"}``, with the payload
        encoded once — its canonical form is both what the checksum
        hashes and what the document embeds."""
        body = canonical_json(payload)
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return (f'{{"digest":{json.dumps(digest)},'
                f'"format":{FORMAT_VERSION},"payload":{body},'
                f'"payload_sha256":"{checksum}"}}').encode("utf-8")

    def start_run(self) -> None:
        """Begin a panel run: trust no remembered CAS entry, and sweep
        the stale tmp files crashed writers left behind."""
        self._present = set()
        sweep_stale_tmp_files(self.panel_directory)
        sweep_stale_tmp_files(self.cells_directory)

    def _new_cell_documents(self, cells: "ShardResult",
                            digests: "WaveDigests"):
        """``(path, document bytes)`` for each of the wave's digests not
        yet in the CAS, built lazily so a batch holds one chunk. Only
        digests the last wave did not publish or load are probed."""
        present = self._present
        for cell, digest in digests.q12.items():
            if digest in present:
                continue
            path = self.cell_path(digest)
            if not path.exists():
                yield path, self._cell_document(digest, {
                    "kind": "q12",
                    **_q12_entry(cell, cells.q12_records[cell])})
        for block, digest in digests.q3.items():
            if digest in present:
                continue
            path = self.cell_path(digest)
            if not path.exists():
                yield path, self._cell_document(digest, {
                    "kind": "q3",
                    **_q3_entry(block, cells.q3_outcomes[block])})

    def _remember(self, refs: dict) -> None:
        """The CAS entries a wave's references name are now known to
        exist; the ones an earlier wave named are forgotten."""
        self._present = {ref[-1] for kind in ("q12", "q3")
                         for ref in refs[kind]}

    def save_wave(
        self,
        wave: int,
        horizon_years: int,
        cells: "ShardResult",
        counts: dict[str, int],
        digests: "WaveDigests",
    ) -> Path:
        """Publish one completed wave: its new CAS entries as one
        atomic batch, then the manifest (atomically) — a crash between
        the two leaves only unreferenced cell files, which the sweep
        reclaims.

        Digests whose CAS file already exists are skipped, so the
        per-wave write cost is exactly the churned digests; only the
        digests the last wave did not publish or load are probed.
        """
        self.cells_directory.mkdir(parents=True, exist_ok=True)
        atomic_write_batch(self._new_cell_documents(cells, digests))
        q12_refs = [[cell.isp_id, cell.state, cell.cbg, digest]
                    for cell, digest in digests.q12.items()]
        q3_refs = [[block, digest] for block, digest in digests.q3.items()]
        refs = {"q12": q12_refs, "q3": q3_refs}
        document = {
            "format": FORMAT_VERSION,
            "fingerprint": self._fingerprint,
            "wave": wave,
            "horizon_years": horizon_years,
            "counts": counts,
            "cells_sha256": content_digest(refs),
            "cells": refs,
        }
        path = self.wave_path(wave)
        atomic_write_text(path, json.dumps(document, sort_keys=True))
        self._remember(refs)
        return path

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def _load_manifest(self, wave: int) -> dict | None:
        """One wave's parsed manifest, or ``None``."""
        document = self._owned_document(self.wave_path(wave))
        if (document is None
                or document.get("format") != FORMAT_VERSION
                or document.get("wave") != wave):
            return None
        return document

    def _load_cell_payload(self, digest: str) -> dict | None:
        """One verified CAS payload, or ``None`` on any damage.

        A *present but damaged* entry is quarantined (unlinked) before
        returning the miss: ``save_wave`` skips digests whose file
        exists, so without the unlink a corrupted referenced entry
        would survive every recompute and force the wave to re-collect
        on every later resume, forever. Unlinking makes the usual
        miss-recompute-republish cycle heal the store instead. The
        quarantine only fires for files *claiming this format* that
        fail their checks (and torn non-JSON files, unreadable to any
        version) — an entry written by a newer format is a plain miss,
        so a version rollback never deletes the newer store.
        """
        path = self.cell_path(digest)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except json.JSONDecodeError:
            self._quarantine(digest)
            return None
        if (not isinstance(document, dict)
                or document.get("format") != FORMAT_VERSION):
            return None
        payload = document.get("payload")
        if (document.get("digest") != digest
                or not isinstance(payload, dict)
                or content_digest(payload) != document.get("payload_sha256")):
            self._quarantine(digest)
            return None
        return payload

    def _quarantine(self, digest: str) -> None:
        """Unlink a damaged CAS entry, so the next publish rewrites it."""
        self._present.discard(digest)
        self.cell_path(digest).unlink(missing_ok=True)

    def _assemble_from_cas(self, document: dict) -> "ShardResult | None":
        from repro.runtime.executor import ShardResult

        refs = document.get("cells")
        if (not isinstance(refs, dict)
                or content_digest(refs) != document.get("cells_sha256")):
            return None
        result = ShardResult(index=0, count=1)
        try:
            for isp_id, state, cbg, digest in refs["q12"]:
                payload = self._load_cell_payload(digest)
                if payload is None:
                    return None
                if (payload.get("kind") != "q12"
                        or (payload["isp_id"], payload["state"],
                            payload["cbg"]) != (isp_id, state, cbg)):
                    # Internally consistent but serving the wrong cell
                    # for its address: manifest/CAS skew. Quarantine it
                    # too, or the recompute's republish would skip the
                    # existing file and the wave could never heal.
                    self._quarantine(digest)
                    return None
                cell, records = _q12_from_entry(payload)
                result.q12_records[cell] = records
            for block, digest in refs["q3"]:
                payload = self._load_cell_payload(digest)
                if payload is None:
                    return None
                if (payload.get("kind") != "q3"
                        or payload["block_geoid"] != block):
                    self._quarantine(digest)
                    return None
                result.q3_outcomes[block] = _q3_from_entry(payload)[1]
        except (KeyError, TypeError, ValueError):
            return None
        return result

    def load_wave(
        self, wave: int
    ) -> "tuple[ShardResult, dict] | None":
        """Reload one wave: ``(cells, manifest)`` or ``None``.

        ``None`` covers every way the wave can be unusable — missing,
        torn, checksum-mismatched, foreign fingerprint, a missing or
        damaged CAS entry, or an unknown format version — so callers
        simply recompute.
        """
        document = self._load_manifest(wave)
        if document is None:
            return None
        cells = self._assemble_from_cas(document)
        if cells is None:
            return None
        self._remember(document["cells"])
        manifest = {
            "wave": wave,
            "format": document["format"],
            "horizon_years": document.get("horizon_years"),
            "counts": dict(document.get("counts", {})),
        }
        return cells, manifest

    def waves(self) -> list[int]:
        """Indices of waves currently stored, sorted."""
        if not self.panel_directory.exists():
            return []
        indices = []
        for path in sorted(self.panel_directory.glob("wave-*.json")):
            try:
                indices.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return indices

    # ------------------------------------------------------------------
    # garbage collection and accounting
    # ------------------------------------------------------------------

    def referenced_digests(self) -> set[str]:
        """Every digest some intact wave manifest references."""
        referenced: set[str] = set()
        for wave in self.waves():
            document = self._load_manifest(wave)
            if document is None:
                continue
            refs = document.get("cells")
            if (not isinstance(refs, dict)
                    or content_digest(refs)
                    != document.get("cells_sha256")):
                continue
            referenced.update(ref[-1] for ref in refs.get("q12", ()))
            referenced.update(ref[-1] for ref in refs.get("q3", ()))
        return referenced

    def sweep_unreferenced_cells(self) -> list[str]:
        """Delete CAS entries no intact manifest references.

        The reference set is recomputed from the manifests on disk at
        sweep time, so the sweep can never strand a wave a later
        ``--resume`` will load — a digest is only reclaimed once no
        manifest (current horizons or not) still names it. Returns the
        digests removed.
        """
        if not self.cells_directory.exists():
            return []
        referenced = self.referenced_digests()
        removed = []
        for path in sorted(self.cells_directory.glob("*.json")):
            if path.stem in referenced:
                continue
            path.unlink(missing_ok=True)
            removed.append(path.stem)
        sweep_stale_tmp_files(self.cells_directory)
        return removed

    def total_bytes(self) -> int:
        """On-disk size of this panel's manifests and CAS entries."""
        if not self.panel_directory.exists():
            return 0
        total = 0
        for path in self.panel_directory.rglob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total
