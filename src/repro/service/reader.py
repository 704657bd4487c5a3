"""The service's read API: audit results straight from the caches.

A served result is never recomputed. Three sources, in cost order:

* **journal state** — job status and sealed wave-analysis payloads
  are part of the replayed :class:`~repro.service.journal
  .CoordinatorState`, refreshed only when the journal tip moves;
* **panel store** — per-cell record payloads come from the
  :class:`~repro.longitudinal.store.PanelStore` cell packs the panel
  campaign already published (digest-verified by the store itself);
* **row cache** — per-cell analysis rows come from the
  :class:`~repro.analysis.incremental.WaveRowCache` packs the
  incremental analysis already wrote.

The reader keeps one store and one row cache per panel, so each reads
its index once per process (again when a lookup misses and new waves
or packs appeared). Replies are memoized per digest, so a repeated
query is an in-memory dictionary hit — the :attr:`ServiceReader.hits` /
:attr:`misses` counters are what ``bench_service.py`` measures as
reader QPS. The reader works against a *live* journal inside the
daemon and equally against a journal opened read-only by an offline
analysis process: both are just folds of the same verified entries.
"""

from __future__ import annotations

from pathlib import Path

from repro.service.journal import CoordinatorState, Journal

__all__ = ["ServiceReader"]


class ServiceReader:
    """Cached reads over one service's journal + panel store root."""

    def __init__(self, journal: Journal,
                 store_root: str | Path | None = None):
        self._journal = journal
        self._store_root = None if store_root is None else Path(store_root)
        self._state: CoordinatorState | None = None
        self._state_tip = -2  # never equal to a real tip_seq
        # (fingerprint, digest) → cell payload; (namespace, kind,
        # digest) → analysis row. Both immutable once published
        # (content-addressed), so memoization can never serve stale.
        self._cells: dict[tuple[str, str], dict] = {}
        self._rows: dict[tuple[str, str, str], dict | None] = {}
        self._stores: dict = {}
        self._row_caches: dict = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # journal-backed state
    # ------------------------------------------------------------------

    def state(self) -> CoordinatorState:
        """The replayed coordinator state, refreshed on tip movement.

        Incremental: only entries past the last folded tip are
        applied, so polling the state of a busy service costs O(new
        entries), not O(journal).
        """
        tip = self._journal.tip_seq
        if self._state is None:
            self._state = self._journal.replay()
            self._state_tip = self._state.tip_seq
        elif tip > self._state_tip:
            for entry in self._journal.entries(self._state_tip + 1):
                self._state.apply(entry)
            self._state_tip = self._state.tip_seq
        return self._state

    def job(self, job_id: str) -> dict | None:
        """One job's replayed state payload, or ``None``."""
        job = self.state().jobs.get(job_id)
        return None if job is None else job.to_payload()

    def wave_analysis(self, job_id: str, wave: int) -> dict | None:
        """One sealed wave's analysis payload, or ``None``."""
        if not isinstance(wave, int) or isinstance(wave, bool):
            return None
        return self.state().analyses.get((job_id, wave))

    # ------------------------------------------------------------------
    # panel store + row cache
    # ------------------------------------------------------------------

    def _store(self, panel_fingerprint: str):
        # Kept once it served something: junk panels leave nothing.
        from repro.longitudinal.store import PanelStore

        return (self._stores.get(panel_fingerprint)
                or PanelStore(self._store_root, panel_fingerprint))

    def cell(self, panel_fingerprint: str, digest: str) -> dict | None:
        """One panel cell's record payload from the store, memoized."""
        key = (panel_fingerprint, digest)
        if key in self._cells:
            self.hits += 1
            return self._cells[key]
        if (self._store_root is None
                or not isinstance(panel_fingerprint, str)
                or not isinstance(digest, str)
                # Fingerprints name directories; anything non-hex is
                # junk (and a path separator would escape the store).
                or not panel_fingerprint.isalnum()
                or not digest.isalnum()):
            self.misses += 1
            return None
        store = self._store(panel_fingerprint)
        payload = store.cell(digest)
        self.misses += 1
        if payload is not None:
            self._cells[key] = payload
            self._stores[panel_fingerprint] = store
        return payload

    def row(self, namespace: str, kind: str, digest: str) -> dict | None:
        """One cached analysis row, memoized; ``None`` on miss (which
        covers both "never computed" and a legitimately-``None`` row —
        the read API does not distinguish them)."""
        from repro.analysis.incremental import WaveRowCache

        key = (namespace, kind, digest)
        if key in self._rows:
            self.hits += 1
            return self._rows[key]
        if (self._store_root is None
                or not isinstance(namespace, str)
                or not isinstance(kind, str)
                or not isinstance(digest, str)
                or not namespace.isalnum()
                or kind not in ("q12", "q3")
                or not digest.isalnum()):
            self.misses += 1
            return None
        cache = (self._row_caches.get(namespace)
                 or WaveRowCache(namespace, directory=self._store_root))
        hit, row = cache.lookup(kind, digest)
        if not hit:  # rows published since the cache read its packs
            cache.refresh()
            hit, row = cache.lookup(kind, digest)
        self.misses += 1
        if hit:
            self._rows[key] = row
            self._row_caches[namespace] = cache
        return row

    def wave_digests(self, panel_fingerprint: str,
                     wave: int) -> dict | None:
        """One stored wave's cell references (``{"q12": [...], "q3":
        [...]}``), the index a client walks to fetch cells/rows."""
        if self._store_root is None:
            return None
        if (not isinstance(wave, int) or isinstance(wave, bool)
                or not isinstance(panel_fingerprint, str)
                or not panel_fingerprint.isalnum()):
            return None
        store = self._store(panel_fingerprint)
        refs = store.wave_refs(wave)
        if refs is not None:
            self._stores[panel_fingerprint] = store
        return refs

    # ------------------------------------------------------------------
    # the wire-facing dispatcher
    # ------------------------------------------------------------------

    def query(self, message: dict) -> tuple[bool, object]:
        """Serve one ``query`` request; returns ``(hit, payload)``.

        ``hit`` is "the thing exists", not "it came from memory" —
        the wire client cares whether its query landed; the QPS bench
        reads the counters directly.
        """
        what = message.get("what")
        if what == "state":
            state = self.state()
            return True, {
                "tip_seq": state.tip_seq,
                "tip_digest": state.tip_digest,
                "jobs": {job_id: job.to_payload()
                         for job_id, job in state.jobs.items()},
            }
        if what == "job":
            payload = self.job(message.get("job"))
            return payload is not None, payload
        if what == "wave-analysis":
            payload = self.wave_analysis(message.get("job"),
                                         message.get("wave"))
            return payload is not None, payload
        if what == "wave-digests":
            payload = self.wave_digests(message.get("panel"),
                                        message.get("wave"))
            return payload is not None, payload
        if what == "cell":
            payload = self.cell(message.get("panel"), message.get("digest"))
            return payload is not None, payload
        if what == "row":
            payload = self.row(message.get("namespace"),
                               message.get("row_kind"),
                               message.get("digest"))
            return payload is not None, payload
        raise ValueError(f"unknown query {what!r}")
