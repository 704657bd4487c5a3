"""The always-on audit service: submissions in, journal entries out.

:class:`AuditService` is the long-lived coordinator the one-shot CLI
never was. It listens on the distributed runtime's SHA-256
framed-socket protocol (:func:`~repro.runtime.distributed.read_frame`
/ :func:`~repro.runtime.distributed.write_frame` — same frames, same
transports: a Unix socket path or TCP ``host:port``), accepts
campaign and panel *submissions* into a queue, and drives them
in-process through the ordinary runtime — campaigns through
``dispatch_shards`` with the journal as their shard log, panels
through :class:`~repro.longitudinal.campaign.PanelCampaign`.

Every lifecycle step is an entry in the hash-chained
:class:`~repro.service.journal.Journal`, and the journal is the
service's *only* durable state: a restarted daemon replays it,
re-enqueues unfinished jobs, and resumes their campaigns from the
journaled shard records — no checkpoint directory, nothing to
heal. Kill the daemon at any instruction and
``Journal.replay()`` reconstructs exactly the completed-shard state a
:class:`~repro.runtime.checkpoint.CheckpointStore` resume would have
loaded (the equivalence harness proves the two byte-equal).

Request vocabulary (one frame in, one frame out, per request;
connections are persistent):

``ping``
    Liveness + tip: ``{"type": "pong", "tip_seq", "tip_digest"}``.
``submit``
    ``{"type": "submit", "spec": {...}}`` — a campaign or panel job
    (see :func:`validate_spec`). Acknowledged only after the
    ``submitted`` journal entry is fsynced.
``status`` / ``jobs``
    One job's replayed state, or every job's.
``query``
    The read API (:mod:`repro.service.reader`): sealed wave analyses,
    panel CAS cells, cached analysis rows — served from caches, never
    recomputed.
``pull``
    The follower feed: journal entries from an offset, long-polling
    up to ``wait`` seconds when the requested offset is past the tip
    (see :mod:`repro.service.follower`).
``metrics``
    The live ops surface: the daemon's metrics registry as canonical
    JSON plus Prometheus text (:mod:`repro.obs.metrics`). Read-only —
    the journal is untouched.
``trace``
    The daemon's span buffer (and, given a ``fingerprint``, the
    published trace sidecar) for ``repro trace`` to stitch and render.
``shutdown``
    Stop the service loop (the daemon's clean exit; SIGKILL is the
    tested one).
"""

from __future__ import annotations

import os
import queue
import socket
import tempfile
import threading
from pathlib import Path

from repro.bqt.engine import EngineConfig
from repro.core.sampling import SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import (
    BUFFER as _TRACE_BUFFER,
    adopt_trace_context,
    configure_tracing,
    current_trace_context,
    span,
    trace_dir_from_environment,
    tracing_enabled,
)
from repro.runtime.cache import content_digest
from repro.runtime.checkpoint import (
    _record_to_json,
    campaign_fingerprint,
    shard_record,
)
from repro.runtime.distributed import (
    PROTOCOL_VERSION,
    FrameError,
    _connect,
    _scenario_from_json,
    read_frame,
    write_frame,
)
from repro.runtime.executor import RuntimeConfig, dispatch_shards
from repro.runtime.shards import DEFAULT_ISPS
from repro.service.journal import CoordinatorState, Journal, service_fingerprint
from repro.service.reader import ServiceReader
from repro.synth.scenario import ScenarioConfig

__all__ = ["AuditService", "ServiceClient", "validate_spec"]

# How long the accept loop sleeps between stop-flag checks.
_ACCEPT_POLL_SECONDS = 0.2

# Hard cap on one pull response's entry count: a shard-completed entry
# embeds a full checkpoint payload, and an unbounded batch could build
# an arbitrarily large frame in memory.
_MAX_PULL_ENTRIES = 256

_JOB_KINDS = ("campaign", "panel")


def _int_at_least(spec: dict, name: str, default: int, floor: int) -> int:
    value = spec.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < floor:
        raise ValueError(f"spec {name} must be an integer >= {floor}")
    return value


def _subset(spec: dict, name: str, allowed: tuple[str, ...]):
    """``spec[name]`` as a tuple drawn from ``allowed``; ``None`` if unset."""
    values = spec.get(name)
    if not values:
        return None
    if (not isinstance(values, (list, tuple))
            or any(value not in allowed for value in values)):
        raise ValueError(f"spec {name} must be a list drawn from "
                         f"{list(allowed)}")
    return tuple(values)


def _job_inputs(spec: dict) -> tuple[ScenarioConfig, dict]:
    """A submission's scenario and campaign inputs, decoded and checked.

    The one parser of a job's inputs — :func:`validate_spec` runs it at
    the socket, the job runners on the journaled spec — so a job is
    refused exactly when it could not run. ``ValueError`` on junk.
    """
    from repro.synth.churn import ChurnModel

    try:
        scenario = _scenario_from_json(spec["scenario"])
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"spec scenario does not decode: {error}") \
            from None
    if not isinstance(scenario, ScenarioConfig):
        raise ValueError("spec scenario must be a base scenario")
    inputs = {
        "isps": _subset(spec, "isps", DEFAULT_ISPS) or DEFAULT_ISPS,
        "states": _subset(spec, "states", scenario.states),
        "q3_states": _subset(spec, "q3_states", scenario.q3_states),
        "max_replacements": _int_at_least(spec, "max_replacements", 2, 0),
    }
    for name, kind in (("policy", SamplingPolicy),
                       ("engine_config", EngineConfig),
                       ("model", ChurnModel)):
        try:
            inputs[name] = kind(**spec[name]) if spec.get(name) else None
        except (TypeError, ValueError) as error:
            raise ValueError(f"spec {name} does not decode: {error}") \
                from None
    return scenario, inputs


def validate_spec(spec) -> dict:
    """Normalize one submission spec; raises ``ValueError`` on junk.

    A spec is ``{"kind": "campaign"|"panel", "scenario": {...}, ...}``
    with the scenario in the distributed protocol's JSON form. Every
    campaign input is decoded *now* — a submission the runtime cannot
    execute must be refused at the socket, not discovered as a failed
    job hours later.
    """
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    kind = spec.get("kind", "campaign")
    if kind not in _JOB_KINDS:
        raise ValueError(f"spec kind must be one of {_JOB_KINDS}, "
                         f"got {kind!r}")
    _job_inputs(spec)
    shards = _int_at_least(spec, "shards", 1, 1)
    if kind == "panel":
        horizons = spec.get("horizons", [1])
        if (not isinstance(horizons, list) or not horizons
                or any(not isinstance(h, int) or h < 1 for h in horizons)
                or horizons != sorted(set(horizons))):
            raise ValueError("spec horizons must be a strictly increasing "
                             "list of positive years")
    normalized = dict(spec)
    normalized["kind"] = kind
    normalized["shards"] = shards
    return normalized


class _JobShardLog:
    """A campaign job's shard log (see :func:`dispatch_shards`): the
    journal's ``shard-completed`` entries, appended through the
    service's append-and-fold path."""

    def __init__(self, service: "AuditService", job_id: str,
                 fingerprint: str):
        self._service = service
        self._job_id = job_id
        self._fingerprint = fingerprint

    def load_completed(self) -> dict:
        return self._service.journal.completed_shard_results(
            self._fingerprint)

    def save_shard(self, result) -> None:
        self._service._record({"kind": "shard-completed",
                               "job": self._job_id,
                               **shard_record(self._fingerprint, result)})


class AuditService:
    """One always-on audit coordinator over a journal.

    ``journal_dir`` is the journal root (shared with other services'
    journals safely — fingerprint namespacing); ``name`` identifies
    this logical service across restarts. ``address`` is a Unix
    socket path or TCP ``host:port`` (``host:0`` binds an ephemeral
    port, resolved on :attr:`address` after :meth:`start`); ``None``
    picks a fresh Unix socket in a tempdir. ``store_dir`` roots the
    panel CAS + row cache the read API serves from.

    ``start_worker=False`` leaves the submission queue paused —
    submissions are journaled and acknowledged but never executed —
    which is how the benchmark isolates ingest throughput.
    """

    def __init__(
        self,
        journal_dir: str | Path,
        name: str = "audit",
        address: str | None = None,
        store_dir: str | Path | None = None,
        start_worker: bool = True,
    ):
        self._name = name
        self._journal = Journal(journal_dir, service_fingerprint(name))
        self._store_dir = None if store_dir is None else Path(store_dir)
        self._reader = ServiceReader(self._journal,
                                     store_root=self._store_dir)
        self._requested_address = address
        self._address: str | None = None
        self._tmpdir: str | None = None
        self._start_worker = start_worker
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._stop = threading.Event()
        self._lock = threading.Lock()  # append + state fold, atomically
        self._state = self._journal.replay()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        if tracing_enabled():
            configure_tracing(service_fingerprint(name), site="daemon")

    # ------------------------------------------------------------------
    # state + journal (the only mutation path)
    # ------------------------------------------------------------------

    @property
    def journal(self) -> Journal:
        return self._journal

    @property
    def state(self) -> CoordinatorState:
        return self._state

    @property
    def address(self) -> str:
        """The bound address (resolved: TCP port 0 becomes the real
        port). Only meaningful after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("service is not started")
        return self._address

    def _record(self, event: dict) -> None:
        """Journal one event and fold it into live state, atomically —
        a status query can never observe a journaled-but-unfolded
        entry or vice versa."""
        with self._lock:
            entry = self._journal.append(event)
            self._state.apply(entry)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _bind(self) -> None:
        address = self._requested_address
        if address is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-service-")
            address = os.path.join(self._tmpdir, "service.sock")
        if os.sep in address or ":" not in address:
            listener = socket.socket(socket.AF_UNIX)
            listener.bind(address)
            self._address = address
        else:
            host, _, port = address.rpartition(":")
            listener = socket.socket(socket.AF_INET)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, int(port)))
            self._address = "%s:%d" % listener.getsockname()[:2]
        listener.listen(16)
        listener.settimeout(_ACCEPT_POLL_SECONDS)
        self._listener = listener

    def start(self) -> "AuditService":
        """Bind, recover, and serve in background threads.

        Recovery is the journal replay already done at construction:
        every journaled job that never reached a terminal state is
        re-enqueued (its completed shards replay from the journal, so
        only the remainder executes).
        """
        self._bind()
        for job_id, job in self._state.jobs.items():
            if job.status not in ("completed", "failed"):
                self._queue.put(job_id)
        accept = threading.Thread(target=self._accept_loop, daemon=True,
                                  name="service-accept")
        accept.start()
        self._threads.append(accept)
        if self._start_worker:
            worker = threading.Thread(target=self._worker_loop, daemon=True,
                                      name="service-worker")
            worker.start()
            self._threads.append(worker)
        return self

    def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (the CLI entry point)."""
        self.start()
        self._stop.wait()
        self.close()

    def stop(self) -> None:
        self._stop.set()

    def close(self) -> None:
        self.stop()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for thread in list(self._threads):
            thread.join(timeout=5)
        self._threads.clear()
        self._journal.close()
        if self._tmpdir is not None:
            import shutil

            shutil.rmtree(self._tmpdir, ignore_errors=True)
            self._tmpdir = None

    def __enter__(self) -> "AuditService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the accept loop and request protocol
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            thread = threading.Thread(target=self._serve_client,
                                      args=(conn,), daemon=True,
                                      name="service-client")
            thread.start()
            # Register so close() can join instead of abandoning the
            # client mid-frame; prune finished handles so a long-lived
            # daemon doesn't accumulate them.
            self._threads.append(thread)
            self._threads[:] = [t for t in self._threads if t.is_alive()]

    def _serve_client(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while not self._stop.is_set():
                try:
                    message = read_frame(stream)
                except (EOFError, OSError):
                    return
                except FrameError as error:
                    # A damaged request gets a damage report, not a
                    # hangup: the client's retry is one frame away.
                    try:
                        write_frame(stream, {"type": "error",
                                             "error": str(error)})
                        continue
                    except OSError:
                        return
                response = self._handle(message)
                try:
                    write_frame(stream, response)
                except OSError:
                    return
                if message.get("type") == "shutdown":
                    self._stop.set()
                    return
        finally:
            try:
                stream.close()
            except OSError:
                pass
            conn.close()

    def _handle(self, message: dict) -> dict:
        kind = message.get("type")
        if kind == "ping":
            return {"type": "pong", "protocol": PROTOCOL_VERSION,
                    "service": self._name,
                    "tip_seq": self._journal.tip_seq,
                    "tip_digest": self._journal.tip_digest}
        if kind == "submit":
            return self._handle_submit(message)
        if kind == "status":
            job = self._state.jobs.get(message.get("job"))
            if job is None:
                return {"type": "error",
                        "error": f"unknown job {message.get('job')!r}"}
            return {"type": "status", "job": job.job_id,
                    "state": job.to_payload()}
        if kind == "jobs":
            return {"type": "jobs",
                    "jobs": [job.to_payload()
                             for job in self._state.jobs.values()]}
        if kind == "query":
            return self._handle_query(message)
        if kind == "metrics":
            return self._handle_metrics()
        if kind == "trace":
            return self._handle_trace(message)
        if kind == "pull":
            return self._handle_pull(message)
        if kind == "shutdown":
            return {"type": "bye"}
        return {"type": "error", "error": f"unknown request type {kind!r}"}

    def _handle_submit(self, message: dict) -> dict:
        try:
            spec = validate_spec(message.get("spec"))
        except ValueError as error:
            return {"type": "error", "error": str(error)}
        if tracing_enabled():
            # Stitch this daemon's job spans under the submitter's
            # campaign trace; an absent/invalid context re-roots at
            # the daemon's own fingerprint-derived trace instead.
            adopt_trace_context(message.get("trace_context"))
        with self._lock:
            # Deterministic ids — a job is its submission position plus
            # its content, so a replayed journal names the same jobs.
            seq = self._journal.tip_seq + 1
            job_id = "job-" + content_digest({"seq": seq, "spec": spec})[:12]
            entry = self._journal.append(
                {"kind": "submitted", "job": job_id, "spec": spec})
            self._state.apply(entry)
        self._queue.put(job_id)
        return {"type": "accepted", "job": job_id, "seq": entry.seq,
                "digest": entry.digest}

    def _handle_query(self, message: dict) -> dict:
        try:
            hit, payload = self._reader.query(message)
        except ValueError as error:
            return {"type": "error", "error": str(error)}
        response = {"type": "result", "hit": hit, "payload": payload}
        if not hit and not any(
                job.status == "completed"
                for job in self._state.jobs.values()):
            # A miss against a service with nothing sealed yet is an
            # expected state, not damage: say so in a typed field the
            # client can render instead of an opaque miss.
            response["empty"] = True
            response["reason"] = ("service has no completed jobs yet; "
                                  "nothing is served until one seals")
        return response

    def _handle_metrics(self) -> dict:
        """The live ops surface (read-only; the journal is untouched)."""
        return {"type": "metrics",
                "snapshot": _METRICS.snapshot(),
                "prometheus": _METRICS.render_prometheus()}

    def _handle_trace(self, message: dict) -> dict:
        """Serve spans: the live buffer, or a published sidecar trace."""
        fingerprint = message.get("fingerprint")
        if isinstance(fingerprint, str) and fingerprint:
            from repro.obs.trace import TraceStore

            root = trace_dir_from_environment()
            if root is None and self._store_dir is not None:
                root = self._store_dir / "traces"
            if root is None or not fingerprint.isalnum():
                return {"type": "trace", "trace_id": None, "spans": []}
            store = TraceStore(root, fingerprint)
            return {"type": "trace", "trace_id": None,
                    "spans": store.load_spans()}
        return {"type": "trace", "trace_id": _TRACE_BUFFER.trace_id,
                "spans": _TRACE_BUFFER.snapshot()}

    def _handle_pull(self, message: dict) -> dict:
        start = message.get("from", 0)
        if not isinstance(start, int) or start < 0:
            return {"type": "error", "error": "pull 'from' must be a "
                                              "non-negative integer"}
        limit = min(int(message.get("max") or _MAX_PULL_ENTRIES),
                    _MAX_PULL_ENTRIES)
        wait = float(message.get("wait") or 0.0)
        if wait > 0:
            # Long-poll: a caught-up follower parks here instead of
            # hammering the socket with empty pulls.
            self._journal.wait_for(start, timeout=min(wait, 30.0))
        entries = self._journal.entries(start, limit=limit)
        return {"type": "entries",
                "entries": [entry.to_json() for entry in entries],
                "tip_seq": self._journal.tip_seq,
                "tip_digest": self._journal.tip_digest}

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=_ACCEPT_POLL_SECONDS)
            except queue.Empty:
                continue
            job = self._state.jobs.get(job_id)
            if job is None or job.status in ("completed", "failed"):
                continue
            self._record({"kind": "started", "job": job_id})
            try:
                with span("service.job", job=job_id, kind=job.kind):
                    if job.kind == "panel":
                        result = self._run_panel(job_id, job.spec)
                    else:
                        result = self._run_campaign(job_id, job.spec)
            except Exception as error:  # noqa: BLE001 — journaled
                self._record({"kind": "failed", "job": job_id,
                              "error": f"{type(error).__name__}: {error}"})
            else:
                self._record({"kind": "completed", "job": job_id,
                              "result": result})

    def _run_campaign(self, job_id: str, spec: dict) -> dict:
        """One campaign job, journal-checkpointed shard by shard."""
        from repro.runtime.merge import merge_shard_results
        from repro.runtime.shards import plan_shards
        from repro.synth.world import build_world

        scenario, inputs = _job_inputs(spec)
        policy = inputs["policy"]
        scope = {name: inputs[name] for name in ("isps", "states",
                                                 "q3_states")}
        world = build_world(scenario)
        shards = spec["shards"]
        fingerprint = campaign_fingerprint(
            scenario, policy, shard_count=shards,
            max_replacements=inputs["max_replacements"], **scope)
        self._record({"kind": "campaign-planned", "job": job_id,
                      "fingerprint": fingerprint, "shards": shards})
        specs = plan_shards(world, shards, **scope)
        # The journal is this daemon's shard log: shards it already
        # holds (from a previous life of the daemon) replay instead of
        # re-executing.
        completed = dispatch_shards(
            world, specs, RuntimeConfig(shards=shards, backend="serial"),
            _JobShardLog(self, job_id, fingerprint), policy=policy,
            engine_config=inputs["engine_config"],
            max_replacements=inputs["max_replacements"])
        collection, q3 = merge_shard_results(world, specs, completed,
                                             policy=policy, **scope)
        logbook_sha = content_digest({
            "q12": [_record_to_json(r) for r in collection.log],
            "q3": [_record_to_json(r) for r in q3.log],
        })
        self._record({"kind": "campaign-sealed", "job": job_id,
                      "fingerprint": fingerprint,
                      "logbook_sha256": logbook_sha})
        return {"fingerprint": fingerprint,
                "q12_records": len(collection.log),
                "q3_records": len(q3.log),
                "logbook_sha256": logbook_sha}

    def _run_panel(self, job_id: str, spec: dict) -> dict:
        """One panel job: waves through the longitudinal machinery.

        The panel persists into the service's ``store_dir`` (cell packs
        + disk-backed analysis rows), which is exactly what the read
        API serves from — running a panel *warms the reader*; after
        the last wave the row packs holding no live wave's digest are
        swept. Each wave's changed cells are dealt onto the spec's
        ``shards``, run serially like a campaign job's.
        """
        from repro.analysis.incremental import (
            row_cache_for,
            wave_analysis,
        )
        from repro.longitudinal.campaign import PanelCampaign
        from repro.synth.world import build_world

        scenario, inputs = _job_inputs(spec)
        store_dir = (str(self._store_dir)
                     if self._store_dir is not None else None)
        campaign = PanelCampaign(
            build_world(scenario), horizons=tuple(spec.get("horizons", [1])),
            runtime=RuntimeConfig(shards=spec["shards"], backend="serial"),
            store_dir=store_dir, resume=store_dir is not None, **inputs)
        rows = row_cache_for(campaign, directory=store_dir)
        sealed = []
        live_digests: set[str] = set()
        for outcome in campaign.waves():
            self._record({"kind": "wave-planned", "job": job_id,
                          "wave": outcome.wave,
                          "horizon_years": outcome.horizon_years})
            live_digests.update(outcome.digests.q12.values())
            live_digests.update(outcome.digests.q3.values())
            analysis = wave_analysis(outcome, cache=rows)
            self._record({
                "kind": "wave-sealed", "job": job_id,
                "wave": outcome.wave,
                "analysis": analysis.to_payload(),
                "panel_fingerprint": campaign.fingerprint,
                "rows_namespace": rows.namespace,
                "restored": outcome.restored_from_store,
            })
            sealed.append(outcome.wave)
        if store_dir is not None:
            rows.sweep_unreferenced(live_digests)
        self._record({"kind": "swept", "job": job_id,
                      "panel_fingerprint": campaign.fingerprint})
        return {"panel_fingerprint": campaign.fingerprint,
                "waves": sealed, "rows_namespace": rows.namespace}


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------

class ServiceClient:
    """One persistent client connection to an :class:`AuditService`.

    Thin: every method is one request frame and one response frame
    over the shared protocol. Addresses are the distributed module's
    (Unix path or ``host:port``).
    """

    def __init__(self, address: str):
        self._sock = _connect(address)
        self._stream = self._sock.makefile("rwb")

    def request(self, message: dict) -> dict:
        write_frame(self._stream, message)
        return read_frame(self._stream)

    def close(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # convenience wrappers ------------------------------------------------

    def ping(self) -> dict:
        response = self.request({"type": "ping"})
        # Daemons that predate versioned pongs omit the key.
        peer = response.get("protocol", PROTOCOL_VERSION)
        if peer != PROTOCOL_VERSION:
            raise RuntimeError(
                f"protocol skew: daemon speaks {peer!r}, this client "
                f"speaks {PROTOCOL_VERSION!r}")
        return response

    def submit(self, spec: dict) -> dict:
        frame = {"type": "submit", "spec": spec}
        context = current_trace_context()
        if context is not None:
            # Versioned span-stitching context; pre-obs daemons ignore
            # the extra key and decode the frame unchanged.
            frame["trace_context"] = context
        response = self.request(frame)
        if response.get("type") != "accepted":
            raise RuntimeError(
                f"submission refused: {response.get('error', response)}")
        return response

    def status(self, job_id: str) -> dict:
        return self.request({"type": "status", "job": job_id})

    def jobs(self) -> list[dict]:
        return self.request({"type": "jobs"}).get("jobs", [])

    def query(self, **what) -> dict:
        return self.request({"type": "query", **what})

    def metrics(self) -> dict:
        return self.request({"type": "metrics"})

    def trace(self, fingerprint: str | None = None) -> dict:
        frame: dict = {"type": "trace"}
        if fingerprint is not None:
            frame["fingerprint"] = fingerprint
        return self.request(frame)

    def pull(self, start: int, max_entries: int | None = None,
             wait: float = 0.0) -> dict:
        return self.request({"type": "pull", "from": start,
                             "max": max_entries, "wait": wait})

    def shutdown(self) -> dict:
        return self.request({"type": "shutdown"})

    def wait_for_job(self, job_id: str, timeout: float = 60.0,
                     poll: float = 0.1) -> dict:
        """Poll until a job reaches a terminal state (test helper)."""
        import time

        deadline = time.monotonic() + timeout
        while True:
            response = self.status(job_id)
            state = response.get("state") or {}
            if state.get("status") in ("completed", "failed"):
                return state
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state.get('status')!r} after "
                    f"{timeout}s")
            time.sleep(poll)
