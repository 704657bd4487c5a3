"""Distributed campaign execution: a coordinator leasing shards to workers.

The paper's measurement campaign ran as a fleet of remote BQT workers;
this backend (``RuntimeConfig(backend="distributed")``) gives the
reproduction that shape over the already process-shaped
``run_shard(scenario, spec)`` boundary. A *coordinator* owns the shard
partition and leases one shard at a time to each connected *worker*;
the worker runs it and streams the completed
:class:`~repro.runtime.executor.ShardResult` back as a checksummed
frame, which the coordinator checkpoints on arrival (via the
executor's ordinary ``on_complete`` path) before leasing the next
shard. A worker that vanishes mid-lease — socket EOF, a corrupt
frame, or a lease timeout — has its shard put back on the board and
re-leased to a surviving worker, so the merged output is the same
whether or not machines died along the way.

**Wire format.** Every message is a *frame*: a 4-byte big-endian
payload length, the 32-byte SHA-256 digest of the payload, then the
payload itself — canonical JSON (sorted keys, no whitespace). Shard
results reuse the exact JSON codecs of
:mod:`repro.runtime.checkpoint`, whose records round-trip floats by
shortest ``repr``; that is what makes the distributed merge
bit-identical to the serial path, enforced by the fifth column of
``tests/harness/equivalence.py``. The digest rejects torn or corrupted
frames (MABS-style batch verification: the receiver checks integrity
before acting), turning transport damage into a lease reassignment
instead of silent data corruption.

**Transports.** The protocol functions (:func:`read_frame` /
:func:`write_frame` and the per-connection service loop) operate on
plain binary file objects, so any byte stream works. The reference
transport shipped here — used by the equivalence and chaos tests —
is local subprocess workers (``repro worker --connect <address>``)
over a Unix-domain socket, with TCP ``host:port`` addresses also
accepted so workers can run on other machines.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path
from typing import BinaryIO, Callable

from repro.bqt.engine import EngineConfig
from repro.core.sampling import SamplingPolicy
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.trace import (BUFFER as _TRACE_BUFFER, adopt_trace_context,
                             current_trace_context, drain_spans,
                             ingest_spans, span, tracing_enabled)
from repro.runtime.checkpoint import _shard_from_json, _shard_to_json
from repro.runtime.shards import Q12Cell, ShardSpec
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import World

__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "FrameError",
    "MISSED_HEARTBEAT_LIMIT",
    "read_frame",
    "run_shards_distributed",
    "run_worker",
    "write_frame",
]

PROTOCOL_VERSION = 1

# A lease that produced no frame within this window is presumed lost.
DEFAULT_LEASE_TIMEOUT = 120.0

# Workers beat this often while computing a lease, so the coordinator
# can tell "still working" from "silently wedged" *inside* a lease
# instead of only at frame boundaries.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

# Consecutive missed beats before a silent worker's shard is requeued.
# The resulting window (interval x this) must stay well under the
# lease timeout, or heartbeats would add nothing over the old
# frame-boundary liveness.
MISSED_HEARTBEAT_LIMIT = 3

# How long the coordinator's accept loop sleeps between liveness checks.
_ACCEPT_POLL_SECONDS = 0.2

_LENGTH = struct.Struct(">I")
_DIGEST_BYTES = 32

# The abrupt-death exit code --die-after workers use (chaos testing);
# distinct from clean exits so tests can assert the death was real.
WORKER_DEATH_EXIT_CODE = 70


# ----------------------------------------------------------------------
# Frames: length-prefixed, SHA-256-verified JSON messages
# ----------------------------------------------------------------------

class FrameError(RuntimeError):
    """A frame arrived damaged (checksum mismatch or malformed JSON)."""


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    # bytearray append is amortized O(1); bytes concatenation would be
    # quadratic over a multi-megabyte shard-result frame.
    buffer = bytearray()
    while len(buffer) < size:
        chunk = stream.read(size - len(buffer))
        if not chunk:
            raise EOFError(
                f"stream closed {size - len(buffer)} bytes short of a frame")
        buffer += chunk
    return bytes(buffer)


def write_frame(stream: BinaryIO, message: dict) -> None:
    """Serialize one message as a checksummed frame and flush it."""
    payload = json.dumps(message, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    stream.write(_LENGTH.pack(len(payload))
                 + hashlib.sha256(payload).digest()
                 + payload)
    stream.flush()


def read_frame(stream: BinaryIO) -> dict:
    """Read one frame; raises :class:`FrameError` if it arrived damaged
    and :class:`EOFError` if the stream ended mid-frame."""
    (length,) = _LENGTH.unpack(_read_exact(stream, _LENGTH.size))
    digest = _read_exact(stream, _DIGEST_BYTES)
    payload = _read_exact(stream, length)
    if hashlib.sha256(payload).digest() != digest:
        raise FrameError("frame payload does not match its SHA-256 digest")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame payload is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise FrameError("frame payload must be a JSON object")
    return message


# ----------------------------------------------------------------------
# Message codecs (scenario/spec/policy travel as JSON, exactly)
# ----------------------------------------------------------------------

def _scenario_to_json(scenario) -> dict:
    """Inverse of :func:`_scenario_from_json`.

    ``asdict`` recurses through ``WaveScenario.base`` / ``.model``
    exactly the way the decoder rebuilds them; tuples become JSON
    arrays, which the decoder re-tuples.
    """
    return asdict(scenario)


def _scenario_from_json(data: dict):
    if "base" in data:
        # A longitudinal wave recipe: base scenario + churn model +
        # horizon (repro.synth.churn.WaveScenario). Workers realize it
        # instead of building the base world.
        from repro.synth.churn import ChurnModel, WaveScenario

        return WaveScenario(
            base=_scenario_from_json(data["base"]),
            years=data["years"],
            model=ChurnModel(**data["model"]),
        )
    data = dict(data)
    for key in ("states", "q3_states", "non_caf_fraction_range"):
        data[key] = tuple(data[key])
    return ScenarioConfig(**data)


def _spec_to_json(spec: ShardSpec) -> dict:
    return {
        "index": spec.index,
        "count": spec.count,
        "q12_cells": [[c.isp_id, c.state, c.cbg] for c in spec.q12_cells],
        "q3_blocks": list(spec.q3_blocks),
    }


def _spec_from_json(data: dict) -> ShardSpec:
    return ShardSpec(
        index=data["index"],
        count=data["count"],
        q12_cells=tuple(Q12Cell(isp_id=isp, state=state, cbg=cbg)
                        for isp, state, cbg in data["q12_cells"]),
        q3_blocks=tuple(data["q3_blocks"]),
    )


def _lease_message(
    scenario,
    spec: ShardSpec,
    policy: SamplingPolicy | None,
    engine_config: EngineConfig | None,
    max_replacements: int,
    max_inflight: int | None,
    per_isp_cap: int,
    heartbeat_interval: float | None = None,
    trace_context: dict | None = None,
) -> dict:
    return {
        "type": "lease",
        "protocol": PROTOCOL_VERSION,
        "scenario": _scenario_to_json(scenario),
        "spec": _spec_to_json(spec),
        "policy": None if policy is None else asdict(policy),
        "engine_config": (None if engine_config is None
                          else asdict(engine_config)),
        "max_replacements": max_replacements,
        # Protocol-1 keys, kept so workers of every release decode
        # it: ``max_inflight`` counts only when ``use_async`` is true.
        "use_async": max_inflight is not None,
        "max_inflight": max_inflight,
        "per_isp_cap": per_isp_cap,
        # None asks the worker not to beat (pre-heartbeat coordinators
        # simply omit the key, which decodes the same way).
        "heartbeat_interval": heartbeat_interval,
        # Versioned span-stitching context (repro.obs.trace); None when
        # tracing is off, and pre-obs coordinators simply omit the key
        # — either decodes the same way on any worker.
        "trace_context": trace_context,
    }


def _execute_lease(message: dict) -> dict:
    """Run one leased shard and build its result frame (worker side)."""
    from repro.runtime.executor import run_shard

    if tracing_enabled():
        # Join (or, for an old coordinator's context-free lease, leave)
        # the coordinator's trace so this shard's spans stitch under it.
        adopt_trace_context(message.get("trace_context"))
    policy = message["policy"]
    engine_config = message["engine_config"]
    result = run_shard(
        _scenario_from_json(message["scenario"]),
        _spec_from_json(message["spec"]),
        policy=None if policy is None else SamplingPolicy(**policy),
        engine_config=(None if engine_config is None
                       else EngineConfig(**engine_config)),
        max_replacements=message["max_replacements"],
        max_inflight=(message["max_inflight"] if message["use_async"]
                      else None),
        per_isp_cap=message["per_isp_cap"],
    )
    frame = {
        "type": "result",
        "index": result.index,
        "shard": _shard_to_json(result),
        # Politeness watermarks are diagnostic, not checkpointed — but
        # the coordinator's equivalence evidence needs them, so they
        # ride next to the shard payload.
        "politeness": result.politeness,
        # Metric deltas since the previous result frame; merged into
        # the coordinator's registry, never into the shard payload.
        "metrics": _METRICS.drain(),
    }
    if tracing_enabled():
        # Spans ride beside the shard payload the same way politeness
        # does: the coordinator ingests them into its trace buffer and
        # the checkpointed `shard` bytes stay untouched.
        frame["spans"] = drain_spans()
    return frame


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------

def _connect(address: str) -> socket.socket:
    """Connect to a coordinator address.

    An address containing a path separator or no colon at all is a
    Unix-domain socket path (the reference local transport); anything
    else is TCP ``host:port``. A colon-bearing socket *filename* must
    therefore be spelled with a separator (``./coord:1.sock``).
    """
    if os.sep in address or ":" not in address:
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(address)
        return sock
    host, _, port = address.rpartition(":")
    if not host:
        raise ValueError(f"worker address must be HOST:PORT or a socket "
                         f"path, got {address!r}")
    return socket.create_connection((host, int(port)))


def _execute_lease_with_heartbeats(stream: BinaryIO, message: dict) -> None:
    """Run one lease, beating while the shard computes.

    A daemon thread writes a heartbeat frame every
    ``heartbeat_interval`` seconds until the result is ready; the
    write lock keeps beat and result frames from interleaving on the
    stream. A worker that wedges (or is SIGSTOPped) stops beating —
    which is the whole point: silence, not just EOF, now reads as
    death on the coordinator side.
    """
    interval = message.get("heartbeat_interval")
    if not interval:
        write_frame(stream, _execute_lease(message))
        return
    index = message["spec"]["index"]
    done = threading.Event()
    write_lock = threading.Lock()

    def beat() -> None:
        while not done.wait(interval):
            try:
                with write_lock:
                    write_frame(stream, {"type": "heartbeat",
                                         "index": index})
            except OSError:
                return  # coordinator hung up; the result write will see it

    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    try:
        result = _execute_lease(message)
    finally:
        done.set()
        beater.join()
    with write_lock:
        write_frame(stream, result)


def run_worker(address: str, die_after: int | None = None,
               wedge_after: int | None = None) -> int:
    """One worker process: connect, run leases until told to stop.

    ``die_after`` is the chaos-testing hook: after completing that many
    shards, the worker dies *abruptly* on its next lease — no goodbye
    frame, just ``os._exit`` — the way a preempted VM or OOM-killed
    container dies, so the coordinator's reassignment path is exercised
    for real. ``wedge_after`` is its quieter sibling: the worker stays
    *alive* but goes silent on the lease (no heartbeats, no result),
    the way a deadlocked or swapping process hangs — exercising the
    missed-heartbeat requeue instead of the EOF path.
    """
    sock = _connect(address)
    stream = sock.makefile("rwb")
    completed = 0
    if tracing_enabled():
        # Label this process's spans so the stitched tree shows which
        # worker ran each shard. The trace id itself arrives with the
        # first lease's trace_context.
        _TRACE_BUFFER.site = f"worker-{os.getpid()}"
    try:
        write_frame(stream, {"type": "hello",
                             "protocol": PROTOCOL_VERSION,
                             "pid": os.getpid(),
                             # Capability flag: this worker beats while
                             # computing when the lease asks it to, so
                             # the coordinator may hold it to the
                             # missed-heartbeat window.
                             "heartbeats": True})
        while True:
            try:
                message = read_frame(stream)
            except EOFError:
                return 0  # coordinator is gone; nothing left to do
            kind = message.get("type")
            if kind == "shutdown":
                return 0
            if kind != "lease":
                raise FrameError(f"unexpected message type {kind!r}")
            # Pre-versioning coordinators omit the key; a *different*
            # version is a hard refusal — mixed codecs corrupt shards.
            peer = message.get("protocol", PROTOCOL_VERSION)
            if peer != PROTOCOL_VERSION:
                raise FrameError(
                    f"protocol skew: coordinator speaks {peer!r}, "
                    f"this worker speaks {PROTOCOL_VERSION!r}")
            if die_after is not None and completed >= die_after:
                os._exit(WORKER_DEATH_EXIT_CODE)
            if wedge_after is not None and completed >= wedge_after:
                while True:  # wedged: alive but silent
                    time.sleep(3600)
            _execute_lease_with_heartbeats(stream, message)
            completed += 1
    finally:
        stream.close()
        sock.close()


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

class _LeaseBoard:
    """Thread-safe shard board: pending → leased → completed.

    ``deliver`` runs the caller's ``on_complete`` under the board lock,
    which serializes checkpoint writes and progress callbacks exactly
    like the single-threaded backends, and makes duplicate delivery
    (a reassigned shard finishing twice) a no-op. An exception from
    ``on_complete`` (a failed checkpoint write, say) is captured on
    :attr:`error` and ends the campaign — the coordinator re-raises it
    — because the serial and process backends fail loudly there too.
    """

    def __init__(self, specs: list[ShardSpec],
                 on_complete: Callable) -> None:
        self._pending: deque[ShardSpec] = deque(specs)
        self._leased: dict[int, ShardSpec] = {}
        self._completed: set[int] = set()
        self._on_complete = on_complete
        self._lock = threading.Lock()
        self.done = threading.Event()
        self.error: BaseException | None = None
        if not specs:
            self.done.set()

    def checkout(self) -> ShardSpec | None:
        with self._lock:
            if self.error is not None or not self._pending:
                return None
            spec = self._pending.popleft()
            self._leased[spec.index] = spec
            return spec

    def requeue(self, spec: ShardSpec) -> None:
        with self._lock:
            self._leased.pop(spec.index, None)
            if spec.index not in self._completed:
                # Front of the queue: a lost shard is the oldest work.
                self._pending.appendleft(spec)

    def deliver(self, spec: ShardSpec, result) -> bool:
        with self._lock:
            self._leased.pop(spec.index, None)
            if spec.index in self._completed:
                return False
            self._completed.add(spec.index)
            try:
                self._on_complete(result)
            except BaseException as error:  # noqa: BLE001 — re-raised
                self.error = error
                self.done.set()
                return False
            if not self._pending and not self._leased:
                self.done.set()
            return True

    def outstanding(self) -> bool:
        with self._lock:
            return bool(self._pending or self._leased)


def _serve_connection(
    conn: socket.socket,
    board: _LeaseBoard,
    make_lease: Callable[[ShardSpec], dict],
    lease_timeout: float,
    on_abandon: Callable[[int], None] = lambda pid: None,
    heartbeat_interval: float | None = None,
    on_reassign: Callable[[ShardSpec], None] = lambda spec: None,
) -> None:
    """Drive one worker connection: lease, await result, repeat.

    Any failure — damaged frame, timeout, EOF, wrong shard index —
    requeues the outstanding lease and abandons the connection; the
    surviving fleet (or a respawned worker) picks the shard back up.
    ``on_abandon`` then receives the worker's hello pid so the
    transport can put the process down: a wedged-but-alive worker
    holding a dead connection must not count as fleet capacity, or
    the coordinator's liveness watch can never respawn around it.

    With ``heartbeat_interval`` set *and* the worker's hello frame
    advertising ``"heartbeats": true``, the lease asks the worker to
    beat while it computes, and the per-read timeout shrinks to the
    missed-heartbeat window (``interval x MISSED_HEARTBEAT_LIMIT``,
    never above the lease timeout): a worker that goes *silent*
    mid-lease is requeued within the window instead of holding its
    shard for the full lease timeout. The capability gate keeps skewed
    fleets safe — a pre-heartbeat worker (same wire protocol, no
    beats) computing a shard longer than the window would otherwise be
    abandoned while healthy, so it keeps the full lease timeout per
    read. The lease timeout stays the outer bound either way — a
    worker that keeps beating but never delivers is still cut off
    there.
    """
    stream = conn.makefile("rwb")
    spec: ShardSpec | None = None
    worker_pid: int | None = None
    try:
        conn.settimeout(lease_timeout)
        try:
            hello = read_frame(stream)
        except (FrameError, EOFError, OSError):
            return
        if hello.get("type") != "hello":
            return
        if hello.get("protocol", PROTOCOL_VERSION) != PROTOCOL_VERSION:
            return  # version-skewed worker; its shards stay leasable
        if isinstance(hello.get("pid"), int):
            worker_pid = hello["pid"]
        if heartbeat_interval and hello.get("heartbeats") is True:
            conn.settimeout(min(lease_timeout,
                                heartbeat_interval
                                * MISSED_HEARTBEAT_LIMIT))
        while True:
            spec = board.checkout()
            if spec is None:
                # Nothing leasable right now. If another worker's lease
                # later fails, the coordinator's liveness loop respawns
                # capacity, so it is safe to let this worker go.
                try:
                    write_frame(stream, {"type": "shutdown"})
                except OSError:
                    pass
                return
            try:
                write_frame(stream, make_lease(spec))
                deadline = time.monotonic() + lease_timeout
                while True:
                    message = read_frame(stream)
                    if message.get("type") != "heartbeat":
                        break
                    if time.monotonic() >= deadline:
                        # Beating but never delivering: the lease
                        # timeout is still the outer bound.
                        return
            except (FrameError, EOFError, OSError):
                return  # finally-block requeues
            if (message.get("type") != "result"
                    or message.get("index") != spec.index):
                return
            try:
                result = _shard_from_json(message["shard"])
                result.politeness = {
                    isp: int(peak) for isp, peak
                    in message.get("politeness", {}).items()}
            except (KeyError, TypeError, ValueError):
                # Checksummed but structurally wrong — a worker running
                # skewed code. Treat like any damaged frame: requeue
                # (via finally) and abandon this worker.
                return
            # Sidecar telemetry riding the frame: absorbed before the
            # shard is delivered, never written into checkpoints.
            # Pre-obs workers omit both keys and decode the same way.
            _METRICS.merge(message.get("metrics"))
            ingest_spans(message.get("spans") or [])
            board.deliver(spec, result)
            spec = None
    finally:
        if spec is not None:
            board.requeue(spec)
            on_reassign(spec)
            if worker_pid is not None:
                on_abandon(worker_pid)
        try:
            stream.close()
        except OSError:
            pass
        conn.close()


def _worker_environment() -> dict[str, str]:
    """Environment for spawned workers: the coordinator's, with this
    source tree importable whether or not PYTHONPATH was exported."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (f"{src_root}{os.pathsep}{existing}"
                             if existing else src_root)
    return env


def run_shards_distributed(
    world: World,
    pending: list[ShardSpec],
    policy: SamplingPolicy | None,
    engine_config: EngineConfig | None,
    max_replacements: int,
    config,
    per_isp_cap: int,
    on_complete: Callable,
    lease_timeout: float | None = None,
    worker_command: tuple[str, ...] | None = None,
    first_worker_extra_args: tuple[str, ...] = (),
    max_respawns: int | None = None,
    scenario=None,
    heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
) -> None:
    """Run shards on a leased worker fleet (the coordinator side).

    Spawns ``config.effective_workers`` reference-transport workers
    (``repro worker`` subprocesses on a Unix-domain socket), serves
    each connection on its own thread, and keeps a liveness watch: if
    every worker is gone while shards remain, replacements are spawned
    — up to ``max_respawns`` (default: fleet size + 2) — and past
    that the campaign fails loudly rather than hanging.

    ``scenario`` is the world recipe leased to workers (default:
    ``world.config``; a :class:`~repro.synth.churn.WaveScenario` for
    evolved panel-wave worlds). ``first_worker_extra_args`` is the
    chaos hook the tests use to hand exactly one worker a
    ``--die-after`` / ``--wedge-after`` flag. ``heartbeat_interval``
    asks workers to beat that often inside each lease, so a silent
    worker's shard is requeued after the missed-heartbeat window
    (well under the lease timeout); ``None`` restores the old
    frame-boundary-only liveness.
    """
    specs = list(pending)
    if not specs:
        return
    if lease_timeout is None:
        lease_timeout = DEFAULT_LEASE_TIMEOUT
    if lease_timeout <= 0:
        raise ValueError("lease_timeout must be positive")
    if heartbeat_interval is not None and heartbeat_interval <= 0:
        raise ValueError("heartbeat_interval must be positive")
    workers = max(1, min(config.effective_workers, len(specs)))
    scenario = scenario if scenario is not None else world.config
    board = _LeaseBoard(specs, on_complete)

    # Span-stitching state. The dispatch-time context (the enclosing
    # campaign.dispatch / wave span) parents every first lease; when a
    # lease is abandoned the shard's parent becomes the lease.reassign
    # span recorded below, so the retried shard's worker spans hang off
    # the reassignment in the stitched tree.
    dispatch_context = current_trace_context()
    shard_parents: dict[int, str] = {}
    parents_lock = threading.Lock()
    reassignments = _METRICS.counter("lease_reassignments_total")
    leases_granted = _METRICS.counter("leases_granted_total")

    def make_lease(spec: ShardSpec) -> dict:
        trace_context = None
        if dispatch_context is not None:
            trace_context = dict(dispatch_context)
            with parents_lock:
                parent = shard_parents.get(spec.index)
            if parent is not None:
                trace_context["span_id"] = parent
        leases_granted.inc()
        return _lease_message(scenario, spec, policy, engine_config,
                              max_replacements, config.max_inflight,
                              per_isp_cap,
                              heartbeat_interval=heartbeat_interval,
                              trace_context=trace_context)

    def note_reassign(spec: ShardSpec) -> None:
        reassignments.inc()
        if dispatch_context is None or not tracing_enabled():
            return
        with parents_lock:
            parent = shard_parents.get(spec.index,
                                       dispatch_context["span_id"])
        # Runs on a connection thread, so the parent is explicit rather
        # than taken from the (empty) thread-local span stack.
        with span("lease.reassign", parent_id=parent,
                  shard=spec.index) as marker:
            pass
        with parents_lock:
            shard_parents[spec.index] = marker.span_id

    # Where the fleet meets: the default is a Unix socket in a private
    # temp directory; ``config.worker_address`` overrides it with a
    # caller-chosen Unix path or a TCP ``host:port`` (port 0 picks a
    # free port, resolved after bind so spawned workers get the real
    # one) for cross-host fleets or hosts without Unix sockets.
    worker_address = getattr(config, "worker_address", None)
    tmpdir = None
    tcp_endpoint = None
    if worker_address is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-dist-")
        address = os.path.join(tmpdir, "coordinator.sock")
        listener = socket.socket(socket.AF_UNIX)
    elif os.sep in worker_address or ":" not in worker_address:
        address = worker_address
        listener = socket.socket(socket.AF_UNIX)
    else:
        host, _, port_text = worker_address.rpartition(":")
        try:
            tcp_endpoint = (host, int(port_text))
        except ValueError:
            raise ValueError(
                f"worker_address {worker_address!r} has a non-numeric port")
        address = worker_address  # refined to the bound port below
        listener = socket.socket(socket.AF_INET)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    procs: list[subprocess.Popen] = []
    threads: list[threading.Thread] = []
    respawns_left = (workers + 2) if max_respawns is None else max_respawns

    def spawn(extra_args: tuple[str, ...] = ()) -> None:
        command = list(worker_command if worker_command is not None
                       else (sys.executable, "-m", "repro", "worker"))
        command += ["--connect", address, *extra_args]
        procs.append(subprocess.Popen(
            command, env=_worker_environment(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))

    def abandon_worker(pid: int) -> None:
        # A worker whose connection was abandoned (timeout, damaged
        # frame) may be wedged rather than dead; kill it so the
        # liveness watch sees real fleet capacity, not a zombie.
        for proc in procs:
            if proc.pid == pid and proc.poll() is None:
                proc.kill()

    try:
        if tcp_endpoint is not None:
            listener.bind(tcp_endpoint)
            bound_port = listener.getsockname()[1]
            address = f"{tcp_endpoint[0] or '127.0.0.1'}:{bound_port}"
        else:
            listener.bind(address)
        listener.listen(workers * 2)
        listener.settimeout(_ACCEPT_POLL_SECONDS)
        spawn(tuple(first_worker_extra_args))
        for _ in range(workers - 1):
            spawn()
        while not board.done.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                conn = None
            if conn is not None:
                thread = threading.Thread(
                    target=_serve_connection,
                    args=(conn, board, make_lease, lease_timeout,
                          abandon_worker, heartbeat_interval,
                          note_reassign),
                    daemon=True)
                thread.start()
                threads.append(thread)
            threads = [t for t in threads if t.is_alive()]
            if (board.outstanding() and not threads
                    and all(p.poll() is not None for p in procs)):
                # Work remains but the whole fleet is dead and nothing
                # is mid-handshake: reassign onto fresh capacity.
                if respawns_left <= 0:
                    raise RuntimeError(
                        "distributed campaign stalled: every worker died "
                        "and the respawn budget is exhausted")
                respawns_left -= 1
                spawn()
        for thread in threads:
            thread.join(timeout=lease_timeout)
        if board.error is not None:
            # on_complete failed (checkpoint write, progress callback):
            # fail as loudly as the serial backend would have.
            raise board.error
    finally:
        listener.close()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
        elif tcp_endpoint is None:
            # Caller-provided Unix path: remove the socket file, keep
            # the caller's directory.
            try:
                os.unlink(address)
            except OSError:
                pass

