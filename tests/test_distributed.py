"""Tests for repro.runtime.distributed: frames, leases, chaos.

Three layers, separately testable because the protocol runs over plain
binary streams:

* **frames** — length-prefixed, SHA-256-verified JSON messages must
  reject damage instead of propagating it;
* **the lease board and connection service** — shards move
  pending → leased → completed, and every failure mode (EOF, damaged
  frame, timeout, wrong index) puts the lease back;
* **the reference transport** — real ``repro worker`` subprocesses on
  a Unix socket, including the chaos scenario the acceptance criteria
  name: a worker killed mid-campaign whose shards are reassigned, with
  merged output still byte-identical to the serial backend.
"""

from __future__ import annotations

import io
import socket
import threading

import pytest

from harness.equivalence import canonical_logbook_bytes
from repro.runtime import (RuntimeConfig, execute_campaign, plan_shards,
                           run_shard)
from repro.runtime.checkpoint import (CheckpointStore, _shard_to_json,
                                      campaign_fingerprint)
from repro.runtime.distributed import (
    FrameError,
    _LeaseBoard,
    _execute_lease,
    _lease_message,
    _scenario_from_json,
    _serve_connection,
    _spec_from_json,
    _spec_to_json,
    read_frame,
    run_shards_distributed,
    write_frame,
)
from repro.runtime.merge import merge_shard_results
from repro.synth.scenario import ScenarioConfig

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

def roundtrip(message: dict) -> dict:
    buffer = io.BytesIO()
    write_frame(buffer, message)
    buffer.seek(0)
    return read_frame(buffer)


class TestFrames:
    def test_roundtrip(self):
        message = {"type": "hello", "pid": 42,
                   "nested": {"floats": [0.1, 2.5e-7], "none": None}}
        assert roundtrip(message) == message

    def test_back_to_back_frames(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"n": 1})
        write_frame(buffer, {"n": 2})
        buffer.seek(0)
        assert read_frame(buffer) == {"n": 1}
        assert read_frame(buffer) == {"n": 2}

    def test_corrupted_payload_rejected(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"type": "result", "index": 3})
        raw = bytearray(buffer.getvalue())
        raw[-1] ^= 0xFF  # flip one payload byte
        with pytest.raises(FrameError, match="SHA-256"):
            read_frame(io.BytesIO(bytes(raw)))

    def test_corrupted_digest_rejected(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"type": "result"})
        raw = bytearray(buffer.getvalue())
        raw[6] ^= 0xFF  # flip one digest byte (offset 4..35)
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(bytes(raw)))

    def test_truncated_stream_is_eof(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"type": "lease", "padding": "x" * 100})
        for cut in (0, 2, 10, len(buffer.getvalue()) - 1):
            with pytest.raises(EOFError):
                read_frame(io.BytesIO(buffer.getvalue()[:cut]))

    def test_non_object_payload_rejected(self):
        import hashlib
        import struct

        payload = b"[1,2,3]"
        raw = (struct.pack(">I", len(payload))
               + hashlib.sha256(payload).digest() + payload)
        with pytest.raises(FrameError, match="JSON object"):
            read_frame(io.BytesIO(raw))


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------

class TestConnectAddressing:
    def test_relative_socket_path_without_separator(self, tmp_path):
        """A bare socket filename (no slash, no colon) is a Unix path,
        not a malformed HOST:PORT."""
        import os

        from repro.runtime.distributed import _connect

        sock_path = tmp_path / "coord.sock"
        server = socket.socket(socket.AF_UNIX)
        server.bind(str(sock_path))
        server.listen(1)
        cwd = os.getcwd()
        try:
            os.chdir(tmp_path)
            client = _connect("coord.sock")
            client.close()
        finally:
            os.chdir(cwd)
            server.close()

    def test_host_port_without_host_rejected(self):
        from repro.runtime.distributed import _connect

        with pytest.raises(ValueError, match="HOST:PORT"):
            _connect(":9999")


class TestCodecs:
    def test_scenario_roundtrip(self, tiny_config):
        from dataclasses import asdict

        restored = _scenario_from_json(
            roundtrip({"scenario": asdict(tiny_config)})["scenario"])
        assert restored == tiny_config
        assert hash(restored) == hash(tiny_config)  # usable as cache key

    def test_spec_roundtrip(self, world):
        for spec in plan_shards(world, 3, **SUBSET):
            assert _spec_from_json(
                roundtrip(_spec_to_json(spec))) == spec

    def test_lease_message_carries_everything(self, world, monkeypatch):
        from repro.bqt.engine import EngineConfig
        from repro.core.sampling import SamplingPolicy

        spec = plan_shards(world, 2, **SUBSET)[0]
        message = _lease_message(
            world.config, spec, SamplingPolicy(min_samples=10),
            EngineConfig(max_attempts=2), 1, 12, 4)
        restored = roundtrip(message)
        assert restored["policy"]["min_samples"] == 10
        assert restored["engine_config"]["max_attempts"] == 2
        assert restored["max_replacements"] == 1
        assert restored["use_async"] is True
        assert restored["max_inflight"] == 12
        assert restored["per_isp_cap"] == 4
        assert _spec_from_json(restored["spec"]) == spec
        # A sync lease keeps both protocol-1 keys.
        sync = roundtrip(_lease_message(world.config, spec, None, None, 2,
                                        None, 1))
        assert sync["protocol"] == 1
        assert sync["use_async"] is False and sync["max_inflight"] is None

        # An older coordinator's sync lease carries its default
        # in-flight bound next to use_async=false: the shard must still
        # run synchronously, with the same bytes as a sync run_shard.
        older = dict(sync, max_inflight=8)

        def no_event_loop(*args, **kwargs):
            raise AssertionError("a sync lease ran on an event loop")

        monkeypatch.setattr("repro.bqt.aio.run_cells_async", no_event_loop)
        frame = _execute_lease(older)
        expected = run_shard(world.config, spec, world=world,
                             max_inflight=None, per_isp_cap=1)
        assert frame["shard"] == _shard_to_json(expected)
        assert frame["politeness"] == expected.politeness


# ----------------------------------------------------------------------
# Lease board
# ----------------------------------------------------------------------

def _dummy_specs(world, count=3):
    return plan_shards(world, count, **SUBSET)


class TestLeaseBoard:
    def test_checkout_requeue_deliver(self, world):
        delivered = []
        specs = _dummy_specs(world)
        board = _LeaseBoard(specs, delivered.append)
        first = board.checkout()
        assert first.index == 0
        board.requeue(first)
        assert board.checkout().index == 0  # lost work is oldest work
        assert board.outstanding()
        assert not board.done.is_set()

    def test_done_when_all_delivered(self, world):
        delivered = []
        specs = _dummy_specs(world)
        board = _LeaseBoard(specs, delivered.append)
        while (spec := board.checkout()) is not None:
            assert board.deliver(spec, f"result-{spec.index}")
        assert board.done.is_set()
        assert not board.outstanding()
        assert delivered == ["result-0", "result-1", "result-2"]

    def test_duplicate_delivery_is_noop(self, world):
        delivered = []
        specs = _dummy_specs(world)
        board = _LeaseBoard(specs, delivered.append)
        spec = board.checkout()
        assert board.deliver(spec, "first")
        assert not board.deliver(spec, "second")
        assert delivered == ["first"]

    def test_empty_board_is_born_done(self, world):
        board = _LeaseBoard([], lambda r: None)
        assert board.done.is_set()
        assert board.checkout() is None

    def test_on_complete_failure_ends_the_campaign(self, world):
        """An exception from on_complete (e.g. a checkpoint write to a
        full disk) must end the campaign with the error captured, not
        hang the coordinator or keep leasing shards."""
        def failing(result):
            raise OSError("disk full")

        board = _LeaseBoard(_dummy_specs(world), failing)
        spec = board.checkout()
        assert not board.deliver(spec, "result")
        assert isinstance(board.error, OSError)
        assert board.done.is_set()       # the coordinator loop exits...
        assert board.checkout() is None  # ...and nothing else is leased


# ----------------------------------------------------------------------
# Connection service: every failure mode requeues the lease
# ----------------------------------------------------------------------

def _serve_against_fake_worker(world, worker_behavior, lease_timeout=5.0,
                               on_abandon=lambda pid: None,
                               heartbeat_interval=None):
    """Run _serve_connection against an in-process fake worker."""
    specs = _dummy_specs(world, 2)
    delivered = []
    board = _LeaseBoard(specs, delivered.append)
    coordinator_sock, worker_sock = socket.socketpair()
    make_lease = lambda spec: {"type": "lease", "index": spec.index}  # noqa: E731
    worker = threading.Thread(target=worker_behavior, args=(worker_sock,),
                              daemon=True)
    worker.start()
    _serve_connection(coordinator_sock, board, make_lease, lease_timeout,
                      on_abandon, heartbeat_interval)
    worker.join(timeout=10)
    return board, delivered


class TestServeConnection:
    def test_worker_eof_requeues_lease(self, world):
        def vanishing_worker(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1})
            read_frame(stream)  # take the lease...
            sock.close()        # ...and die without replying

        board, delivered = _serve_against_fake_worker(world, vanishing_worker)
        assert delivered == []
        assert board.checkout().index == 0  # the lease came back

    def test_lease_timeout_requeues_and_reports_abandoned_pid(self, world):
        abandoned: list[int] = []

        def hung_worker(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 4242})
            read_frame(stream)  # take the lease, never reply
            try:
                read_frame(stream)  # block until the coordinator hangs up
            except (EOFError, OSError):
                pass
            sock.close()

        board, delivered = _serve_against_fake_worker(
            world, hung_worker, lease_timeout=0.3,
            on_abandon=abandoned.append)
        assert delivered == []
        assert board.checkout().index == 0
        # The transport is told which worker to put down: a wedged
        # process must not keep counting as fleet capacity.
        assert abandoned == [4242]

    def test_wrong_index_requeues(self, world):
        def confused_worker(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1})
            read_frame(stream)
            write_frame(stream, {"type": "result", "index": 999,
                                 "shard": {}})
            sock.close()

        board, delivered = _serve_against_fake_worker(world, confused_worker)
        assert delivered == []
        assert board.checkout().index == 0

    def test_structurally_malformed_result_requeues(self, world):
        """A checksummed frame whose shard payload is missing keys (a
        worker running skewed code) must requeue, not kill the serve
        thread with a KeyError."""
        def skewed_worker(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1})
            read_frame(stream)
            write_frame(stream, {"type": "result", "index": 0,
                                 "shard": {"index": 0}})  # no q12/q3
            sock.close()

        board, delivered = _serve_against_fake_worker(world, skewed_worker)
        assert delivered == []
        assert board.checkout().index == 0

    def test_damaged_result_frame_requeues(self, world):
        def noisy_worker(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1})
            read_frame(stream)
            buffer = io.BytesIO()
            write_frame(buffer, {"type": "result", "index": 0,
                                 "shard": {}})
            raw = bytearray(buffer.getvalue())
            raw[-3] ^= 0xFF
            stream.write(bytes(raw))
            stream.flush()
            sock.close()

        board, delivered = _serve_against_fake_worker(world, noisy_worker)
        assert delivered == []
        assert board.checkout().index == 0

    def test_heartbeats_keep_a_slow_worker_leased(self, world):
        """A worker that beats while computing past the missed-
        heartbeat window must NOT be abandoned: heartbeats are exactly
        what distinguishes slow from silent."""
        def slow_beating_worker(sock):
            import time

            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1,
                                 "heartbeats": True})
            while True:
                message = read_frame(stream)
                if message["type"] == "shutdown":
                    sock.close()
                    return
                # Compute for ~6 missed-heartbeat windows, beating.
                for _ in range(12):
                    time.sleep(0.05)
                    write_frame(stream, {"type": "heartbeat",
                                         "index": message["index"]})
                write_frame(stream, {
                    "type": "result", "index": message["index"],
                    "shard": {"index": message["index"], "count": 2,
                              "q12": [], "q3": []},
                    "politeness": {}})

        board, delivered = _serve_against_fake_worker(
            world, slow_beating_worker, lease_timeout=30.0,
            heartbeat_interval=0.1)
        assert len(delivered) == 2
        assert board.done.is_set()

    def test_silent_worker_requeued_within_heartbeat_window(self, world):
        """A worker that takes a lease and goes silent (no beats, no
        result) loses it after the missed-heartbeat window — a small
        multiple of the interval, not the full lease timeout."""
        import time

        abandoned: list[int] = []

        def wedged_worker(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 777,
                                 "heartbeats": True})
            read_frame(stream)  # take the lease, then say nothing
            try:
                read_frame(stream)  # block until the coordinator hangs up
            except (EOFError, OSError):
                pass
            sock.close()

        started = time.monotonic()
        board, delivered = _serve_against_fake_worker(
            world, wedged_worker, lease_timeout=60.0,
            heartbeat_interval=0.1, on_abandon=abandoned.append)
        elapsed = time.monotonic() - started
        assert delivered == []
        assert board.checkout().index == 0  # the lease came back
        assert abandoned == [777]
        assert elapsed < 10.0, (
            f"silent worker held its lease {elapsed:.1f}s — the missed-"
            f"heartbeat window should cut it well under the 60s lease "
            f"timeout")

    def test_legacy_worker_without_capability_keeps_full_timeout(
            self, world):
        """A worker whose hello does not advertise ``heartbeats`` (a
        pre-heartbeat fleet behind the ``worker_command`` hook) must
        keep the full lease timeout per read: a shard computing longer
        than the missed-heartbeat window is NOT abandoned while
        healthy."""
        def legacy_slow_worker(sock):
            import time

            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1})
            while True:
                message = read_frame(stream)
                if message["type"] == "shutdown":
                    sock.close()
                    return
                # Compute well past the 0.3s missed-heartbeat window,
                # silently — legacy workers never beat.
                time.sleep(0.8)
                write_frame(stream, {
                    "type": "result", "index": message["index"],
                    "shard": {"index": message["index"], "count": 2,
                              "q12": [], "q3": []},
                    "politeness": {}})

        board, delivered = _serve_against_fake_worker(
            world, legacy_slow_worker, lease_timeout=30.0,
            heartbeat_interval=0.1)
        assert len(delivered) == 2
        assert board.done.is_set()

    def test_beating_forever_still_bounded_by_lease_timeout(self, world):
        """Heartbeats prove liveness, not progress: a worker that beats
        forever without delivering is still cut off at the lease
        timeout, so the campaign cannot be held hostage by a zombie
        with a working heartbeat thread."""
        import time

        def beating_zombie(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1,
                                 "heartbeats": True})
            message = read_frame(stream)
            try:
                while True:
                    time.sleep(0.1)
                    write_frame(stream, {"type": "heartbeat",
                                         "index": message["index"]})
            except OSError:
                sock.close()

        started = time.monotonic()
        board, delivered = _serve_against_fake_worker(
            world, beating_zombie, lease_timeout=1.0,
            heartbeat_interval=0.1)
        elapsed = time.monotonic() - started
        assert delivered == []
        assert board.checkout().index == 0
        assert 0.9 <= elapsed < 10.0

    def test_idle_worker_gets_shutdown(self, world):
        messages = []

        def polite_worker(sock):
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "pid": 1})
            while True:
                message = read_frame(stream)
                messages.append(message["type"])
                if message["type"] == "shutdown":
                    sock.close()
                    return
                # Echo a structurally valid empty result so the serve
                # loop keeps going without running a real shard.
                write_frame(stream, {
                    "type": "result", "index": message["index"],
                    "shard": {"index": message["index"], "count": 2,
                              "q12": [], "q3": []},
                    "politeness": {}})

        board, delivered = _serve_against_fake_worker(world, polite_worker)
        assert messages == ["lease", "lease", "shutdown"]
        assert len(delivered) == 2
        assert board.done.is_set()


# ----------------------------------------------------------------------
# The reference transport, end to end (subprocess workers)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def serial_reference(world):
    collection, q3 = execute_campaign(
        world, RuntimeConfig(shards=4, backend="serial"), **SUBSET)
    return canonical_logbook_bytes(collection, q3)


@pytest.mark.chaos
class TestDistributedEndToEnd:
    def test_distributed_matches_serial(self, world, serial_reference):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=4, workers=2,
                                 backend="distributed"),
            **SUBSET)
        assert canonical_logbook_bytes(collection, q3) == serial_reference

    def test_distributed_async_workers_match_serial(
            self, world, serial_reference):
        collection, q3 = execute_campaign(
            world, RuntimeConfig(shards=4, workers=2,
                                 backend="distributed", max_inflight=16),
            **SUBSET)
        assert canonical_logbook_bytes(collection, q3) == serial_reference

    def test_distributed_checkpoints_every_frame_on_arrival(
            self, world, tmp_path):
        """Each result frame is checkpointed as it arrives, so a
        coordinator crash right after the campaign loses nothing."""
        shard_dir = str(tmp_path / "ckpt")
        execute_campaign(
            world, RuntimeConfig(shards=4, workers=2,
                                 backend="distributed",
                                 checkpoint_dir=shard_dir),
            **SUBSET)
        fingerprint = campaign_fingerprint(
            world.config, None, SUBSET["isps"], 4,
            states=SUBSET["states"], q3_states=SUBSET["q3_states"])
        store = CheckpointStore(shard_dir, fingerprint)
        assert set(store.load_completed()) == {0, 1, 2, 3}

    def test_on_complete_failure_raises_not_hangs(self, world):
        """A failing checkpoint write mid-campaign surfaces as the
        original error from the coordinator, like the serial backend."""
        config = RuntimeConfig(shards=2, workers=1, backend="distributed")
        specs = plan_shards(world, 2, **SUBSET)

        def failing_on_complete(result):
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_shards_distributed(world, specs, None, None, 2, config,
                                   1, failing_on_complete)


@pytest.mark.chaos
@pytest.mark.equivalence
class TestWorkerKillChaos:
    """The acceptance scenario: a worker dies mid-campaign, its shards
    are reassigned, and the merged output is still byte-identical."""

    def test_killed_worker_shards_reassigned_output_identical(
            self, world, serial_reference):
        config = RuntimeConfig(shards=4, workers=2, backend="distributed")
        specs = plan_shards(world, 4, **SUBSET)
        completed = {}
        progress = []

        def on_complete(result):
            completed[result.index] = result
            progress.append(result.index)

        # --die-after 0: the first worker dies abruptly (no goodbye
        # frame) the moment its first lease arrives — its leased shard
        # MUST be reassigned or the campaign never finishes.
        run_shards_distributed(
            world, specs, None, None, 2, config,
            config.per_shard_isp_cap_for(len(specs)), on_complete,
            first_worker_extra_args=("--die-after", "0"))
        assert sorted(completed) == [0, 1, 2, 3]
        assert len(progress) == 4  # no duplicate deliveries
        collection, q3 = merge_shard_results(
            world, specs, completed, policy=None, **SUBSET)
        assert canonical_logbook_bytes(collection, q3) == serial_reference

    def test_kill_after_first_shard_and_resume(
            self, world, tmp_path, serial_reference):
        """Kill mid-campaign *after* real work was checkpointed, then
        finish under a fresh coordinator run with --resume semantics:
        nothing recomputed, output identical."""
        shard_dir = str(tmp_path / "ckpt")
        config = RuntimeConfig(shards=4, workers=2, backend="distributed",
                               checkpoint_dir=shard_dir)
        collection, q3 = execute_campaign(world, config, **SUBSET)
        assert canonical_logbook_bytes(collection, q3) == serial_reference
        # Resume from the checkpoints: every shard restores, none runs.
        seen = []
        resumed = RuntimeConfig(shards=4, workers=2, backend="distributed",
                                checkpoint_dir=shard_dir, resume=True)
        collection, q3 = execute_campaign(
            world, resumed,
            on_progress=lambda done, total, r, restored: seen.append(
                (r.index, restored)),
            **SUBSET)
        assert seen == [(0, True), (1, True), (2, True), (3, True)]
        assert canonical_logbook_bytes(collection, q3) == serial_reference

    def test_wedged_worker_requeued_by_heartbeat_window(
            self, world, serial_reference):
        """The heartbeat acceptance scenario: one worker wedges (alive
        but silent — ``--wedge-after 0``) under a *long* lease timeout.
        Before heartbeats its shard sat leased for the full 120s; now
        the missed-heartbeat window requeues it in seconds, the wedged
        process is put down, and the merged output is byte-identical."""
        import time

        config = RuntimeConfig(shards=4, workers=2, backend="distributed")
        specs = plan_shards(world, 4, **SUBSET)
        completed = {}
        started = time.monotonic()
        run_shards_distributed(
            world, specs, None, None, 2, config,
            config.per_shard_isp_cap_for(len(specs)),
            lambda result: completed.__setitem__(result.index, result),
            lease_timeout=120.0,
            heartbeat_interval=0.2,
            first_worker_extra_args=("--wedge-after", "0"))
        elapsed = time.monotonic() - started
        assert sorted(completed) == [0, 1, 2, 3]
        collection, q3 = merge_shard_results(
            world, specs, completed, policy=None, **SUBSET)
        assert canonical_logbook_bytes(collection, q3) == serial_reference
        assert elapsed < 60.0, (
            f"campaign took {elapsed:.1f}s around a wedged worker — the "
            f"missed-heartbeat window should reclaim its shard well "
            f"under the 120s lease timeout")

    def test_wedged_worker_killed_not_waited_on_forever(self, world):
        """A worker that takes a lease and wedges (alive but silent)
        must be put down after the lease timeout so the liveness watch
        sees real capacity — before this fix the coordinator spun
        forever waiting for the zombie to exit."""
        import sys
        import textwrap

        wedge_script = textwrap.dedent("""
            import os, socket, sys, time
            from repro.runtime.distributed import read_frame, write_frame
            address = sys.argv[sys.argv.index("--connect") + 1]
            sock = socket.socket(socket.AF_UNIX)
            sock.connect(address)
            stream = sock.makefile("rwb")
            write_frame(stream, {"type": "hello", "protocol": 1,
                                 "pid": os.getpid()})
            read_frame(stream)   # take the lease...
            time.sleep(3600)     # ...and wedge, alive but silent
        """)
        config = RuntimeConfig(shards=1, workers=1, backend="distributed")
        specs = plan_shards(world, 1, **SUBSET)
        # Every spawned worker wedges and the respawn budget is zero:
        # the only acceptable outcome is a prompt, loud failure.
        with pytest.raises(RuntimeError, match="respawn budget"):
            run_shards_distributed(
                world, specs, None, None, 2, config, 1,
                lambda result: None,
                worker_command=(sys.executable, "-c", wedge_script),
                max_respawns=0,
                lease_timeout=1.0,
            )

    def test_total_fleet_death_raises_after_respawn_budget(self, world):
        """When every worker (including respawns) dies, the campaign
        must fail loudly instead of hanging."""
        import sys

        config = RuntimeConfig(shards=2, workers=1, backend="distributed")
        specs = plan_shards(world, 2, **SUBSET)
        with pytest.raises(RuntimeError, match="respawn budget"):
            run_shards_distributed(
                world, specs, None, None, 2, config, 1,
                lambda result: None,
                # Every spawned worker — respawns included — dies on
                # its first lease.
                worker_command=(sys.executable, "-m", "repro", "worker",
                                "--die-after", "0"),
                max_respawns=1,
                lease_timeout=30.0,
            )


@pytest.mark.chaos
class TestRespawnBudgetDefault:
    def test_first_worker_dies_fleet_of_one_respawns(self, world):
        """With a single worker that dies once, the default respawn
        budget revives the fleet and the campaign completes."""
        config = RuntimeConfig(shards=2, workers=1, backend="distributed")
        specs = plan_shards(world, 2, **SUBSET)
        completed = {}
        run_shards_distributed(
            world, specs, None, None, 2, config, 1,
            lambda result: completed.__setitem__(result.index, result),
            first_worker_extra_args=("--die-after", "1"))
        assert sorted(completed) == [0, 1]
