"""The audit service daemon: protocol, jobs, followers, read API.

One in-process :class:`AuditService` per module, shared by every test
(a real socket, real threads, real journal — only the wreckage tests
in ``test_service_chaos.py`` need a separate OS process). A campaign
job and a panel job run once as fixtures; the tests then interrogate
the protocol surface, the journal the jobs left behind, and the
replication and read paths over it.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.runtime.cache import content_digest
from repro.service import (
    AuditService,
    Journal,
    JournalError,
    ServiceClient,
    follow,
    validate_spec,
)
from repro.service.journal import service_fingerprint

pytestmark = pytest.mark.service

SUBSET = {"isps": ["consolidated"], "states": ["VT", "NH"],
          "q3_states": ["UT"]}

# Campaign inputs a job could never run with: each must be refused at
# submission, not discovered as a failed (or silently empty) job.
UNRUNNABLE = [
    ("policy", {"bogus": 1}),
    ("engine_config", {"pace": -3}),
    ("max_replacements", -1),
    ("max_replacements", "x"),
    ("isps", ["nope"]),
    ("states", ["ZZ"]),
    ("q3_states", ["ZZ"]),
    ("model", {"cell_rate": 2.0}),
]


@pytest.fixture(scope="module")
def campaign_spec(tiny_config):
    return {"kind": "campaign", "scenario": asdict(tiny_config),
            "shards": 2, **SUBSET}


@pytest.fixture(scope="module")
def service_root(tmp_path_factory):
    return tmp_path_factory.mktemp("service")


@pytest.fixture(scope="module")
def service(service_root):
    with AuditService(service_root / "journal",
                      store_dir=service_root / "store") as running:
        yield running


@pytest.fixture(scope="module")
def client(service):
    with ServiceClient(service.address) as connected:
        yield connected


@pytest.fixture(scope="module")
def campaign_job(client, campaign_spec):
    accepted = client.submit(campaign_spec)
    state = client.wait_for_job(accepted["job"], timeout=300.0)
    return accepted, state


@pytest.fixture(scope="module")
def panel_job(client, tiny_config):
    spec = {"kind": "panel", "scenario": asdict(tiny_config),
            "horizons": [1]}
    accepted = client.submit(spec)
    state = client.wait_for_job(accepted["job"], timeout=300.0)
    return accepted, state


class TestValidateSpec:
    def test_normalizes_defaults(self, tiny_config):
        spec = validate_spec({"scenario": asdict(tiny_config)})
        assert spec["kind"] == "campaign"
        assert spec["shards"] == 1

    @pytest.mark.parametrize("junk", [
        None,
        "a string",
        {"kind": "espionage", "scenario": {}},
        {"kind": "campaign"},                       # no scenario
        {"kind": "campaign", "scenario": {"seed": "tiny"}},  # undecodable
        {"kind": "campaign", "scenario": None},
    ])
    def test_refuses_junk(self, junk, tiny_config):
        if isinstance(junk, dict) and junk.get("scenario") == {"seed": "tiny"}:
            pass  # truly undecodable scenario stays as staged
        with pytest.raises(ValueError):
            validate_spec(junk)

    @pytest.mark.parametrize("shards", [0, -1, True, "4", 1.5])
    def test_refuses_bad_shards(self, shards, tiny_config):
        with pytest.raises(ValueError, match="shards"):
            validate_spec({"kind": "campaign",
                           "scenario": asdict(tiny_config),
                           "shards": shards})

    @pytest.mark.parametrize("horizons", [[], [0], [2, 1], [1, 1], "1",
                                          [1, "2"]])
    def test_refuses_bad_horizons(self, horizons, tiny_config):
        with pytest.raises(ValueError, match="horizons"):
            validate_spec({"kind": "panel",
                           "scenario": asdict(tiny_config),
                           "horizons": horizons})


    @pytest.mark.parametrize("kind", ["campaign", "panel"])
    @pytest.mark.parametrize("field, value", UNRUNNABLE)
    def test_refuses_unrunnable_inputs(self, kind, field, value,
                                       tiny_config):
        with pytest.raises(ValueError, match=field):
            validate_spec({"kind": kind, "scenario": asdict(tiny_config),
                           field: value})

    def test_accepts_runnable_inputs(self, tiny_config):
        spec = {"kind": "panel", "scenario": asdict(tiny_config),
                "policy": {"min_samples": 10},
                "engine_config": {"pace": 0.0}, "max_replacements": 0,
                "model": {"cell_rate": 0.5}, **SUBSET}
        assert validate_spec(spec) == {**spec, "shards": 1}


class TestProtocol:
    def test_ping_reports_the_tip(self, client, service):
        pong = client.ping()
        assert pong["type"] == "pong"
        assert pong["tip_seq"] == service.journal.tip_seq
        assert pong["tip_digest"] == service.journal.tip_digest

    def test_unknown_request_type_is_an_error(self, client):
        response = client.request({"type": "turbo-encabulate"})
        assert response["type"] == "error"
        assert "turbo-encabulate" in response["error"]

    def test_unknown_job_status_is_an_error(self, client):
        response = client.status("job-nonexistent")
        assert response["type"] == "error"

    def test_bad_pull_offset_is_an_error(self, client):
        assert client.pull(-1)["type"] == "error"
        assert client.request({"type": "pull",
                               "from": "zero"})["type"] == "error"

    def test_junk_submission_refused_at_the_socket(self, client, service):
        tip_before = service.journal.tip_seq
        with pytest.raises(RuntimeError, match="refused"):
            client.submit({"kind": "campaign", "scenario": {"bad": 1}})
        # Refusal left no journal entry: nothing to replay later.
        assert service.journal.tip_seq == tip_before

    def test_unrunnable_submission_refused_at_the_socket(
            self, client, service, tiny_config):
        def submitted():
            return [entry for entry in service.journal.entries()
                    if entry.event.get("kind") == "submitted"]

        before = submitted()
        for field, value in UNRUNNABLE:
            response = client.request({"type": "submit", "spec": {
                "kind": "campaign", "scenario": asdict(tiny_config),
                field: value}})
            assert response["type"] == "error"
            assert field in response["error"]
        assert submitted() == before

    def test_connection_survives_a_damaged_frame(self, service):
        from repro.runtime.distributed import _DIGEST_BYTES, _LENGTH, read_frame

        with ServiceClient(service.address) as fresh:
            stream = fresh._stream
            payload = b'{"type": "ping"}'
            # A frame whose digest lies about its payload: the server
            # must answer with a damage report, not hang up.
            stream.write(_LENGTH.pack(len(payload))
                         + b"\x00" * _DIGEST_BYTES + payload)
            stream.flush()
            response = read_frame(stream)
            assert response["type"] == "error"
            assert "SHA-256" in response["error"]
            # Same connection, next frame: business as usual.
            assert fresh.ping()["type"] == "pong"


class TestCampaignJobs:
    def test_campaign_completes_with_a_sealed_logbook(self, campaign_job):
        _, state = campaign_job
        assert state["status"] == "completed", state.get("error")
        result = state["result"]
        assert result["q12_records"] > 0
        assert result["q3_records"] > 0
        assert len(result["logbook_sha256"]) == 64
        assert state["shards_completed"] == 2

    def test_job_ids_are_deterministic(self, campaign_job, campaign_spec):
        accepted, _ = campaign_job
        expected = "job-" + content_digest(
            {"seq": accepted["seq"],
             "spec": validate_spec(campaign_spec)})[:12]
        assert accepted["job"] == expected

    def test_jobs_listing_includes_the_campaign(self, client, campaign_job):
        accepted, _ = campaign_job
        listed = {job["job_id"]: job for job in client.jobs()}
        assert listed[accepted["job"]]["status"] == "completed"

    def test_service_result_matches_direct_execution(
            self, campaign_job, world):
        """The daemon's sealed logbook digest equals a plain serial
        run of the same subset campaign — the service adds durability,
        not drift."""
        from repro.runtime import campaign_fingerprint, plan_shards, run_shard
        from repro.runtime.checkpoint import _record_to_json
        from repro.runtime.merge import merge_shard_results

        subset = {key: tuple(value) for key, value in SUBSET.items()}
        specs = plan_shards(world, 2, **subset)
        completed = {spec.index: run_shard(world.config, spec, world=world)
                     for spec in specs}
        collection, q3 = merge_shard_results(world, specs, completed,
                                             **subset)
        oracle = content_digest({
            "q12": [_record_to_json(r) for r in collection.log],
            "q3": [_record_to_json(r) for r in q3.log],
        })
        _, state = campaign_job
        assert state["result"]["logbook_sha256"] == oracle
        assert campaign_fingerprint(
            world.config, None, subset["isps"], 2,
            states=subset["states"], q3_states=subset["q3_states"],
        ) == state["result"]["fingerprint"]

    def test_live_state_equals_replayed_state(self, campaign_job, service):
        """The atomic append+fold invariant: the state a status query
        sees is byte-for-byte the state a cold replay reconstructs."""
        assert (service.state.canonical_bytes()
                == service.journal.replay().canonical_bytes())


class TestPanelJobsAndReader:
    def test_panel_completes_and_seals_waves(self, panel_job):
        _, state = panel_job
        assert state["status"] == "completed", state.get("error")
        assert state["result"]["waves"] == [0, 1]
        assert state["waves_sealed"] == 2

    def test_wave_analysis_served_from_journal_state(self, client,
                                                     panel_job):
        accepted, _ = panel_job
        response = client.query(what="wave-analysis",
                                job=accepted["job"], wave=0)
        assert response["type"] == "result" and response["hit"]
        assert "serviceability" in response["payload"]

    def test_cells_and_rows_served_from_the_store(self, client, panel_job):
        _, state = panel_job
        panel = state["result"]["panel_fingerprint"]
        namespace = state["result"]["rows_namespace"]
        digests = client.query(what="wave-digests", panel=panel, wave=0)
        assert digests["hit"] and digests["payload"]["q12"]
        ref = digests["payload"]["q12"][0]  # [isp, state, cbg, digest]
        cell = client.query(what="cell", panel=panel, digest=ref[-1])
        assert cell["hit"]
        assert cell["payload"]["records"]
        row = client.query(what="row", namespace=namespace,
                           row_kind="q12", digest=ref[-1])
        assert row["hit"]

    def test_reader_reads_each_index_once(self, service_root, panel_job,
                                          tmp_path, monkeypatch):
        """One store and one row cache per panel: the first uncached
        query reads the manifests and the row packs, later ones read
        neither."""
        from repro.analysis.incremental import WaveRowCache
        from repro.longitudinal.store import PanelStore
        from repro.service import ServiceReader

        _, state = panel_job
        panel = state["result"]["panel_fingerprint"]
        namespace = state["result"]["rows_namespace"]
        reads = {"manifests": 0, "packs": 0}
        verified, refresh = PanelStore._verified_manifest, WaveRowCache.refresh

        def counting_manifest(store, wave):
            reads["manifests"] += 1
            return verified(store, wave)

        def counting_refresh(cache):
            reads["packs"] += 1
            return refresh(cache)

        monkeypatch.setattr(PanelStore, "_verified_manifest",
                            counting_manifest)
        monkeypatch.setattr(WaveRowCache, "refresh", counting_refresh)
        journal = Journal(tmp_path / "journal", service_fingerprint("audit"))
        try:
            reader = ServiceReader(journal,
                                   store_root=service_root / "store")
            refs = reader.wave_digests(panel, 1)["q12"]
            assert reads["manifests"] == 1
            for ref in refs[:5]:
                assert reader.cell(panel, ref[-1]) is not None
                assert reader.query({"what": "row", "namespace": namespace,
                                     "row_kind": "q12", "digest": ref[-1]})
        finally:
            journal.close()
        assert reads == {"manifests": 1 + len(state["result"]["waves"]),
                         "packs": 1}

    def test_misses_and_junk_queries_answer_cleanly(self, client,
                                                    panel_job):
        _, state = panel_job
        panel = state["result"]["panel_fingerprint"]
        miss = client.query(what="cell", panel=panel, digest="f" * 64)
        assert miss["type"] == "result" and not miss["hit"]
        traversal = client.query(what="cell", panel="../../etc",
                                 digest="../passwd")
        assert not traversal["hit"]
        unknown = client.query(what="horoscope")
        assert unknown["type"] == "error"


class TestPanelJobShards:
    """A panel job's ``shards`` reaches the delta waves' shard loop."""

    SPEC = {"kind": "panel", "horizons": [1, 2], "model": {"cell_rate": 0.3},
            **SUBSET}

    def _run(self, root, tiny_config, shards, monkeypatch):
        import repro.longitudinal.campaign as campaign_module
        from repro.runtime.executor import dispatch_shards as dispatch

        calls: list[tuple[int, int]] = []

        def counting(world, specs, config, *args, **kwargs):
            cells = sum(len(spec.q12_cells) + len(spec.q3_blocks)
                        for spec in specs)
            calls.append((len(specs), cells))
            return dispatch(world, specs, config, *args, **kwargs)

        monkeypatch.setattr(campaign_module, "dispatch_shards", counting)
        with AuditService(root / "journal") as running, \
                ServiceClient(running.address) as connected:
            accepted = connected.submit({**self.SPEC, "shards": shards,
                                         "scenario": asdict(tiny_config)})
            state = connected.wait_for_job(accepted["job"], timeout=300.0)
            analyses = [connected.query(what="wave-analysis",
                                        job=accepted["job"],
                                        wave=wave)["payload"]
                        for wave in (0, 1, 2)]
        assert state["status"] == "completed", state.get("error")
        return calls, analyses

    def test_specs_follow_the_spec_shards(self, tmp_path, tiny_config,
                                          monkeypatch):
        one, serial = self._run(tmp_path / "one", tiny_config, 1,
                                monkeypatch)
        three, sharded = self._run(tmp_path / "three", tiny_config, 3,
                                   monkeypatch)
        # Every wave with changed cells dispatches once: the snapshot
        # and both delta waves.
        assert len(one) == len(three) == 3
        assert all(specs == 1 for specs, _ in one)
        assert [specs for specs, _ in three] == [
            min(3, cells) for _, cells in three]
        assert any(specs == 3 for specs, _ in three)
        # Placement moves no analysis byte.
        assert sharded == serial


class TestPanelJobSweepsRows:
    """A panel job bounds the row cache to its live waves' digests."""

    SPEC = {"kind": "panel", "horizons": [1, 2], "model": {"cell_rate": 0.3},
            **SUBSET}

    def test_rows_of_unreferenced_digests_are_swept(self, tmp_path,
                                                    tiny_config):
        from repro.analysis.incremental import WaveRowCache

        store = tmp_path / "store"
        spec = {**self.SPEC, "scenario": asdict(tiny_config)}
        with AuditService(tmp_path / "journal", store_dir=store) as running, \
                ServiceClient(running.address) as connected:
            first = connected.wait_for_job(
                connected.submit(spec)["job"], timeout=300.0)
            assert first["status"] == "completed", first.get("error")
            namespace = first["result"]["rows_namespace"]
            # A pack of rows no wave references, as a panel whose
            # cells have since churned leaves behind.
            stale = "f" * 64
            WaveRowCache(namespace, directory=store).put(
                "q12", stale, {"queried": 1})
            second = connected.wait_for_job(
                connected.submit(spec)["job"], timeout=300.0)
            assert second["status"] == "completed", second.get("error")
            panel = second["result"]["panel_fingerprint"]
            live: set[str] = set()
            for wave in second["result"]["waves"]:
                refs = connected.query(what="wave-digests", panel=panel,
                                       wave=wave)["payload"]
                for kind in ("q12", "q3"):
                    for ref in refs[kind]:
                        live.add(ref[-1])
                        assert connected.query(
                            what="row", namespace=namespace,
                            row_kind=kind, digest=ref[-1])["hit"]
        assert second["result"]["waves"] == [0, 1, 2]
        rows = WaveRowCache(namespace, directory=store)
        assert not rows.lookup("q12", stale)[0]
        # Every pack left holds a row some live wave references.
        assert rows.sweep_unreferenced(live) == []


class TestFollower:
    def test_mid_campaign_subscriber_converges(self, client, service,
                                               campaign_spec, tmp_path):
        """A follower that subscribes while a campaign is running
        still ends at the primary's exact digest chain."""
        accepted = client.submit(dict(campaign_spec, shards=1))
        with follow(service.address, tmp_path / "replica") as follower:
            try:
                # Tail the live feed until this job's terminal entry
                # has replicated (the job may finish before our first
                # pull on a busy box — the chain still converges).
                follower.follow_until(
                    lambda journal: any(
                        entry.event.get("kind") in ("completed", "failed")
                        and entry.event.get("job") == accepted["job"]
                        for entry in journal.entries()),
                    timeout=300.0, wait=1.0)
                follower.catch_up(timeout=60.0)
                primary = service.journal
                assert follower.journal.tip_digest == primary.tip_digest
                assert (follower.journal.replay().canonical_bytes()
                        == primary.replay().canonical_bytes())
                assert follower.replicated == len(follower.journal)
            finally:
                follower.journal.close()

    def test_replica_store_is_interchangeable(self, service, tmp_path):
        """The replicated directory reopens as a first-class journal
        under the same fingerprint — a standby can replay it."""
        with follow(service.address, tmp_path / "replica") as follower:
            follower.catch_up(timeout=60.0)
            follower.journal.close()
        reopened = Journal(tmp_path / "replica",
                           service_fingerprint("audit"))
        try:
            assert reopened.tip_digest == service.journal.tip_digest
        finally:
            reopened.close()

    def test_diverged_replica_refuses_the_feed(self, service, tmp_path):
        replica = Journal(tmp_path / "diverged",
                          service_fingerprint("audit"))
        try:
            replica.append({"kind": "submitted", "job": "local-history",
                            "spec": {}})
            with follow(service.address, tmp_path / "unused") as follower:
                follower._journal = replica
                with pytest.raises(JournalError):
                    follower.catch_up(timeout=30.0)
        finally:
            replica.close()


class TestRestartResume:
    def test_journaled_submission_survives_a_restart(self, tmp_path,
                                                     campaign_spec):
        """Submissions accepted by a paused service execute after a
        restart: the journal is the queue's durable form."""
        root = tmp_path / "journal"
        with AuditService(root, start_worker=False) as paused:
            with ServiceClient(paused.address) as submitter:
                accepted = submitter.submit(dict(campaign_spec, shards=1))
                # The paused service acknowledged but never ran it.
                state = submitter.status(accepted["job"])["state"]
                assert state["status"] == "submitted"
        with AuditService(root) as restarted:
            with ServiceClient(restarted.address) as watcher:
                final = watcher.wait_for_job(accepted["job"],
                                             timeout=300.0)
        assert final["status"] == "completed", final.get("error")
        assert final["job_id"] == accepted["job"]


class TestOpsSurface:
    """The PR 9 read-only ops frames: metrics and trace ride the same
    socket, never the journal."""

    def test_metrics_frame_snapshot_and_prometheus(self, client,
                                                   campaign_job):
        response = client.metrics()
        assert response["type"] == "metrics"
        snapshot = response["snapshot"]
        assert snapshot["version"] == 1
        names = {entry["name"] for entry in snapshot["metrics"]}
        # The journal fsync instrumentation fired for every append the
        # campaign job produced.
        assert "journal_appends_total" in names
        assert "journal_append_fsync_seconds" in names
        assert "# TYPE journal_appends_total counter" \
            in response["prometheus"]
        assert "journal_append_fsync_seconds_bucket" \
            in response["prometheus"]

    def test_metrics_frame_leaves_journal_untouched(self, client,
                                                    service):
        before = service.journal.tip_seq
        client.metrics()
        client.trace()
        assert service.journal.tip_seq == before

    def test_trace_frame_serves_live_buffer_shape(self, client):
        response = client.trace()
        assert response["type"] == "trace"
        assert isinstance(response["spans"], list)

    def test_trace_frame_hostile_fingerprint_is_empty_not_error(
            self, client):
        response = client.trace("../../etc")
        assert response == {"type": "trace", "trace_id": None,
                            "spans": []}

    def test_miss_after_completed_job_is_not_flagged_empty(
            self, client, campaign_job):
        miss = client.query(what="job", job="f" * 16)
        assert miss["type"] == "result" and not miss["hit"]
        assert "empty" not in miss


class TestEmptyService:
    """The PR 9 query fix: a miss against a service with nothing
    sealed is a typed empty state, not an opaque null."""

    def test_query_before_any_completed_job_is_typed_empty(
            self, tmp_path):
        with AuditService(tmp_path / "journal",
                          store_dir=tmp_path / "store",
                          start_worker=False) as fresh:
            with ServiceClient(fresh.address) as probe:
                response = probe.query(what="job", job="f" * 16)
        assert response["type"] == "result"
        assert not response["hit"]
        assert response["empty"] is True
        assert "no completed jobs" in response["reason"]

    def test_cli_query_renders_the_empty_state(self, tmp_path, capsys):
        from repro.cli import main

        with AuditService(tmp_path / "journal",
                          store_dir=tmp_path / "store",
                          start_worker=False) as fresh:
            rc = main(["query", "--connect", str(fresh.address),
                       "--what", "job", "--job", "f" * 16])
        assert rc == 1
        err = capsys.readouterr().err
        assert "no completed jobs" in err
