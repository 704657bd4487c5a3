"""Tests for repro.obs: tracing, metrics, reports — and the proofs
that observability never touches an output byte.

Four layers:

* **trace unit tests** — deterministic ids, stack/adopted parenting,
  drain/ingest movement, and the damage-tolerant sidecar store;
* **metrics unit tests** — counter/gauge/histogram semantics, the
  commutative merge, drain deltas, and both expositions;
* **report unit tests** — tree assembly (orphans become roots, never
  vanish), self-time, and the critical path;
* **equivalence + chaos** — logbook bytes are identical with
  ``REPRO_TRACE=1`` and without, and a killed worker still yields ONE
  stitched trace whose ``lease.reassign`` span parents the retried
  shard's spans.
"""

from __future__ import annotations

import json

import pytest

from harness.equivalence import canonical_logbook_bytes
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_VERSION,
)
from repro.obs.report import build_tree, critical_path, render_tree, \
    self_seconds
from repro.obs.trace import (
    TRACE_CONTEXT_VERSION,
    TraceBuffer,
    TraceStore,
    derive_span_id,
    derive_trace_id,
    tracing_enabled,
)
from repro.runtime import RuntimeConfig, execute_campaign, plan_shards
from repro.runtime.checkpoint import campaign_fingerprint
from repro.runtime.distributed import run_shards_distributed
from repro.runtime.merge import merge_shard_results

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))

FP = "a" * 64  # a stand-in campaign fingerprint


@pytest.fixture
def traced(monkeypatch):
    """REPRO_TRACE=1 plus a fresh buffer, restored afterwards."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    buffer = TraceBuffer()
    buffer.configure(FP, site="test")
    return buffer


# ----------------------------------------------------------------------
# trace: identity
# ----------------------------------------------------------------------

class TestIdentity:
    def test_trace_id_is_deterministic(self):
        assert derive_trace_id(FP) == derive_trace_id(FP)
        assert derive_trace_id(FP) != derive_trace_id("b" * 64)
        assert len(derive_trace_id(FP)) == 32

    def test_span_id_varies_by_every_input(self):
        base = derive_span_id("t", "p", "n", 0)
        assert len(base) == 16
        assert derive_span_id("t", "p", "n", 0) == base
        assert derive_span_id("t2", "p", "n", 0) != base
        assert derive_span_id("t", "p2", "n", 0) != base
        assert derive_span_id("t", "p", "n2", 0) != base
        assert derive_span_id("t", "p", "n", 1) != base

    def test_same_campaign_rerun_yields_same_ids(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        ids = []
        for _ in range(2):
            buffer = TraceBuffer()
            buffer.configure(FP)
            with buffer.span("campaign") as outer:
                with buffer.span("shard.run", index=0) as inner:
                    pass
            ids.append((buffer.trace_id, outer.span_id, inner.span_id))
        assert ids[0] == ids[1]

    def test_repeat_campaign_same_process_gets_fresh_span_ids(
            self, traced):
        """Ordinals persist across same-fingerprint re-runs, so a
        repeated campaign's spans never collide with the first run's
        in one accumulated sidecar."""
        with traced.span("campaign") as first:
            pass
        with traced.span("campaign") as second:
            pass
        assert first.span_id != second.span_id


# ----------------------------------------------------------------------
# trace: buffer semantics
# ----------------------------------------------------------------------

class TestTraceBuffer:
    def test_disabled_returns_shared_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not tracing_enabled()
        buffer = TraceBuffer()
        buffer.configure(FP)
        span_ = buffer.span("anything", shard=3)
        with span_ as entered:
            assert entered.span_id == ""
        assert buffer.snapshot() == []

    def test_unconfigured_buffer_is_noop_even_when_enabled(
            self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        buffer = TraceBuffer()
        with buffer.span("early"):
            pass
        assert buffer.snapshot() == []

    def test_nesting_parents_via_thread_stack(self, traced):
        with traced.span("outer") as outer:
            with traced.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = {r["name"]: r for r in traced.snapshot()}
        assert records["outer"]["parent_id"] == ""
        assert records["inner"]["parent_id"] == outer.span_id
        assert records["inner"]["trace_id"] == traced.trace_id

    def test_explicit_parent_wins_over_stack(self, traced):
        with traced.span("outer"):
            with traced.span("graft", parent_id="feedbeef00000000") as g:
                assert g.parent_id == "feedbeef00000000"

    def test_record_shape(self, traced):
        with traced.span("op", shard=7):
            pass
        [record] = traced.snapshot()
        assert record["name"] == "op"
        assert record["site"] == "test"
        assert record["attrs"] == {"shard": 7}
        assert record["duration"] >= 0.0
        assert "error" not in record

    def test_exception_marks_error_and_propagates(self, traced):
        with pytest.raises(ValueError):
            with traced.span("doomed"):
                raise ValueError("boom")
        [record] = traced.snapshot()
        assert record["error"] is True

    def test_adopt_and_clear(self, traced):
        context = {"version": TRACE_CONTEXT_VERSION,
                   "trace_id": "f" * 32, "span_id": "e" * 16}
        assert traced.adopt(context)
        assert traced.trace_id == "f" * 32
        with traced.span("remote.child") as child:
            assert child.parent_id == "e" * 16
        # Invalid/missing context clears adoption and re-derives.
        assert not traced.adopt(None)
        assert traced.trace_id == derive_trace_id(FP)
        with traced.span("local.root") as root:
            assert root.parent_id == ""

    def test_adopt_rejects_future_version(self, traced):
        refused = {"version": TRACE_CONTEXT_VERSION + 1,
                   "trace_id": "f" * 32, "span_id": "e" * 16}
        assert not traced.adopt(refused)
        assert traced.trace_id == derive_trace_id(FP)

    def test_current_context_tracks_stack_top(self, traced):
        outer_context = traced.current_context()
        assert outer_context == {"version": TRACE_CONTEXT_VERSION,
                                 "trace_id": traced.trace_id,
                                 "span_id": ""}
        with traced.span("outer") as outer:
            assert traced.current_context()["span_id"] == outer.span_id

    def test_new_fingerprint_resets_records_and_ordinals(self, traced):
        with traced.span("campaign"):
            pass
        traced.configure("b" * 64)
        assert traced.snapshot() == []
        with traced.span("campaign") as fresh:
            pass
        assert fresh.span_id == derive_span_id(
            derive_trace_id("b" * 64), "", "campaign", 0)

    def test_drain_clears_ingest_filters(self, traced):
        with traced.span("op"):
            pass
        records = traced.drain()
        assert len(records) == 1
        assert traced.snapshot() == []
        traced.ingest(records + ["junk", {"no": "span_id"}, None])
        assert traced.snapshot() == records
        traced.ingest("not-a-list")
        assert traced.snapshot() == records


# ----------------------------------------------------------------------
# trace: sidecar store
# ----------------------------------------------------------------------

class TestTraceStore:
    RECORD = {"trace_id": "t" * 32, "span_id": "s" * 16,
              "parent_id": "", "name": "op", "site": "coordinator",
              "start": 1.0, "duration": 0.5}

    def test_save_load_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path, FP)
        path = store.save_trace("coordinator", [self.RECORD])
        assert path.name == "trace-coordinator.jsonl"
        assert path.parent == tmp_path / FP[:16]
        assert store.load_spans() == [self.RECORD]

    def test_second_save_accumulates(self, tmp_path):
        store = TraceStore(tmp_path, FP)
        store.save_trace("coordinator", [self.RECORD])
        second = dict(self.RECORD, span_id="r" * 16)
        store.save_trace("coordinator", [second])
        assert store.load_spans() == [self.RECORD, second]

    def test_sites_get_separate_files(self, tmp_path):
        store = TraceStore(tmp_path, FP)
        store.save_trace("coordinator", [self.RECORD])
        store.save_trace("worker-123", [dict(self.RECORD,
                                             site="worker-123")])
        files = sorted(p.name for p
                       in store.namespace_directory.glob("trace-*.jsonl"))
        assert files == ["trace-coordinator.jsonl",
                         "trace-worker-123.jsonl"]
        assert len(store.load_spans()) == 2

    def test_hostile_site_name_is_sanitized(self, tmp_path):
        store = TraceStore(tmp_path, FP)
        path = store.save_trace("../../evil site", [self.RECORD])
        assert path.parent == store.namespace_directory
        assert "/" not in path.name.replace("trace-", "", 1)

    def test_damaged_lines_are_skipped_not_fatal(self, tmp_path):
        store = TraceStore(tmp_path, FP)
        path = store.save_trace("coordinator", [self.RECORD])
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw + "{torn json\n", encoding="utf-8")
        assert store.load_spans() == [self.RECORD]

    def test_missing_namespace_is_empty(self, tmp_path):
        assert TraceStore(tmp_path, FP).load_spans() == []


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("shards_total").inc()
        registry.counter("shards_total").inc(3)
        registry.gauge("inflight").set(5.0)
        registry.gauge("inflight").set(2.0)
        registry.histogram("wait_seconds").observe(0.25)
        snapshot = {entry["name"]: entry
                    for entry in registry.snapshot()["metrics"]}
        assert snapshot["shards_total"]["value"] == 4
        assert snapshot["inflight"]["value"] == 2.0
        assert snapshot["wait_seconds"]["count"] == 1
        assert snapshot["wait_seconds"]["sum"] == 0.25

    def test_labels_split_instruments(self):
        registry = MetricsRegistry()
        registry.counter("sessions", isp="a").inc()
        registry.counter("sessions", isp="b").inc(2)
        entries = registry.snapshot()["metrics"]
        assert [(e["labels"], e["value"]) for e in entries] == \
            [({"isp": "a"}, 1), ({"isp": "b"}, 2)]

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_histogram_bucket_edges(self):
        hist = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 99.0):
            hist.observe(value)
        # Inclusive upper edges: 1.0 lands in bucket 0, 2.0 in bucket 1.
        assert hist.counts == [2, 2, 1]
        assert hist.count == 5

    def test_default_buckets_cover_microseconds_to_minutes(self):
        assert DEFAULT_BUCKETS[0] < 1e-5
        assert DEFAULT_BUCKETS[-1] > 600

    def test_merge_is_commutative(self):
        def loaded(seed):
            registry = MetricsRegistry()
            registry.counter("n").inc(seed)
            registry.gauge("depth").set(float(seed))
            registry.histogram("lat").observe(seed * 0.1)
            return registry

        a, b = loaded(1).snapshot(), loaded(7).snapshot()
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(a)
        ab.merge(b)
        ba.merge(b)
        ba.merge(a)
        assert ab.snapshot() == ba.snapshot()
        merged = {e["name"]: e for e in ab.snapshot()["metrics"]}
        assert merged["n"]["value"] == 8        # counters add
        assert merged["depth"]["value"] == 7.0  # gauges max
        assert merged["lat"]["count"] == 2      # histograms add

    def test_merge_ignores_future_version_and_junk(self):
        registry = MetricsRegistry()
        registry.merge(None)
        registry.merge({"version": SNAPSHOT_VERSION + 1, "metrics": [
            {"name": "n", "kind": "counter", "labels": {}, "value": 9}]})
        registry.merge({"version": SNAPSHOT_VERSION, "metrics": [
            "junk", {"name": "n", "kind": "alien", "labels": {}},
            {"name": 3, "kind": "counter", "labels": {}}]})
        assert registry.snapshot()["metrics"] == []

    def test_drain_leaves_zeroed_instruments(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(5)
        registry.histogram("lat").observe(1.0)
        first = registry.drain()
        assert {e["name"]: e.get("value", e.get("count"))
                for e in first["metrics"]} == {"n": 5, "lat": 1}
        # Post-drain frames carry only new deltas: no double counting.
        registry.counter("n").inc(2)
        second = registry.drain()
        values = {e["name"]: e.get("value", e.get("count"))
                  for e in second["metrics"]}
        assert values == {"n": 2, "lat": 0}

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", kind="audit").inc(3)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        text = registry.render_prometheus()
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{kind="audit"} 3' in text
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_json_exposition_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        payload = json.loads(registry.render_json())
        assert payload["version"] == SNAPSHOT_VERSION
        assert registry.render_json() == json.dumps(
            payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def _span(span_id, parent_id, name, duration, site="main", start=0.0):
    return {"trace_id": "t" * 32, "span_id": span_id,
            "parent_id": parent_id, "name": name, "site": site,
            "start": start, "duration": duration}


class TestReport:
    def test_orphans_become_roots_not_silence(self):
        records = [_span("a", "", "root", 2.0),
                   _span("b", "a", "child", 1.0),
                   _span("c", "missing-parent", "orphan", 0.5)]
        roots, children = build_tree(records)
        assert [r["name"] for r in roots] == ["root", "orphan"]
        assert [r["name"] for r in children["a"]] == ["child"]

    def test_self_seconds_subtracts_children_floored(self):
        records = [_span("a", "", "root", 2.0),
                   _span("b", "a", "child", 1.5),
                   _span("c", "a", "child2", 1.0)]
        _, children = build_tree(records)
        assert self_seconds(records[0], children) == 0.0  # floored
        assert self_seconds(records[1], children) == 1.5

    def test_render_tree_shows_hierarchy(self):
        records = [_span("a", "", "campaign", 2.0),
                   _span("b", "a", "shard.run", 1.0, site="worker-1",
                         start=0.1),
                   _span("c", "a", "merge", 0.5, start=0.2)]
        text = render_tree(records)
        lines = text.splitlines()
        assert lines[0].startswith("campaign [main]")
        assert any("└─" in line or "├─" in line for line in lines[1:])
        assert "shard.run [worker-1]" in text
        assert render_tree([]) == "(no spans)"

    def test_critical_path_follows_longest_chain(self):
        records = [_span("a", "", "campaign", 3.0),
                   _span("b", "a", "dispatch", 2.5),
                   _span("c", "a", "plan", 0.1),
                   _span("d", "b", "shard.run", 2.0)]
        path = critical_path(records, top=10)
        assert {r["name"] for r in path} == \
            {"campaign", "dispatch", "shard.run"}
        # Ranked by self-time: the leaf doing the work leads.
        assert path[0]["name"] == "shard.run"
        assert critical_path([], top=3) == []


# ----------------------------------------------------------------------
# the byte contract: tracing on == tracing off
# ----------------------------------------------------------------------

@pytest.mark.equivalence
class TestTracingByteEquivalence:
    def test_serial_bytes_identical_and_sidecar_published(
            self, world, tmp_path, monkeypatch):
        config = RuntimeConfig(shards=2, backend="serial")
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        baseline = canonical_logbook_bytes(
            *execute_campaign(world, config, **SUBSET))

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        traced = canonical_logbook_bytes(
            *execute_campaign(world, config, **SUBSET))
        assert traced == baseline

        fingerprint = campaign_fingerprint(
            world.config, None, SUBSET["isps"], 2,
            states=SUBSET["states"], q3_states=SUBSET["q3_states"])
        spans = TraceStore(tmp_path, fingerprint).load_spans()
        names = {record["name"] for record in spans}
        assert {"campaign", "campaign.plan", "campaign.dispatch",
                "campaign.merge", "shard.run"} <= names
        assert {record["trace_id"] for record in spans} == \
            {derive_trace_id(fingerprint)}

        # The campaign span tells placement and interleaving apart: an
        # event-loop run of the same campaign differs only in
        # max_inflight.
        def campaign_attrs(trace_dir):
            (campaign,) = [
                record for record in
                TraceStore(trace_dir, fingerprint).load_spans()
                if record["name"] == "campaign"]
            return campaign["attrs"]

        assert campaign_attrs(tmp_path)["backend"] == "serial"
        assert campaign_attrs(tmp_path)["max_inflight"] is None
        looped = tmp_path / "looped"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(looped))
        execute_campaign(world, RuntimeConfig(shards=2, backend="serial",
                                              max_inflight=8), **SUBSET)
        assert campaign_attrs(looped)["backend"] == "serial"
        assert campaign_attrs(looped)["max_inflight"] == 8

    def test_all_five_backends_bytes_identical_under_tracing(
            self, world, tmp_path, monkeypatch):
        """The acceptance matrix: every execution mode produces the
        same bytes with REPRO_TRACE=1 as the untraced serial run."""
        from harness.equivalence import backend_matrix, mode_label

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        baseline = canonical_logbook_bytes(*execute_campaign(
            world, RuntimeConfig(shards=3, backend="serial"), **SUBSET))
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        for config in backend_matrix():
            traced = canonical_logbook_bytes(
                *execute_campaign(world, config, **SUBSET))
            assert traced == baseline, (
                f"mode {mode_label(config)} bytes diverged "
                f"under REPRO_TRACE=1")


# ----------------------------------------------------------------------
# chaos: a killed worker still stitches into ONE tree
# ----------------------------------------------------------------------

@pytest.mark.chaos
class TestChaosTraceStitching:
    def test_worker_kill_yields_single_stitched_tree(
            self, world, tmp_path, monkeypatch):
        """The observability acceptance scenario: kill a worker on its
        first lease. The campaign must finish byte-identical (that
        part the distributed chaos suite already proves) AND the trace
        must stitch into one tree where the ``lease.reassign`` span
        parents the retried shard's worker-side spans."""
        from repro.obs.trace import BUFFER, configure_tracing, \
            drain_spans

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        config = RuntimeConfig(shards=4, workers=2, backend="distributed")
        specs = plan_shards(world, 4, **SUBSET)
        fingerprint = campaign_fingerprint(
            world.config, None, SUBSET["isps"], 4,
            states=SUBSET["states"], q3_states=SUBSET["q3_states"])
        configure_tracing(fingerprint, site="coordinator")
        drain_spans()  # start from a clean buffer

        completed = {}
        with BUFFER.span("campaign.dispatch", shards=4):
            run_shards_distributed(
                world, specs, None, None, 2, config,
                config.per_shard_isp_cap_for(len(specs)),
                lambda result: completed.__setitem__(result.index,
                                                     result),
                first_worker_extra_args=("--die-after", "0"))
        assert sorted(completed) == [0, 1, 2, 3]

        spans = drain_spans()
        by_id = {record["span_id"]: record for record in spans}

        # ONE trace across coordinator and surviving workers.
        assert {record["trace_id"] for record in spans} == \
            {derive_trace_id(fingerprint)}
        sites = {record["site"] for record in spans}
        assert "coordinator" in sites
        assert any(site.startswith("worker-") for site in sites)

        # The kill produced a reassign span, parented inside the
        # dispatch, and the retried shard's spans hang under IT.
        reassigns = [r for r in spans if r["name"] == "lease.reassign"]
        assert reassigns, "worker kill must record a lease.reassign span"
        reassign_ids = {r["span_id"] for r in reassigns}
        retried = [r for r in spans
                   if r["name"] == "shard.run"
                   and r["parent_id"] in reassign_ids]
        assert retried, ("the reassigned shard's worker spans must "
                         "parent under the lease.reassign span")
        for record in reassigns:
            parent = by_id.get(record["parent_id"])
            assert parent is not None and \
                parent["name"] == "campaign.dispatch"

        # Every span's parent resolves (or is a root): one stitched
        # tree, not a forest of lost parents.
        roots, _ = build_tree(spans)
        assert [r["name"] for r in roots] == ["campaign.dispatch"]

        # And the byte contract held through the chaos.
        serial = canonical_logbook_bytes(*execute_campaign(
            world, RuntimeConfig(shards=4, backend="serial"), **SUBSET))
        collection, q3 = merge_shard_results(
            world, specs, completed, policy=None, **SUBSET)
        assert canonical_logbook_bytes(collection, q3) == serial
