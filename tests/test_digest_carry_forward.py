"""Carried-forward wave digests, churn's one-pass schedule, and the
per-seed compliance standard.

A delta wave re-digests only the cells churn touched: a cell whose
world parts and truth objects are all the prior wave's keeps the prior
digest unencoded. These tests hold that memo to the from-scratch
digests it replaces — over several worlds and churn models, against a
prior it must not trust, and under targeted ``set_truth`` edits — and
prove the panel's stores, row caches and logbooks do not move a byte.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import pytest

import repro.analysis.incremental as incremental_module
import repro.longitudinal.campaign as campaign_module
import repro.synth.churn as churn_module
from harness.equivalence import canonical_logbook_bytes
from repro.analysis.incremental import (
    full_wave_analysis,
    row_cache_for,
    standard_for_seed,
    wave_analysis,
)
from repro.isp.deployment import UNSERVED, ServiceTruth
from repro.longitudinal import PanelCampaign, compute_wave_digests
from repro.obs.metrics import REGISTRY
from repro.synth.churn import ChurnModel, churned_world
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import build_world

pytestmark = pytest.mark.longitudinal

SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))
HORIZONS = (1, 2, 3, 5)
MODELS = {
    "sparse": ChurnModel(cell_rate=0.1),
    "every_cell": ChurnModel(cell_rate=1.0),
    "heavy_retirement": ChurnModel(cell_rate=0.3, retirement_rate=0.3),
}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def carried_waves(world, model):
    """Each horizon's world and digests, each carried from the last."""
    prior = None
    for horizon in (0, *HORIZONS):
        evolved = (world if horizon == 0
                   else churned_world(world, years=horizon, model=model))
        digests = compute_wave_digests(evolved, prior=prior, **SUBSET)
        yield evolved, digests
        prior = digests


@pytest.fixture(scope="module")
def second_world():
    return build_world(ScenarioConfig.tiny(seed=11))


class TestCarriedDigestsEqualFromScratch:
    @pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
    @pytest.mark.parametrize("which", ("world", "second_world"))
    def test_every_wave_equals_scratch(self, which, model, request):
        world = request.getfixturevalue(which)
        reused = 0
        for evolved, digests in carried_waves(world, model):
            scratch = compute_wave_digests(evolved, **SUBSET)
            assert digests.q12 == scratch.q12
            assert digests.q3 == scratch.q3
            assert scratch.reused == 0
            reused += digests.reused
        # Vacuous unless some digest was actually carried.
        assert reused > 0

    def test_heavy_retirement_reads_shared_and_fresh_unserved(self, world):
        """Retirement yields new ``ServiceTruth(serves=False)`` objects
        next to the shared ``UNSERVED`` default; both must digest as the
        equal values they are."""
        *_, (evolved, digests) = carried_waves(
            world, MODELS["heavy_retirement"])
        truths = [truth for cell_truths in (*digests.q12_truths.values(),
                                            *digests.q3_truths.values())
                  for truth in cell_truths]
        assert any(truth is UNSERVED for truth in truths)
        assert any(truth == UNSERVED and truth is not UNSERVED
                   for truth in truths)
        assert digests == compute_wave_digests(evolved, **SUBSET)

    def test_panel_waves_equal_scratch(self, world):
        for outcome in PanelCampaign(world, model=MODELS["sparse"],
                                     horizons=HORIZONS, **SUBSET).waves():
            assert outcome.digests == compute_wave_digests(outcome.world,
                                                           **SUBSET)


class TestCarryForwardRule:
    def test_prior_from_another_world_reuses_nothing(self, world):
        """A separately built world has equal truth values but none of
        the same objects, so nothing may be carried — and the digests
        still agree."""
        twin = build_world(world.config)
        prior = compute_wave_digests(world, **SUBSET)
        digests = compute_wave_digests(twin, prior=prior, **SUBSET)
        assert digests.reused == 0
        assert digests.computed == digests.total_cells
        assert digests == prior

    @pytest.mark.parametrize("part", (
        "config", "caf_by_isp_state", "caf_addresses", "hubb", "zillow",
        "block_competition"))
    def test_a_copied_static_part_reuses_nothing(self, world, part):
        """Every truth object is shared, but one static part is a copy:
        the cells' keys and addresses are no longer proven unchanged,
        so nothing is carried."""
        prior = compute_wave_digests(world, **SUBSET)
        other = dataclasses.replace(
            world, **{part: copy.copy(getattr(world, part))})
        digests = compute_wave_digests(other, prior=prior, **SUBSET)
        assert digests.reused == 0
        assert digests == prior

    def test_other_subsets_reuse_nothing(self, world):
        prior = compute_wave_digests(world, **SUBSET)
        digests = compute_wave_digests(
            world, prior=prior, **{**SUBSET, "q3_states": None})
        assert digests.reused == 0

    def test_same_world_reuses_everything(self, world):
        prior = compute_wave_digests(world, **SUBSET)
        digests = compute_wave_digests(world, prior=prior, **SUBSET)
        assert digests.reused == digests.total_cells
        assert digests.computed == 0
        assert digests == prior

    def test_set_truth_recomputes_only_that_cell(self, world):
        """An equal but new truth object recomputes its cell to the
        same digest; a different value moves that digest alone."""
        # years=0 copies the truth map (same objects) into a new
        # GroundTruth this test may edit.
        evolved = churned_world(world, years=0)
        prior = compute_wave_digests(evolved, **SUBSET)
        cell = next(iter(prior.q12))
        address = evolved.caf_addresses_by_cbg(
            cell.isp_id, cell.state)[cell.cbg][0]
        old = evolved.ground_truth.truth_for(cell.isp_id,
                                             address.address_id)

        evolved.ground_truth.set_truth(cell.isp_id, address.address_id,
                                       dataclasses.replace(old))
        equal = compute_wave_digests(evolved, prior=prior, **SUBSET)
        assert equal.computed == 1
        assert equal == prior

        moved = ServiceTruth(serves=False) if old.serves else ServiceTruth(
            serves=True, existing_subscriber=True, tier_label="moved")
        evolved.ground_truth.set_truth(cell.isp_id, address.address_id,
                                       moved)
        changed = compute_wave_digests(evolved, prior=equal, **SUBSET)
        assert changed.q12[cell] != prior.q12[cell]
        assert {c: d for c, d in changed.q12.items() if c != cell} == \
            {c: d for c, d in prior.q12.items() if c != cell}


def run_panel(world, root: Path | None = None, horizons=(1, 2),
              subset=SUBSET):
    """A panel with wave analysis: its outcomes and wave payloads."""
    store = None if root is None else str(root / "store")
    campaign = PanelCampaign(world, model=MODELS["sparse"],
                             horizons=horizons, store_dir=store, **subset)
    cache = row_cache_for(campaign,
                          directory=None if root is None else root / "rows")
    outcomes, payloads = [], []
    for outcome in campaign.waves():
        payloads.append(wave_analysis(outcome, cache=cache).to_payload())
        outcomes.append(outcome)
    return outcomes, payloads


def scratch_digests(monkeypatch):
    """Route the campaign's digesting through the from-scratch path."""
    compute = campaign_module.compute_wave_digests

    def from_scratch(*args, prior=None, **kwargs):
        return compute(*args, **kwargs)

    monkeypatch.setattr(campaign_module, "compute_wave_digests",
                        from_scratch)


class TestPanelBytesUnchanged:
    @pytest.mark.parametrize("seed", (130, 41))
    def test_store_and_rows_equal_scratch_digests(self, seed, tmp_path,
                                                  monkeypatch):
        """The benchmark's panel worlds and shape (perfbench seeds 0 and
        3, every ISP, four delta waves): the store and row-cache trees
        are byte-identical whether digests are carried forward or
        recomputed every wave."""
        world = build_world(ScenarioConfig(seed=seed, address_scale=0.002))
        outcomes, carried = run_panel(world, tmp_path / "carried",
                                      horizons=(1, 2, 3, 4), subset={})
        assert sum(outcome.digests.reused for outcome in outcomes) > 0
        scratch_digests(monkeypatch)
        _, scratch = run_panel(world, tmp_path / "scratch",
                               horizons=(1, 2, 3, 4), subset={})
        assert carried == scratch
        tree = tree_bytes(tmp_path / "carried")
        assert tree and tree == tree_bytes(tmp_path / "scratch")


class TestDigestTelemetry:
    COUNTERS = ("panel_digests_reused_total", "panel_digests_computed_total",
                "panel_cells_changed_total", "panel_cells_replayed_total")

    def test_counters_and_traced_logbooks(self, world, tmp_path,
                                          monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        plain, _ = run_panel(world)

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        before = {name: REGISTRY.counter(name).value
                  for name in self.COUNTERS}
        traced, _ = run_panel(world)
        moved = {name: REGISTRY.counter(name).value - before[name]
                 for name in self.COUNTERS}

        snapshot = traced[0].digests
        assert snapshot.reused == 0
        assert snapshot.computed == snapshot.total_cells
        for outcome in traced:
            digests = outcome.digests
            assert digests.reused + digests.computed == digests.total_cells
        assert sum(o.digests.reused for o in traced[1:]) > 0
        assert moved["panel_digests_reused_total"] == sum(
            o.digests.reused for o in traced)
        assert moved["panel_digests_computed_total"] == sum(
            o.digests.computed for o in traced)
        assert (moved["panel_digests_reused_total"]
                + moved["panel_digests_computed_total"]) == (
            moved["panel_cells_changed_total"]
            + moved["panel_cells_replayed_total"])
        assert [canonical_logbook_bytes(o.collection, o.q3)
                for o in traced] == \
            [canonical_logbook_bytes(o.collection, o.q3) for o in plain]


class TestChurnCbgLookups:
    @pytest.mark.parametrize("cell_rate", (0.1, 1.0))
    def test_one_lookup_per_address(self, world, cell_rate, monkeypatch):
        """Cell-gated churn resolves each address's CBG once per
        evolve; ungated churn needs no CBG at all."""
        lookups: list[str] = []
        resolve = churn_module._address_cbg

        def counting(world, address_id):
            lookups.append(address_id)
            return resolve(world, address_id)

        monkeypatch.setattr(churn_module, "_address_cbg", counting)
        churned_world(world, years=3, model=ChurnModel(cell_rate=cell_rate))
        addresses = {address_id
                     for _, address_id in world.ground_truth.pairs()}
        expected = sorted(addresses) if cell_rate < 1.0 else []
        assert sorted(lookups) == expected


class TestOneStandardPerPanel:
    def test_waves_share_one_standard_and_match_full(self, world,
                                                     monkeypatch):
        surveys: list[int] = []
        generate = incremental_module.generate_urban_rate_survey

        def counting(seed):
            surveys.append(seed)
            return generate(seed=seed)

        standard_for_seed.cache_clear()
        monkeypatch.setattr(incremental_module,
                            "generate_urban_rate_survey", counting)
        try:
            outcomes, payloads = run_panel(world)
            full = [full_wave_analysis(o).to_payload() for o in outcomes]
            assert surveys == [world.config.seed]
            assert standard_for_seed(world.config.seed) is \
                standard_for_seed(world.config.seed)
        finally:
            standard_for_seed.cache_clear()
        assert [json.dumps(p, sort_keys=True) for p in payloads] == \
            [json.dumps(p, sort_keys=True) for p in full]
