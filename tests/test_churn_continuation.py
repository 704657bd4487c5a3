"""Continued churn against the from-snapshot replay oracle.

A :class:`~repro.synth.churn.ChurnTrajectory` reaches each horizon from
the last one, carrying the evolved truth, the live per-pair streams and
the cell grouping; :func:`~repro.synth.churn.churned_world` replays
every year from the snapshot. These tests hold the two to the same
truth, pair for pair and in the same order, over two worlds, three cell
rates, consecutive and skipping horizons, and the panel's own waves
(fresh and resumed from the store). They also pin the identity the
digest carry-forward keys on: a pair whose cell did not churn in a new
year keeps its truth object.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.longitudinal import PanelCampaign
from repro.stats.distributions import stable_uniforms
from repro.synth import churn as churn_module
from repro.synth.churn import ChurnModel, ChurnTrajectory, churned_world
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import build_world

pytestmark = pytest.mark.longitudinal

MODELS = {f"cell_rate_{rate}": ChurnModel(cell_rate=rate,
                                          retirement_rate=0.3)
          for rate in (0.1, 0.3, 1.0)}
HORIZONS = {"consecutive": (1, 2, 3, 4, 5), "skipping": (1, 3, 5)}
SUBSET = dict(isps=("consolidated",), states=("VT", "NH"),
              q3_states=("UT",))


def truth_hash(world) -> str:
    """A ``repr`` hash of every (pair, truth), in truth-map order."""
    truth = world.ground_truth
    return hashlib.sha256(repr([
        (pair, truth.truth_for(*pair)) for pair in truth.pairs()
    ]).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def second_world():
    return build_world(ScenarioConfig.tiny(seed=11))


def churned_cells(world, model, years: range) -> set[tuple[str, str]]:
    """The (ISP, CBG) cells whose gate opened in any of ``years``."""
    cells = sorted({(isp_id, churn_module._address_cbg(world, address_id))
                    for isp_id, address_id in world.ground_truth.pairs()})
    keys = [(cell, year) for cell in cells for year in years]
    rolls = stable_uniforms((world.config.seed, "churn-cell", *cell, year)
                            for cell, year in keys)
    return {cell for (cell, _year), roll in zip(keys, rolls)
            if roll < model.cell_rate}


@pytest.mark.parametrize("horizons", HORIZONS.values(), ids=HORIZONS.keys())
@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
@pytest.mark.parametrize("which", ("world", "second_world"))
def test_continued_equals_replayed(which, model, horizons, request):
    world = request.getfixturevalue(which)
    trajectory = ChurnTrajectory(world, model)
    prior, reached, kept = world, 0, 0
    for horizon in horizons:
        continued = trajectory.advance(horizon)
        assert truth_hash(continued) == truth_hash(
            churned_world(world, years=horizon, model=model))
        assert trajectory.last_step["years"] == list(range(reached,
                                                           horizon))
        if model.cell_rate < 1.0:
            churned = churned_cells(world, model, range(reached, horizon))
            assert trajectory.last_step["cells"] == len(churned)
            for isp_id, address_id in world.ground_truth.pairs():
                cbg = churn_module._address_cbg(world, address_id)
                if (isp_id, cbg) not in churned:
                    assert continued.ground_truth.truth_for(
                        isp_id, address_id) is prior.ground_truth.truth_for(
                        isp_id, address_id)
                    kept += 1
        # Static parts are the snapshot's: only truth and storefronts move.
        assert continued.caf_addresses is world.caf_addresses
        assert continued.ground_truth is not world.ground_truth
        prior, reached = continued, horizon
    # Vacuous unless some pair sat out a churning year.
    assert kept > 0 or model.cell_rate == 1.0


def test_advance_is_monotone(world):
    trajectory = ChurnTrajectory(world, MODELS["cell_rate_0.3"])
    assert trajectory.advance(0) is world
    two = trajectory.advance(2)
    assert trajectory.advance(2) is two
    with pytest.raises(ValueError, match="rewind"):
        trajectory.advance(1)


@pytest.mark.parametrize("resume", (False, True), ids=("fresh", "resumed"))
def test_panel_waves_equal_replay(world, tmp_path, resume):
    """The panel's wave worlds are continued, and equal the replay —
    also when every wave is restored from the store, as a daemon panel
    (which always resumes) runs."""
    model = MODELS["cell_rate_0.3"]
    store = str(tmp_path / "store")
    if resume:
        PanelCampaign(world, model=model, horizons=(1, 3, 4),
                      store_dir=store, **SUBSET).run()
    outcomes = PanelCampaign(world, model=model, horizons=(1, 3, 4),
                             store_dir=store, resume=resume,
                             **SUBSET).run()
    assert [o.restored_from_store for o in outcomes] == [resume] * 4
    for outcome in outcomes[1:]:
        assert truth_hash(outcome.world) == truth_hash(churned_world(
            world, years=outcome.horizon_years, model=model))
