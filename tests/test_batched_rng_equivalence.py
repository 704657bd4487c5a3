"""The batched RNG twins against their scalar reference, end to end.

:func:`~repro.stats.distributions.stable_rngs`,
:func:`~repro.stats.distributions.stable_seed_sequences` and
:func:`~repro.stats.distributions.stable_uniforms` promise exactly the
values :func:`~repro.stats.distributions.stable_rng` gives. These tests
swap every consumer's batched twin for a plain ``stable_rng`` loop and
assert the campaign logbook, the churned truth and the headline come
out byte-identical; and that an engine primed for its cell answers
exactly like fresh, unprimed ``query`` calls.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

# The batched twins' consumers, imported so the fixture can patch them.
import repro.bqt.engine
import repro.bqt.priming  # noqa: F401
import repro.bqt.websites
import repro.isp.deployment  # noqa: F401
import repro.synth.churn  # noqa: F401
from harness.equivalence import canonical_logbook_bytes
from repro.bqt.engine import BqtEngine, EngineConfig
from repro.bqt.websites import build_website
from repro.core.collection import (
    q3_block_candidates,
    q3_block_setup,
    run_q3_block,
    run_q12_cell,
)
from repro.core.pipeline import run_full_audit
from repro.stats import distributions
from repro.stats.distributions import stable_rng
from repro.synth.churn import ChurnModel, churned_world
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import build_world

pytestmark = pytest.mark.equivalence

SCALAR_TWINS = {
    "stable_rngs": lambda keys: (stable_rng(*key) for key in keys),
    "stable_seed_sequences": lambda keys: (
        stable_rng(*key).bit_generator.seed_seq for key in keys),
    "stable_uniforms": lambda keys: [float(stable_rng(*key).random())
                                     for key in keys],
}
CONSUMERS = {"repro.isp.deployment", "repro.synth.churn",
             "repro.bqt.priming"}


@pytest.fixture
def scalar_twins(monkeypatch):
    """Route every imported batched twin through a ``stable_rng`` loop."""
    originals = {name: getattr(distributions, name) for name in SCALAR_TWINS}
    patched = set()
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for name, reference in SCALAR_TWINS.items():
            if getattr(module, name, None) is originals[name]:
                monkeypatch.setattr(module, name, reference)
                patched.add(module.__name__)
    assert CONSUMERS <= patched


def _truth_bytes(world) -> bytes:
    return repr([(pair, world.ground_truth.truth_for(*pair))
                 for pair in world.ground_truth.pairs()]).encode("utf-8")


def _outputs(seed: int) -> dict[str, bytes]:
    world = build_world(ScenarioConfig.tiny(seed=seed))
    report = run_full_audit(world=world)
    evolved = churned_world(world, years=2, model=ChurnModel(cell_rate=0.3))
    return {
        "truth": _truth_bytes(world),
        "logbook": canonical_logbook_bytes(report.collection,
                                           report.q3_collection),
        "churned_truth": _truth_bytes(evolved),
        "headline": repr(report.headline()).encode("utf-8"),
    }


@pytest.mark.parametrize("seed", (0, 11))
def test_batched_outputs_equal_scalar_reference(seed, request):
    batched = _outputs(seed)
    request.getfixturevalue("scalar_twins")
    assert _outputs(seed) == batched


# ----------------------------------------------------------------------
# primed engines against fresh unprimed query calls
# ----------------------------------------------------------------------

def _fresh_storefronts(world):
    """``world`` with new storefronts, whose roll memos are empty."""
    return dataclasses.replace(world, websites={
        isp_id: build_website(isp_id, world.ground_truth,
                              seed=world.config.seed)
        for isp_id in world.websites})


@pytest.fixture
def scalar_labels(monkeypatch):
    """The stream labels (``"site"``, ``"engine"``, ...) BQT derived
    through the scalar ``stable_rng``, i.e. its primer misses."""
    labels: list[str] = []

    def counting(*parts):
        labels.append(parts[1])
        return stable_rng(*parts)

    for module in (repro.bqt.engine, repro.bqt.websites):
        monkeypatch.setattr(module, "stable_rng", counting)
    return labels


def test_primed_centurylink_block_matches_unprimed(world, scalar_labels):
    block = next(
        b for b in q3_block_candidates(world)
        if world.block_competition[b].incumbent_isp_id == "centurylink"
        and world.block_competition[b].cable_isp_id
        and q3_block_setup(world, b) is not None)
    scalar_labels.clear()
    primed = run_q3_block(world, block)
    # Every session and roll of the block came from the primer,
    # Brightspeed hand-off rolls included.
    assert not {"engine", "site"} & set(scalar_labels)
    memo = world.websites["centurylink"]._rolls
    assert any(purpose == "bspd" for purpose, _ in memo)

    unprimed = _fresh_storefronts(world)
    fresh = {isp_id: unprimed.engine_for(isp_id)
             for isp_id in {record.isp_id for record in primed.records}}
    expected = [
        fresh[record.isp_id].query(
            world.caf_addresses.get(record.address_id)
            or world.zillow.lookup(record.address_id))
        for record in primed.records]
    assert list(primed.records) == expected
    assert len(fresh) == 2


def test_primed_retry_heavy_cell_matches_unprimed(world, monkeypatch):
    # No rotation lets suspicion pile up on one exit IP: many retries,
    # so the memoized rolls are re-read, and reserve draws exercise the
    # unprimed fallback inside a primed cell.
    config = EngineConfig(max_attempts=6, rotate_proxy_on_failure=False)
    cbg, addresses = max(
        (cell for state in world.config.states
         for cell in world.caf_addresses_by_cbg("att", state).items()),
        key=lambda cell: len(cell[1]))
    _, primed = run_q12_cell(world, "att", cbg, addresses,
                             engine_config=config)
    monkeypatch.setattr(BqtEngine, "prime", lambda self, addresses: None)
    _, unprimed = run_q12_cell(_fresh_storefronts(world), "att", cbg,
                               addresses, engine_config=config)
    assert primed == unprimed
    retries = sum(r.attempts - 1 for r in primed)
    assert retries >= 20
    assert any(r.replacement_for for r in primed)
