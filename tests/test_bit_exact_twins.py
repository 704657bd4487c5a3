"""Twin tests for the bit-exact hot-path levers.

Each lever replaces a slower computation with one that must give the
same bytes:

* categorical draws from a cached CDF against ``Generator.choice``;
* window-batched session priming against the same drivers with the
  primer's seeding patched out (every stream derived by ``stable_rng``);
* the GC-quiet scope, which must hand the collector back exactly as it
  found it.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading

import numpy as np
import pytest

import repro.bqt.engine
import repro.bqt.websites
from harness.equivalence import canonical_logbook_bytes
from repro.bqt import priming
from repro.bqt.errors import ERROR_MIX_BY_ISP, ErrorCategory, sample_error_category
from repro.bqt.websites import build_website
from repro.core.collection import (
    CollectionCampaign,
    collect_q3_dataset,
    q3_block_candidates,
    run_q3_block,
    run_q12_cell,
    session_primer,
)
from repro.gcquiet import gc_quiet
from repro.isp.profiles import _BAND_SPEEDS, PROFILES
from repro.runtime import RuntimeConfig, execute_campaign
from repro.stats.distributions import stable_rng

# ----------------------------------------------------------------------
# cached-CDF draws against Generator.choice
# ----------------------------------------------------------------------

# Finalization's exclusion (dropdown misses and call-to-order pages
# carry their own categories).
_EXCLUDE = (ErrorCategory.SELECT_DROPDOWN, ErrorCategory.ANALYZING_RESULT)


def _choice(rng, items, weights):
    """The draw as the code made it before the CDF cache."""
    return items[int(rng.choice(len(items), p=weights / weights.sum()))]


def _tier_case(profile):
    labels = list(profile.served_tier_mix)
    weights = np.asarray([profile.served_tier_mix[label] for label in labels])
    return (profile.sample_tier_label,
            lambda rng: _choice(rng, labels, weights), len(labels))


def _band_case(label):
    speeds, weights = zip(*_BAND_SPEEDS[label])
    probabilities = np.asarray(weights) / sum(weights)

    def reference(rng):
        return float(speeds[int(rng.choice(len(speeds), p=probabilities))])

    profile = next(iter(PROFILES.values()))
    return (lambda rng: profile.speed_for_label(label, rng)), reference, \
        len(speeds)


def _error_case(isp_id, exclude):
    mix = ERROR_MIX_BY_ISP[isp_id]
    categories = [c for c in mix if c not in exclude]

    def reference(rng):
        if not categories:
            return ErrorCategory.OTHER
        weights = np.asarray([mix[c] for c in categories], dtype=float)
        return _choice(rng, categories, weights)

    return (lambda rng: sample_error_category(isp_id, rng, exclude=exclude),
            reference, len(categories))


CDF_CASES = {
    **{f"tier:{isp}": _tier_case(profile) for isp, profile in PROFILES.items()},
    **{f"band:{label}": _band_case(label) for label in _BAND_SPEEDS},
    **{f"error:{isp}{':exclude' if exclude else ''}": _error_case(isp, exclude)
       for isp in ERROR_MIX_BY_ISP for exclude in ((), _EXCLUDE)},
}
SEEDS_PER_CASE = 1000


def test_cdf_twins_cover_twenty_thousand_seeds():
    assert len(CDF_CASES) * SEEDS_PER_CASE >= 20_000
    assert len([case for case in CDF_CASES if case.startswith("error:")]) \
        == 2 * len(ERROR_MIX_BY_ISP)


@pytest.mark.parametrize("case", sorted(CDF_CASES))
def test_cdf_draw_equals_generator_choice(case):
    fast, reference, categories = CDF_CASES[case]
    offset = sorted(CDF_CASES).index(case) * SEEDS_PER_CASE
    outcomes = set()
    for seed in range(offset, offset + SEEDS_PER_CASE):
        drawn, expected = np.random.default_rng(seed), np.random.default_rng(seed)
        value = fast(drawn)
        assert value == reference(expected), seed
        assert drawn.bit_generator.state == expected.bit_generator.state, seed
        outcomes.add(value)
    # Draws from a mix of several categories land on more than one.
    assert len(outcomes) > 1 or categories <= 1


# ----------------------------------------------------------------------
# window-batched priming against no priming at all
# ----------------------------------------------------------------------

def _fresh_storefronts(world):
    """``world`` with new storefronts, whose roll memos are empty."""
    return dataclasses.replace(world, websites={
        isp_id: build_website(isp_id, world.ground_truth,
                              seed=world.config.seed)
        for isp_id in world.websites})


def _sequential(world):
    return (CollectionCampaign(world).run(), collect_q3_dataset(world))


def _run_shard(world):
    return execute_campaign(world, RuntimeConfig(shards=3, backend="serial"))


def _run_cells_async(world):
    return execute_campaign(world, RuntimeConfig(shards=3, backend="serial",
                                                 max_inflight=8))


DRIVERS = {"sequential": _sequential, "run_shard": _run_shard,
           "run_cells_async": _run_cells_async}


@pytest.fixture
def scalar_streams(monkeypatch):
    """Counts the session and roll streams BQT derived one by one."""
    counts = {"engine": 0, "site": 0}

    def counting(*parts):
        if parts[1] in counts:
            counts[parts[1]] += 1
        return stable_rng(*parts)

    for module in (repro.bqt.engine, repro.bqt.websites):
        monkeypatch.setattr(module, "stable_rng", counting)
    return counts


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_windowed_priming_equals_no_priming(world, driver, scalar_streams,
                                            monkeypatch):
    run = DRIVERS[driver]
    primed = canonical_logbook_bytes(*run(_fresh_storefronts(world)))
    primed_misses = dict(scalar_streams)

    monkeypatch.setattr(priming._Batch, "seed", lambda batch: None)
    scalar_streams.update(engine=0, site=0)
    unprimed = canonical_logbook_bytes(*run(_fresh_storefronts(world)))
    assert unprimed == primed
    # The patch really turned priming off, and priming really covered
    # the sessions: only reserve draws derive their streams one by one.
    assert primed_misses["engine"] < scalar_streams["engine"] / 10
    # Interleaved cells of one storefront outlive its window's rolls, so
    # the event loop recomputes more of them than the blocking drivers.
    share = 2 if driver == "run_cells_async" else 10
    assert primed_misses["site"] < scalar_streams["site"] / share


def test_cells_taken_out_of_order_keep_their_records(world):
    cbgs = sorted(world.caf_addresses_by_cbg("att", "MS").items())[:12]
    cells = [("att", cbg, addresses) for cbg, addresses in cbgs]
    blocks = q3_block_candidates(world)[:12]
    in_order = ([run_q12_cell(world, *cell)[1] for cell in cells],
                [run_q3_block(world, block) for block in blocks])

    primer = session_primer(world, cells, blocks)
    # Backwards: the first request walks every window, the rest find
    # their cells passed and prime them alone.
    q3 = [run_q3_block(world, block, primer=primer)
          for block in reversed(blocks)][::-1]
    q12 = [run_q12_cell(world, *cell, primer=primer)[1]
           for cell in reversed(cells)][::-1]
    assert (q12, q3) == in_order


# ----------------------------------------------------------------------
# the GC-quiet scope
# ----------------------------------------------------------------------

@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


def test_gc_quiet_nests(collector_on):
    with gc_quiet():
        assert not gc.isenabled()
        with gc_quiet():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_gc_quiet_restores_after_an_exception(collector_on):
    with pytest.raises(RuntimeError):
        with gc_quiet():
            raise RuntimeError("inside")
    assert gc.isenabled()


def test_gc_quiet_keeps_a_disabled_collector_off(collector_on):
    gc.disable()
    with gc_quiet():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_gc_quiet_overlapping_threads(collector_on):
    entered, release = threading.Event(), threading.Event()

    def worker():
        with gc_quiet():
            entered.set()
            release.wait(10)

    thread = threading.Thread(target=worker)
    thread.start()
    assert entered.wait(10)
    with gc_quiet():
        release.set()
        thread.join(10)
        assert not thread.is_alive()
        # The other thread's scope closed first; this one is still open.
        assert not gc.isenabled()
    assert gc.isenabled()


def test_gc_quiet_under_thread_churn(collector_on):
    # More threads than cores, switching as often as the interpreter
    # allows: a lost depth update would leave the collector off, or
    # turn it on inside an open scope.
    seen_on = []

    def worker():
        for _ in range(300):
            with gc_quiet():
                seen_on.append(gc.isenabled())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen_on) == 8 * 300 and not any(seen_on)
    assert gc.isenabled()


def test_gc_quiet_collects_when_the_heap_grew_by_a_quarter(collector_on):
    full = []

    def watch(phase, info):
        if phase == "start" and info["generation"] == 2:
            full.append(info)

    gc.callbacks.append(watch)
    try:
        with gc_quiet():
            small = [[index] for index in range(100)]
        # A small growth is left to the young generations.
        assert not full
        with gc_quiet():
            # Two blocks a row (the list and its int): about half the heap.
            grown = [[index] for index in range(sys.getallocatedblocks() // 4)]
        assert len(full) == 1
    finally:
        gc.callbacks.remove(watch)
    assert small and grown and gc.isenabled()


def test_gc_quiet_decorates(collector_on):
    @gc_quiet()
    def body():
        return gc.isenabled()

    assert body() is False
    assert body() is False
    assert gc.isenabled()
