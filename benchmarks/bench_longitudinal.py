"""Longitudinal — incremental vs from-scratch waves, analysis, storage.

The panel's pitch is that a re-audit costs O(churn), not O(world), and
since the analysis/CAS work that now holds *downstream* of collection
too. Three measurements, three acceptance bars, all at 10% cell churn:

* **collection** — each wave's incremental cost (digesting the cells
  churn touched, with every other cell's digest carried forward from
  the prior wave, + querying the changed ones) against a from-scratch
  re-collection of the same evolved world: >= 3x. The replay merge
  runs on demand, on the first read of the wave's logbook, so it is
  not in the incremental figure. Each wave also records its
  ``digest_seconds`` and the share of digests carried forward
  (``digest_reuse_fraction``), which CI holds at >= 0.9 on every wave
  of the 5-wave panel.
* **analysis** — each wave's digest-keyed row fold
  (:func:`repro.analysis.incremental.wave_analysis`, rows cached
  across waves) against the full recompute that rebuilds an
  ``AuditDataset`` from the entire merged logbook, over a
  :data:`PANEL_HORIZONS`-wave panel: >= 3x aggregate.
* **storage** — the format-3 panel store (one cell pack per wave +
  thin manifests) against the format-1 layout that serialized every
  cell into every wave document: >= 2x fewer bytes on disk. The panel
  keeps its analysis rows on disk next to the store, and
  ``files_created`` counts the files each wave adds under that root
  (cell pack, row pack, manifest), which CI holds at <= 3 per wave.

Results are written machine-readable to
``benchmarks/BENCH_longitudinal.json`` so bench trajectories can be
tracked across commits (the longitudinal CI job asserts the analysis
bar straight from the artifact). Run at study scale with
``REPRO_SCALE=small`` or ``paper``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis.incremental import (
    full_wave_analysis,
    row_cache_for,
    wave_analysis,
)
from repro.core.collection import CollectionCampaign, collect_q3_dataset
from repro.longitudinal import PanelCampaign
from repro.runtime.checkpoint import _shard_to_json
from repro.synth.churn import ChurnModel, churned_world

CELL_RATES = (0.05, 0.10, 0.30)
HORIZONS = (1, 2)
# The >= 5-wave panel the analysis/storage acceptance bars run on.
PANEL_HORIZONS = (1, 2, 3, 4, 5)
ACCEPTANCE_CELL_RATE = 0.10
OUTPUT_PATH = Path(__file__).with_name("BENCH_longitudinal.json")

# The speedups/shrink the ISSUE's acceptance criteria demand at 10%
# churn.
REQUIRED_SPEEDUP_AT_10PCT = 3.0
REQUIRED_ANALYSIS_SPEEDUP = 3.0
REQUIRED_STORE_SHRINK = 2.0


def _scratch_seconds(world, model, horizon) -> float:
    """Wall time of a from-scratch re-collection at one horizon.

    The evolved world is built *outside* the timed region on both
    sides of the comparison: in a real panel the world is reality —
    only collection work is on the meter.
    """
    evolved = churned_world(world, years=horizon, model=model)
    start = time.perf_counter()
    CollectionCampaign(evolved).run()
    collect_q3_dataset(evolved)
    return time.perf_counter() - start


def _run_rate(world, cell_rate: float) -> dict:
    model = ChurnModel(cell_rate=cell_rate)
    campaign = PanelCampaign(world, model=model, horizons=HORIZONS)
    waves = []
    for outcome in campaign.waves():
        if outcome.wave == 0:
            continue  # the snapshot is full-cost by definition
        incremental = outcome.digest_seconds + outcome.collect_seconds
        scratch = _scratch_seconds(world, model, outcome.horizon_years)
        waves.append({
            "wave": outcome.wave,
            "horizon_years": outcome.horizon_years,
            "requeried_cells": outcome.fresh_q12 + outcome.fresh_q3,
            "total_cells": (outcome.delta.total_q12
                            + outcome.delta.total_q3),
            "reuse_fraction": round(outcome.reuse_fraction, 4),
            **_digest_fields(outcome),
            "incremental_seconds": round(incremental, 4),
            "scratch_seconds": round(scratch, 4),
            "speedup": round(scratch / incremental, 2)
            if incremental > 0 else None,
        })
    return {"cell_rate": cell_rate, "waves": waves}


def _digest_fields(outcome) -> dict:
    """One wave's digest cost, and the share of its digests carried
    forward from the prior wave instead of encoded."""
    digests = outcome.digests
    return {
        "digest_seconds": round(outcome.digest_seconds, 5),
        "digest_reuse_fraction": round(
            digests.reused / digests.total_cells, 4)
        if digests.total_cells else None,
    }


def _v1_wave_bytes(outcome) -> int:
    """The bytes the format-1 store wrote for one wave: a single
    document embedding every cell's records (as the pre-CAS layout's
    double-encoded string payload)."""
    cell_payload = json.dumps(_shard_to_json(outcome.cells),
                              sort_keys=True, separators=(",", ":"))
    import hashlib

    document = {
        "format": 1,
        "fingerprint": "0" * 64,
        "wave": outcome.wave,
        "horizon_years": outcome.horizon_years,
        "counts": {"fresh_q12": outcome.fresh_q12,
                   "replayed_q12": outcome.replayed_q12,
                   "fresh_q3": outcome.fresh_q3,
                   "replayed_q3": outcome.replayed_q3},
        "cells_sha256": hashlib.sha256(
            cell_payload.encode("utf-8")).hexdigest(),
        "cells": cell_payload,
    }
    return len(json.dumps(document, sort_keys=True).encode("utf-8"))


def _run_panel_acceptance(world, tmp_path: Path) -> dict:
    """The 5-wave acceptance panel: per-wave analysis speedup and
    on-disk store shrink at 10% churn."""
    model = ChurnModel(cell_rate=ACCEPTANCE_CELL_RATE)
    root = tmp_path / "panel-store"
    campaign = PanelCampaign(world, model=model, horizons=PANEL_HORIZONS,
                             store_dir=str(root))
    rows = row_cache_for(campaign, directory=root)
    waves = []
    files: set[Path] = set()
    files_created = []
    v1_bytes = 0
    incremental_total = full_total = 0.0
    for outcome in campaign.waves():
        start = time.perf_counter()
        wave_analysis(outcome, cache=rows)
        incremental_seconds = time.perf_counter() - start
        listing = {path for path in root.rglob("*") if path.is_file()}
        files_created.append(len(listing - files))
        files = listing
        start = time.perf_counter()
        full_wave_analysis(outcome)
        full_seconds = time.perf_counter() - start
        v1_bytes += _v1_wave_bytes(outcome)
        if outcome.wave == 0:
            continue  # the snapshot's analysis is full-cost either way
        incremental_total += incremental_seconds
        full_total += full_seconds
        waves.append({
            "wave": outcome.wave,
            "requeried_cells": outcome.fresh_q12 + outcome.fresh_q3,
            **_digest_fields(outcome),
            "incremental_analysis_seconds": round(incremental_seconds, 5),
            "full_analysis_seconds": round(full_seconds, 5),
            "speedup": round(full_seconds / incremental_seconds, 2)
            if incremental_seconds > 0 else None,
        })
    cas_bytes = campaign.store.total_bytes()
    return {
        "cell_rate": ACCEPTANCE_CELL_RATE,
        "horizons": list(PANEL_HORIZONS),
        "analysis": {
            "waves": waves,
            "incremental_seconds_total": round(incremental_total, 5),
            "full_seconds_total": round(full_total, 5),
            "speedup_at_10pct": round(full_total / incremental_total, 2)
            if incremental_total > 0 else None,
            "row_cache_hits": rows.hits,
            "row_cache_misses": rows.misses,
        },
        "store": {
            "cas_bytes": cas_bytes,
            "v1_bytes": v1_bytes,
            "shrink_at_10pct": round(v1_bytes / cas_bytes, 2)
            if cas_bytes else None,
            "files_created": files_created,
        },
    }


def test_incremental_vs_scratch_waves(benchmark, context, tmp_path):
    world = context.world

    # The benchmarked op: one full incremental panel at the acceptance
    # churn rate (snapshot + 2 delta waves).
    benchmark.pedantic(
        lambda: PanelCampaign(world, model=ChurnModel(cell_rate=0.10),
                              horizons=HORIZONS).run(),
        iterations=1, rounds=1)

    acceptance = _run_panel_acceptance(world, tmp_path)
    results = {
        "benchmark": "longitudinal",
        "scale": {
            "seed": world.config.seed,
            "address_scale": world.config.address_scale,
        },
        "horizons": list(HORIZONS),
        "cell_rates": [_run_rate(world, rate) for rate in CELL_RATES],
        "panel_5wave_10pct": acceptance,
    }
    OUTPUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")

    print()
    print(f"wrote {OUTPUT_PATH}")
    for entry in results["cell_rates"]:
        for wave in entry["waves"]:
            print(f"  cell_rate={entry['cell_rate']:.2f} "
                  f"wave={wave['wave']}: re-queried "
                  f"{wave['requeried_cells']}/{wave['total_cells']} cells, "
                  f"incremental {wave['incremental_seconds']:.2f}s vs "
                  f"scratch {wave['scratch_seconds']:.2f}s "
                  f"(x{wave['speedup']})")
    analysis = acceptance["analysis"]
    store = acceptance["store"]
    print(f"  5-wave analysis: incremental "
          f"{analysis['incremental_seconds_total']:.3f}s vs full "
          f"{analysis['full_seconds_total']:.3f}s "
          f"(x{analysis['speedup_at_10pct']})")
    print(f"  5-wave store: CAS {store['cas_bytes']} bytes vs v1 "
          f"{store['v1_bytes']} bytes (x{store['shrink_at_10pct']}), "
          f"files per wave {store['files_created']}")

    # The acceptance bars. Collection: >= 3x at 10% churn (averaged
    # over the incremental waves, so one unlucky wave cannot flake the
    # bench).
    ten_pct = next(e for e in results["cell_rates"]
                   if e["cell_rate"] == 0.10)
    speedups = [w["speedup"] for w in ten_pct["waves"]
                if w["speedup"] is not None]
    assert speedups, "no incremental wave completed"
    mean_speedup = sum(speedups) / len(speedups)
    assert mean_speedup >= REQUIRED_SPEEDUP_AT_10PCT, (
        f"incremental waves at 10% churn averaged x{mean_speedup:.2f}, "
        f"below the x{REQUIRED_SPEEDUP_AT_10PCT} acceptance bar")
    # Analysis: >= 3x aggregate over the 5-wave panel's follow-ups.
    assert analysis["speedup_at_10pct"] >= REQUIRED_ANALYSIS_SPEEDUP, (
        f"incremental analysis at 10% churn ran x"
        f"{analysis['speedup_at_10pct']}, below the x"
        f"{REQUIRED_ANALYSIS_SPEEDUP} acceptance bar")
    # Storage: the CAS must shrink the panel >= 2x vs one-doc-per-wave.
    assert store["shrink_at_10pct"] >= REQUIRED_STORE_SHRINK, (
        f"panel CAS stored the 5-wave panel at only x"
        f"{store['shrink_at_10pct']} below the format-1 layout; the "
        f"bar is x{REQUIRED_STORE_SHRINK}")
