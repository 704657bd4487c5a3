"""Pinned stream digests: the bytes a change to the RNG plumbing must keep.

A bit-exact optimization (batched seeding, cached CDFs, a quieter GC)
promises the same records, truth and headline as before. This module
reduces one audit to three digests and compares them with the values
pinned in ``golden_streams.json``:

* ``logbook_sha256`` — sha256 of :func:`canonical_logbook_bytes`;
* ``truth_sha256`` — sha256 of the ``repr`` of every ground-truth pair;
* ``headline`` — :meth:`AuditReport.headline`, exact floats.

The pinned values depend on numpy's Generator streams, so the file
names the numpy version they were recorded under. Run it without
pytest (numpy alone suffices) to check the tiny audit::

    PYTHONPATH=src:tests python -m harness.golden tiny
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from harness.equivalence import canonical_logbook_bytes
from repro.core.pipeline import run_full_audit
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import build_world

__all__ = ["GOLDEN_PATH", "golden_worlds", "stream_digests", "mismatch"]

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden_streams.json"


def golden_worlds() -> dict:
    """The pinned file: ``{"numpy": version, "worlds": {name: entry}}``."""
    return json.loads(GOLDEN_PATH.read_text())


def scenario_for(entry: dict) -> ScenarioConfig:
    """The scenario one pinned entry was recorded on."""
    if entry.get("tiny"):
        return ScenarioConfig.tiny(seed=entry["seed"])
    return ScenarioConfig(seed=entry["seed"],
                          address_scale=entry["address_scale"])


def stream_digests(scenario: ScenarioConfig) -> dict:
    """The three digests of one in-process audit of ``scenario``."""
    world = build_world(scenario)
    report = run_full_audit(world=world)
    truth = repr([(pair, world.ground_truth.truth_for(*pair))
                  for pair in world.ground_truth.pairs()])
    logbook = canonical_logbook_bytes(report.collection,
                                      report.q3_collection)
    return {
        "logbook_sha256": hashlib.sha256(logbook).hexdigest(),
        "truth_sha256": hashlib.sha256(truth.encode("utf-8")).hexdigest(),
        "headline": report.headline(),
    }


def mismatch(name: str) -> str | None:
    """``None`` when world ``name`` still yields its pinned digests,
    else a message naming what moved and the numpy version pinned."""
    golden = golden_worlds()
    entry = golden["worlds"][name]
    got = stream_digests(scenario_for(entry))
    moved = [key for key in got if got[key] != entry[key]]
    if not moved:
        return None
    import numpy

    return (f"world {name!r}: {', '.join(moved)} differ from the values "
            f"pinned under numpy {golden['numpy']} (running numpy "
            f"{numpy.__version__}); a numpy release that changes the "
            "Generator streams moves every record")


def main(argv: list[str]) -> int:
    names = argv or sorted(golden_worlds()["worlds"])
    failed = False
    for name in names:
        message = mismatch(name)
        print(message or f"world {name!r}: digests match")
        failed |= message is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
