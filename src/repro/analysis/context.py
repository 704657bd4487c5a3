"""Shared, lazily-built inputs for the experiment registry.

Building a world and running the audit dominates experiment cost, so
the context memoizes them: running all ~20 experiments costs one world
build + one audit + one national-dataset generation.

The scale knob reads ``REPRO_SCALE`` from the environment ("tiny",
"small", "paper") so the same benchmarks run fast in CI and at study
scale on demand. Setting ``REPRO_CACHE_DIR`` (or passing
``cache_dir``) additionally persists the audit in a content-addressed
cache (:mod:`repro.runtime.cache`), so *separate* script invocations
at the same scale — e.g. the 20+ benchmark scripts — share one audit
instead of each rebuilding it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.pipeline import AuditReport, run_full_audit
from repro.core.sensitivity import SensitivityResult, run_sensitivity_analysis
from repro.synth.scenario import ScenarioConfig
from repro.synth.world import World, build_world
from repro.usac.generator import (
    NationalDataset,
    NationalDatasetConfig,
    generate_national_dataset,
)

__all__ = ["ExperimentContext", "scale_from_environment"]

_SCALES = {
    "tiny": (ScenarioConfig.tiny(), NationalDatasetConfig(scale=0.002)),
    "small": (ScenarioConfig(address_scale=0.01),
              NationalDatasetConfig(scale=0.005)),
    "paper": (ScenarioConfig(address_scale=0.05),
              NationalDatasetConfig(scale=0.02)),
}


def scale_from_environment(default: str = "tiny") -> str:
    """Resolve the experiment scale from ``REPRO_SCALE``."""
    scale = os.environ.get("REPRO_SCALE", default).lower()
    if scale not in _SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(_SCALES)}, got {scale!r}")
    return scale


@dataclass
class ExperimentContext:
    """Memoized study inputs at one scale."""

    scenario: ScenarioConfig
    national_config: NationalDatasetConfig
    cache_dir: str | None = None
    _world: World | None = None
    _report: AuditReport | None = None
    _national: NationalDataset | None = None
    _sensitivity: SensitivityResult | None = None

    @classmethod
    def at_scale(
        cls, scale: str | None = None, cache_dir: str | None = None
    ) -> "ExperimentContext":
        """Build a context at a named scale (or the environment's).

        ``cache_dir`` defaults to ``REPRO_CACHE_DIR`` when set.
        """
        from repro.runtime.cache import cache_dir_from_environment

        scenario, national = _SCALES[scale or scale_from_environment()]
        return cls(scenario=scenario, national_config=national,
                   cache_dir=cache_dir or cache_dir_from_environment())

    @property
    def world(self) -> World:
        """The synthetic study universe (built on first use)."""
        if self._world is None:
            self._world = build_world(self.scenario)
        return self._world

    @property
    def report(self) -> AuditReport:
        """The full audit report (run, or served from the cache, on
        first use)."""
        if self._report is None:
            from repro.runtime.executor import RuntimeConfig

            self._report = run_full_audit(
                world=self._world, scenario=self.scenario,
                parallel=RuntimeConfig(cache_dir=self.cache_dir))
            # Analyses compare report and world objects, which must be
            # one coherent universe.
            self._world = self._report.world
        return self._report

    @property
    def national(self) -> NationalDataset:
        """The national CAF Map (generated on first use)."""
        if self._national is None:
            self._national = generate_national_dataset(self.national_config)
        return self._national

    @property
    def sensitivity(self) -> SensitivityResult:
        """The Appendix 8.2 sensitivity run (computed on first use)."""
        if self._sensitivity is None:
            self._sensitivity = run_sensitivity_analysis(
                self.world,
                num_cbgs=min(46, 12 if self.scenario.address_scale < 0.01 else 46),
            )
        return self._sensitivity
