"""Synthetic state geography generator.

Builds a :class:`~repro.geo.entities.StateGeography` from a state's
static facts (:mod:`repro.geo.fips`) and a :class:`GeographyConfig`.
The construction is deterministic given a seed:

1. Place ``num_cities`` urban kernels inside the state bounding box
   (biased away from the edges), with Zipf-distributed peak densities —
   one dominant metro, smaller secondary cities.
2. Scatter counties; each county seeds tracts near its seat; each tract
   seeds block groups near the tract center; blocks jitter around the
   block-group centroid. The spatial nesting keeps neighbors in the
   same block group genuinely close, which Q3's within-block comparison
   relies on.
3. Sample each block group's density from the surface, classify
   rural/urban, and size its population uniformly in the 600–3000 range
   the census targets (Section 3.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.density import DensitySurface, URBAN_DENSITY_THRESHOLD
from repro.geo.entities import BlockGroup, CensusBlock, County, StateGeography, Tract
from repro.geo.fips import StateInfo
from repro.geo.geoid import block_geoid, block_group_geoid, county_geoid, tract_geoid
from repro.geo.geometry import Point
from repro.stats.distributions import bounded_zipf_shares, stable_rng

__all__ = ["GeographyConfig", "generate_state_geography"]


@dataclass(frozen=True)
class GeographyConfig:
    """Knobs controlling the size and texture of a synthetic state."""

    num_counties: int = 8
    tracts_per_county: int = 4
    block_groups_per_tract: int = 3
    blocks_per_block_group: int = 8
    num_cities: int = 3
    peak_density: float = 12_000.0
    decay_scale_miles: float = 18.0
    rural_floor_density: float = 3.0
    min_block_group_population: int = 600
    max_block_group_population: int = 3000

    def __post_init__(self) -> None:
        for name in ("num_counties", "tracts_per_county",
                     "block_groups_per_tract", "blocks_per_block_group",
                     "num_cities"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.min_block_group_population > self.max_block_group_population:
            raise ValueError("population bounds inverted")

    def scaled(self, factor: float) -> "GeographyConfig":
        """Return a config with county count scaled by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return GeographyConfig(
            num_counties=max(1, round(self.num_counties * factor)),
            tracts_per_county=self.tracts_per_county,
            block_groups_per_tract=self.block_groups_per_tract,
            blocks_per_block_group=self.blocks_per_block_group,
            num_cities=self.num_cities,
            peak_density=self.peak_density,
            decay_scale_miles=self.decay_scale_miles,
            rural_floor_density=self.rural_floor_density,
            min_block_group_population=self.min_block_group_population,
            max_block_group_population=self.max_block_group_population,
        )


def _jittered_point(
    rng: np.random.Generator, state: StateInfo, anchor: Point, spread_degrees: float
) -> Point:
    """Sample a point near ``anchor`` clipped into the state box."""
    bounds = state.bounds
    lon = min(max(anchor.longitude + rng.normal(0, spread_degrees),
                  bounds.west), bounds.east)
    lat = min(max(anchor.latitude + rng.normal(0, spread_degrees),
                  bounds.south), bounds.north)
    return Point(lon, lat)


def _place_cities(
    rng: np.random.Generator, state: StateInfo, config: GeographyConfig
) -> tuple[tuple[Point, ...], tuple[float, ...]]:
    centers = []
    for _ in range(config.num_cities):
        fx, fy = rng.uniform(0.15, 0.85, size=2)
        centers.append(state.bounds.interpolate(float(fx), float(fy)))
    shares = bounded_zipf_shares(config.num_cities, exponent=1.0)
    peaks = tuple(float(config.peak_density * share / shares[0]) for share in shares)
    return tuple(centers), peaks


def generate_state_geography(
    state: StateInfo, config: GeographyConfig | None = None, seed: int = 0
) -> StateGeography:
    """Generate a deterministic synthetic geography for ``state``."""
    config = config or GeographyConfig()
    rng = stable_rng(seed, "geo", state.fips)
    city_centers, city_peaks = _place_cities(rng, state, config)
    surface = DensitySurface(
        city_centers=city_centers,
        city_peaks=city_peaks,
        decay_scale_miles=config.decay_scale_miles,
        rural_floor=config.rural_floor_density,
    )

    county_spread = min(state.bounds.width_degrees, state.bounds.height_degrees) / 10
    counties = []
    for county_number in range(1, config.num_counties + 1):
        fx, fy = rng.uniform(0.05, 0.95, size=2)
        seat = state.bounds.interpolate(float(fx), float(fy))
        cgeoid = county_geoid(state.fips, county_number)
        tracts = []
        for tract_number in range(1, config.tracts_per_county + 1):
            tract_center = _jittered_point(rng, state, seat, county_spread)
            tgeoid = tract_geoid(cgeoid, tract_number * 100)
            block_groups = []
            for bg_digit in range(1, config.block_groups_per_tract + 1):
                centroid = _jittered_point(rng, state, tract_center, county_spread / 4)
                bg_geoid = block_group_geoid(tgeoid, bg_digit)
                density = surface.density_at(centroid)
                is_rural = density < URBAN_DENSITY_THRESHOLD
                blocks = tuple(
                    CensusBlock(
                        geoid=block_geoid(bg_geoid, block_number),
                        centroid=_jittered_point(
                            rng, state, centroid, county_spread / 20
                        ),
                        is_rural=is_rural,
                    )
                    for block_number in range(1, config.blocks_per_block_group + 1)
                )
                # Income loosely tracks density (urban cores richer on
                # average) with wide idiosyncratic spread, so income and
                # density are correlated but distinguishable — the
                # structure the equity analysis needs.
                income = min(max(
                    30_000.0
                    + 9_000.0 * float(np.log10(max(density, 1.0)))
                    + rng.normal(0.0, 12_000.0),
                    18_000.0), 180_000.0)
                block_groups.append(
                    BlockGroup(
                        geoid=bg_geoid,
                        centroid=centroid,
                        population=int(rng.integers(
                            config.min_block_group_population,
                            config.max_block_group_population + 1,
                        )),
                        population_density=density,
                        is_rural=is_rural,
                        distance_to_city_miles=surface.distance_to_nearest_city(centroid),
                        blocks=blocks,
                        median_income_usd=income,
                    )
                )
            tracts.append(Tract(geoid=tgeoid, block_groups=tuple(block_groups)))
        counties.append(
            County(
                geoid=cgeoid,
                name=f"{state.name} County {county_number}",
                seat=seat,
                tracts=tuple(tracts),
            )
        )
    return StateGeography(
        state_fips=state.fips,
        abbreviation=state.abbreviation,
        counties=tuple(counties),
        city_centers=city_centers,
    )
