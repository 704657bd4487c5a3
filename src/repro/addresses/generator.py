"""Synthesis of street addresses inside census blocks.

Addresses are generated per block with plausible US naming (numbered
house on a named road), jittered coordinates near the block centroid,
and a ZIP derived from the county. Generation is deterministic per
``(seed, block_geoid)`` so re-building a world yields identical
addresses regardless of iteration order.
"""

from __future__ import annotations

import numpy as np

from repro.addresses.models import StreetAddress
from repro.geo.entities import CensusBlock
from repro.geo.fips import StateInfo, state_by_fips
from repro.geo.geometry import Point
from repro.stats.distributions import stable_rng

__all__ = ["AddressGenerator", "STREET_STEMS", "STREET_SUFFIXES"]

STREET_STEMS = (
    "Oak", "Maple", "Cedar", "Pine", "Walnut", "Elm", "Hickory", "Willow",
    "Dogwood", "Magnolia", "Sycamore", "Chestnut", "Juniper", "Laurel",
    "Meadow", "Prairie", "Ridge", "Valley", "Creek", "River", "Lake",
    "Spring", "Orchard", "Mill", "Church", "School", "Depot", "Quarry",
    "County Line", "Old Post", "Stage Coach", "Turkey Hollow", "Fox Run",
    "Deer Trail", "Clover", "Hawthorn", "Birch", "Aspen", "Poplar", "Sumac",
)

STREET_SUFFIXES = ("Rd", "Ln", "Dr", "St", "Ave", "Ct", "Way", "Trl", "Hwy", "Pl")


class AddressGenerator:
    """Deterministic per-block address factory."""

    def __init__(self, seed: int = 0):
        self._seed = seed

    def street_name(self, rng: np.random.Generator) -> str:
        """Draw a street name like ``"Cedar Ridge Rd"``."""
        stem = STREET_STEMS[int(rng.integers(len(STREET_STEMS)))]
        suffix = STREET_SUFFIXES[int(rng.integers(len(STREET_SUFFIXES)))]
        return f"{stem} {suffix}"

    def _zip_for_block(self, block: CensusBlock, rng: np.random.Generator) -> str:
        # Derive a stable pseudo-ZIP from the county portion of the GEOID
        # so all blocks in a county share a small set of ZIPs.
        county_part = int(block.geoid[2:5])
        base = 10000 + (county_part * 37) % 89000
        return f"{base + int(rng.integers(0, 8)):05d}"

    def _city_for_block(self, block: CensusBlock, state: StateInfo) -> str:
        county_part = int(block.geoid[2:5])
        kind = "City" if not block.is_rural else "Township"
        return f"{state.name.split()[0]} {kind} {county_part}"

    def generate_for_block(
        self, block: CensusBlock, count: int, is_caf: bool, namespace: str
    ) -> list[StreetAddress]:
        """Generate ``count`` addresses inside ``block``.

        ``namespace`` separates CAF and non-CAF address populations in
        the same block (the world builder generates both): address ids
        and street layouts differ across namespaces but are stable
        within one.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = stable_rng(self._seed, "addr", namespace, block.geoid)
        num_streets = max(1, count // 12)
        streets = [self.street_name(rng) for _ in range(num_streets)]
        zip_code = self._zip_for_block(block, rng)
        # Per block, not per address: the state, city and centroid.
        state = state_by_fips(block.state_fips)
        city = self._city_for_block(block, state)
        geoid = block.geoid
        longitude, latitude = block.centroid.longitude, block.centroid.latitude
        addresses = []
        for index in range(count):
            street = streets[int(rng.integers(num_streets))]
            house_number = int(rng.integers(1, 9900))
            lon = longitude + float(rng.normal(0, 0.002))
            lat = latitude + float(rng.normal(0, 0.002))
            lon = min(max(lon, -180.0), 180.0)
            lat = min(max(lat, -90.0), 90.0)
            addresses.append(
                StreetAddress(
                    address_id=f"{namespace}-{geoid}-{index:05d}",
                    house_number=house_number,
                    street_name=street,
                    city=city,
                    state_abbreviation=state.abbreviation,
                    zip_code=zip_code,
                    block_geoid=geoid,
                    location=Point(lon, lat),
                    is_caf=is_caf,
                )
            )
        return addresses
