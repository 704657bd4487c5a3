"""Ground-truth service assignment.

:class:`GroundTruth` stores, for each (ISP, address) pair, whether the
ISP actually serves the address and which plans its website would show
there. The world builder populates it in two passes:

1. :func:`build_ground_truth` covers Q1/Q2 — each CAF-certified address
   is resolved against the certifying ISP's profile (serviceability by
   density, then a tier draw conditional on being served).
2. The Q3 world builder (:mod:`repro.synth.world`) overwrites truths in
   the Q3 study blocks with block-coherent speeds so within-block
   comparisons have the paper's outcome structure.

The BQT website simulators consult this object — never the profiles
directly — so the querying layer and the generative layer stay
decoupled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.addresses.models import StreetAddress
from repro.geo.entities import BlockGroup
from repro.isp.plans import BroadbandPlan, UNSERVED_LABEL
from repro.isp.profiles import IspProfile
from repro.stats.distributions import stable_rng, stable_rngs

__all__ = ["ServiceTruth", "GroundTruth", "build_ground_truth"]

UNSERVED_TRUTH_LABEL = UNSERVED_LABEL


@dataclass(frozen=True)
class ServiceTruth:
    """The true service state of one (ISP, address) pair."""

    serves: bool
    plans: tuple[BroadbandPlan, ...] = ()
    existing_subscriber: bool = False
    tier_label: str = UNSERVED_TRUTH_LABEL

    def __post_init__(self) -> None:
        if not self.serves and self.plans:
            raise ValueError("an unserved address cannot have plans")
        if not self.serves and self.existing_subscriber:
            raise ValueError("an unserved address cannot have a subscriber")

    @property
    def max_download_mbps(self) -> float:
        """Highest guaranteed advertised download speed (0 if none)."""
        guaranteed = [p.download_mbps for p in self.plans if p.is_speed_guaranteed]
        return max(guaranteed, default=0.0)

    @property
    def best_plan(self) -> BroadbandPlan | None:
        """The advertised plan with the highest download speed."""
        if not self.plans:
            return None
        return max(self.plans, key=lambda plan: plan.download_mbps)


UNSERVED = ServiceTruth(serves=False)


class GroundTruth:
    """Mutable map of (isp_id, address_id) → :class:`ServiceTruth`."""

    def __init__(self) -> None:
        self._truths: dict[tuple[str, str], ServiceTruth] = {}

    def __len__(self) -> int:
        return len(self._truths)

    def set_truth(self, isp_id: str, address_id: str, truth: ServiceTruth) -> None:
        """Record the truth for one pair (overwrites silently — the Q3
        builder intentionally refines Q1 assignments)."""
        self._truths[(isp_id, address_id)] = truth

    def truth_for(self, isp_id: str, address_id: str) -> ServiceTruth:
        """Return the recorded truth, or the unserved default."""
        return self._truths.get((isp_id, address_id), UNSERVED)

    def truths_for(
        self, keys: Iterable[tuple[str, str]]
    ) -> tuple[ServiceTruth, ...]:
        """:meth:`truth_for` over ``(isp_id, address_id)`` keys, in order."""
        return tuple(map(self._truths.get, keys, repeat(UNSERVED)))

    def copy(self) -> "GroundTruth":
        """A new map holding the same pairs, in the same order, bound to
        the same (frozen) truth objects."""
        copied = GroundTruth()
        copied._truths = dict(self._truths)
        return copied

    def serves(self, isp_id: str, address_id: str) -> bool:
        """True when the ISP genuinely serves the address."""
        return self.truth_for(isp_id, address_id).serves

    def pairs(self) -> Iterable[tuple[str, str]]:
        """All recorded (isp_id, address_id) pairs."""
        return self._truths.keys()


def _truth_key(seed: int, isp_id: str, address: StreetAddress) -> tuple:
    """The :func:`stable_rng` key of one address's truth stream."""
    return (seed, "truth", isp_id, address.address_id)


def truth_rngs(
    seed: int, isp_id: str, addresses: Iterable[StreetAddress]
) -> Iterator[np.random.Generator]:
    """The truth streams of one ISP's addresses, seeded in batches."""
    return stable_rngs(_truth_key(seed, isp_id, address) for address in addresses)


def sample_service_truth(
    profile: IspProfile,
    address: StreetAddress,
    block_group: BlockGroup,
    seed: int,
    rng: np.random.Generator | None = None,
) -> ServiceTruth:
    """Draw one address's truth from an ISP profile.

    Deterministic per (seed, isp, address): re-running the world builder
    yields the same truth regardless of call order. ``rng``, when given,
    must be that key's stream (:func:`truth_rngs` batches them).
    """
    if rng is None:
        rng = stable_rng(*_truth_key(seed, profile.isp_id, address))
    probability = profile.serviceability_probability(
        address.state_abbreviation, block_group.population_density
    )
    if rng.random() >= probability:
        return UNSERVED
    label = profile.sample_tier_label(rng)
    top_plan = profile.make_plan(label, rng)
    if top_plan is None:
        # "Unknown Plan": an active subscriber exists but the site
        # displays no tiers (Frontier, Section 4.2).
        return ServiceTruth(
            serves=True, plans=(), existing_subscriber=True, tier_label=label
        )
    plans = tuple(profile.lower_tier_plans(top_plan, rng)) + (top_plan,)
    existing = bool(rng.random() < 0.08)
    return ServiceTruth(
        serves=True,
        plans=plans,
        existing_subscriber=existing,
        tier_label=top_plan.tier_label,
    )


def build_ground_truth(
    certified: Mapping[str, list[StreetAddress]],
    block_groups: Mapping[str, BlockGroup],
    profiles: Mapping[str, IspProfile],
    seed: int = 0,
) -> GroundTruth:
    """Populate a :class:`GroundTruth` for certified CAF addresses.

    ``certified`` maps isp_id → the addresses that ISP certified to
    USAC; ``block_groups`` indexes CBG GEOID → entity for density
    lookups.
    """
    truth = GroundTruth()
    for isp_id, addresses in certified.items():
        profile = profiles[isp_id]
        for address, rng in zip(addresses, truth_rngs(seed, isp_id, addresses)):
            block_group = block_groups.get(address.block_group_geoid)
            if block_group is None:
                raise KeyError(
                    f"address {address.address_id} references unknown CBG "
                    f"{address.block_group_geoid}"
                )
            truth.set_truth(
                isp_id,
                address.address_id,
                sample_service_truth(profile, address, block_group, seed, rng),
            )
    return truth
