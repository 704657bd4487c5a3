"""Per-cell world digests: what a wave must re-query, cell by cell.

A campaign cell's record stream is deterministic in three inputs: the
world seed, the cell's addresses (static across waves — churn shares
geography and certification), and the ground truth at those addresses
(what the storefront will show). The first two never change between
panel waves, so hashing the third *per cell* yields a content address
with the property the delta planner needs:

    digest(wave k, cell) == digest(wave k-1, cell)
        ⟹  the cell's records at wave k are byte-identical to wave k-1

and the prior wave's logbook can be replayed instead of re-queried.
The digests deliberately cover the *whole* cell's truth — selected,
reserve, and unsampled addresses alike — because replacement draws can
reach any reserve address; over-approximating "changed" costs a
redundant re-query, never a stale replay.

Serialization reuses the checkpoint codec's plan JSON, whose floats
round-trip by shortest ``repr`` — so digest equality really is truth
equality.

**Carry-forward.** Encoding and hashing every cell each wave would make
the delta planner O(world) even when churn touched a handful of cells.
:func:`compute_wave_digests` therefore takes the prior wave's
:class:`WaveDigests`, which remembers two things:

* the wave's *layout* — the cell enumeration, each cell's
  ``(ISP, address)`` keys, the Q3 candidates and each block's roles and
  footprint — everything a digest reads besides truth;
* per cell, the tuple of :class:`~repro.isp.deployment.ServiceTruth`
  objects its payload read.

While the world's static parts (``_STATIC_PARTS``: scenario config,
geographies, certified addresses, HUBB filings, Zillow feed, Form 477,
the broadband map, Q3 block classification) are the *same objects* the
prior wave read, and the ISP, state and storefront subsets are equal,
the layout is the prior's — :func:`~repro.synth.churn.churned_world`
and :class:`~repro.synth.churn.ChurnTrajectory` share every one of them
through ``replace`` — so only the truth objects are re-read. A cell
then keeps the prior digest, without re-encoding, when every truth
object it reads *is* the prior wave's object.

That is sound because ``ServiceTruth`` and ``BroadbandPlan`` are frozen
and nothing mutates a world's static parts once it is built, so the same
objects serialize to the same payload, and because the memo holds strong
references, so an identity can never be a recycled ``id``.
Every other cell — churned, re-created with equal values, or read
through a different world — is digested from scratch, so carried
digests always equal the from-scratch ones. The memo never takes part
in ``WaveDigests`` equality and is never persisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import is_

from repro.core.collection import q3_block_candidates
from repro.isp.deployment import ServiceTruth
from repro.runtime.cache import content_digest
from repro.runtime.checkpoint import _plan_to_json
from repro.runtime.shards import (DEFAULT_ISPS, Q12Cell,
                                  q12_cells_with_addresses)
from repro.synth.world import World

__all__ = [
    "DeltaPlan",
    "WaveDigests",
    "compute_wave_digests",
    "diff_digests",
    "q12_cell_digest",
    "q3_block_digest",
]

# The World attributes a cell's digest reads besides ground truth: the
# cell enumeration, each cell's address list, the Q3 candidates and each
# Q3 block's roles all come from these (and from the storefront ISPs,
# part of the basis's subsets). A prior wave's layout and digests carry
# forward only while every one is the same object.
_STATIC_PARTS = ("config", "geographies", "caf_by_isp_state",
                 "caf_addresses", "hubb", "zillow", "form477",
                 "broadband_map", "block_competition")


def _truth_digest_payload(truth: ServiceTruth) -> dict:
    # One-way by design: this feeds content_digest, nothing decodes it
    # (hence not named *_to_json — there is deliberately no inverse).
    return {
        "serves": truth.serves,
        "plans": [_plan_to_json(plan) for plan in truth.plans],
        "existing_subscriber": truth.existing_subscriber,
        "tier_label": truth.tier_label,
    }


def _truth_pairs(keys, truths) -> list:
    return [[address_id, _truth_digest_payload(truth)]
            for (_isp_id, address_id), truth in zip(keys, truths)]


def _q12_keys(cell: Q12Cell, addresses) -> tuple:
    return tuple([(cell.isp_id, address.address_id)
                  for address in addresses])


def _q12_digest(cell: Q12Cell, keys, truths) -> str:
    return content_digest({
        "isp": cell.isp_id,
        "cbg": cell.cbg,
        "truths": _truth_pairs(keys, truths),
    })


def q12_cell_digest(world: World, cell: Q12Cell, addresses=None) -> str:
    """Content address of one Q1/Q2 cell's query-relevant world state.

    ``addresses`` (the cell's CAF addresses, in canonical order) may be
    passed to amortize the per-(ISP, state) grouping across a state's
    cells; it defaults to the world's own lookup.
    """
    if addresses is None:
        addresses = world.caf_addresses_by_cbg(
            cell.isp_id, cell.state)[cell.cbg]
    keys = _q12_keys(cell, addresses)
    return _q12_digest(cell, keys, world.ground_truth.truths_for(keys))


@dataclass(frozen=True)
class _Q3Footprint:
    """What one Q3 block's digest reads besides truth: its roles, and
    the ``(ISP, address)`` keys whose truth it reads — the incumbent
    over its CAF then non-CAF addresses (the first ``split`` keys),
    then the cable ISP over the non-CAF ones (none without a cable
    ISP)."""

    block: str
    incumbent: str
    cable: str | None
    keys: tuple
    split: int

    def digest(self, truths: tuple) -> str:
        split = self.split
        return content_digest({
            "block": self.block,
            "incumbent": self.incumbent,
            "cable": self.cable,
            "incumbent_truths": _truth_pairs(self.keys[:split],
                                             truths[:split]),
            "cable_truths": _truth_pairs(self.keys[split:], truths[split:]),
        })


def _q3_footprint(world: World, block_geoid: str) -> _Q3Footprint:
    competition = world.block_competition[block_geoid]
    incumbent = competition.incumbent_isp_id
    cable = competition.cable_isp_id
    non_caf = world.zillow.non_caf_in_block(block_geoid)
    keys = [(incumbent, address.address_id) for address in (
        *world.caf_addresses_in_block(incumbent, block_geoid), *non_caf)]
    split = len(keys)
    if cable is not None:
        keys += [(cable, address.address_id) for address in non_caf]
    return _Q3Footprint(block_geoid, incumbent, cable, tuple(keys), split)


def q3_block_digest(world: World, block_geoid: str) -> str:
    """Content address of one Q3 block's query-relevant world state.

    Covers the incumbent's truth at every CAF and non-CAF address in
    the block, and the cable ISP's truth at the non-CAF addresses —
    exactly the pairs :func:`repro.core.collection.run_q3_block` can
    query.
    """
    footprint = _q3_footprint(world, block_geoid)
    return footprint.digest(world.ground_truth.truths_for(footprint.keys))


@dataclass(frozen=True)
class _Layout:
    """One basis's cell enumeration: each Q1/Q2 cell with its truth
    keys, and each Q3 candidate's footprint, in canonical order."""

    q12: tuple[tuple[Q12Cell, tuple], ...]
    q3: tuple[_Q3Footprint, ...]

    @cached_property
    def cbg_totals(self) -> dict[tuple[str, str], int]:
        return {(cell.isp_id, cell.cbg): len(keys) for cell, keys in self.q12}


def _layout(world: World, isps, states, q3_states) -> _Layout:
    return _Layout(
        q12=tuple((cell, _q12_keys(cell, addresses)) for cell, addresses
                  in q12_cells_with_addresses(world, isps, states)),
        q3=tuple(_q3_footprint(world, block) for block
                 in q3_block_candidates(world, states=q3_states)))


@dataclass
class WaveDigests:
    """One wave's per-cell digests, keyed in canonical campaign order.

    The remaining fields are the carry-forward memo the next wave's
    :func:`compute_wave_digests` reads (see the module docstring). They
    are excluded from equality and never persisted.
    """

    q12: dict[Q12Cell, str] = field(default_factory=dict)
    q3: dict[str, str] = field(default_factory=dict)
    # The truth objects each digest's payload read, per cell and block.
    q12_truths: dict[Q12Cell, tuple] = field(
        default_factory=dict, compare=False, repr=False)
    q3_truths: dict[str, tuple] = field(
        default_factory=dict, compare=False, repr=False)
    # The _STATIC_PARTS objects and the (isps, states, q3_states,
    # storefront ISPs) subsets the digests were read under, and the
    # layout read from them.
    basis: tuple = field(default=(), compare=False, repr=False)
    layout: _Layout | None = field(default=None, compare=False, repr=False)
    # How many digests were carried from the prior wave unencoded.
    reused: int = field(default=0, compare=False)

    @property
    def cbg_totals(self) -> dict[tuple[str, str], int]:
        """(isp_id, cbg) → the Q1/Q2 cell's certified population, as
        the merge's ``CollectionResult.cbg_totals`` holds it — read off
        the static layout, so shared by every wave of one basis."""
        return self.layout.cbg_totals

    @property
    def total_cells(self) -> int:
        return len(self.q12) + len(self.q3)

    @property
    def computed(self) -> int:
        """Digests encoded and hashed this wave."""
        return self.total_cells - self.reused


def _same_objects(truths: tuple, prior: tuple | None) -> bool:
    return (prior is not None and len(truths) == len(prior)
            and all(map(is_, truths, prior)))


def _same_basis(basis: tuple, prior: tuple) -> bool:
    if not prior:
        return False
    parts, subsets = basis
    prior_parts, prior_subsets = prior
    return subsets == prior_subsets and all(map(is_, parts, prior_parts))


def compute_wave_digests(
    world: World,
    isps: tuple[str, ...] = DEFAULT_ISPS,
    states: tuple[str, ...] | None = None,
    q3_states: tuple[str, ...] | None = None,
    prior: WaveDigests | None = None,
) -> WaveDigests:
    """Digest every campaign cell of ``world``, in canonical order.

    With the ``prior`` wave's digests, the prior layout is reused while
    the world's static parts are the prior's, and a cell whose truth
    objects are all the prior wave's carries its digest forward instead
    of re-encoding it; the result is equal either way.
    """
    basis = (tuple(getattr(world, name) for name in _STATIC_PARTS),
             (tuple(isps), states, q3_states, tuple(world.websites)))
    carry = prior is not None and _same_basis(basis, prior.basis)
    layout = (prior.layout if carry
              else _layout(world, isps, states, q3_states))
    digests = WaveDigests(basis=basis, layout=layout)
    read = world.ground_truth.truths_for
    for cell, keys in layout.q12:
        truths = digests.q12_truths[cell] = read(keys)
        if carry and _same_objects(truths, prior.q12_truths.get(cell)):
            digests.q12[cell] = prior.q12[cell]
            digests.reused += 1
        else:
            digests.q12[cell] = _q12_digest(cell, keys, truths)
    for footprint in layout.q3:
        block = footprint.block
        truths = digests.q3_truths[block] = read(footprint.keys)
        if carry and _same_objects(truths, prior.q3_truths.get(block)):
            digests.q3[block] = prior.q3[block]
            digests.reused += 1
        else:
            digests.q3[block] = footprint.digest(truths)
    return digests


@dataclass(frozen=True)
class DeltaPlan:
    """What one wave must re-query vs replay, in canonical order."""

    changed_q12: tuple[Q12Cell, ...]
    changed_q3: tuple[str, ...]
    total_q12: int
    total_q3: int

    @property
    def replayed_q12(self) -> int:
        return self.total_q12 - len(self.changed_q12)

    @property
    def replayed_q3(self) -> int:
        return self.total_q3 - len(self.changed_q3)

    @property
    def requery_fraction(self) -> float:
        """Share of all cells this wave re-queries (1.0 = from scratch)."""
        total = self.total_q12 + self.total_q3
        if total == 0:
            return 0.0
        return (len(self.changed_q12) + len(self.changed_q3)) / total

    @property
    def is_empty(self) -> bool:
        return not self.changed_q12 and not self.changed_q3


def diff_digests(prior: WaveDigests | None,
                 current: WaveDigests) -> DeltaPlan:
    """Plan the delta collection: cells whose digest moved since
    ``prior`` (or every cell, when there is no prior wave)."""
    if prior is None:
        changed_q12 = tuple(current.q12)
        changed_q3 = tuple(current.q3)
    else:
        changed_q12 = tuple(cell for cell, digest in current.q12.items()
                            if prior.q12.get(cell) != digest)
        changed_q3 = tuple(block for block, digest in current.q3.items()
                           if prior.q3.get(block) != digest)
    return DeltaPlan(
        changed_q12=changed_q12,
        changed_q3=changed_q3,
        total_q12=len(current.q12),
        total_q3=len(current.q3),
    )
