"""Batched seeding of BQT session streams and storefront rolls.

Every BQT session draws from its own stream, ``stable_rng(seed,
"engine", isp, address)``, and a storefront reads one-shot address
rolls, ``stable_rng(seed, "site", isp, purpose, address)``. The batched
twins :func:`~repro.stats.distributions.stable_seed_sequences` and
:func:`~repro.stats.distributions.stable_uniforms` seed many such keys
in vector passes, but each pass has a fixed cost of about what thirty
keys cost, and one campaign cell holds about thirty keys.

:class:`SessionPrimer` therefore seeds a *window* of cells at a time.
It walks a run's cells in the order its driver runs them; when the
driver asks for a cell past the current window, it sets up the
following cells until they hold at least ``_CHUNK`` keys, and seeds
them in one ``stable_seed_sequences`` pass (every session stream the
window will open) and one ``stable_uniforms`` pass (every roll it will
read).

Priming is a pure cache. An engine keeps the seed words of its own
sessions; a storefront keeps the rolls of the latest window that
covered it. A session or roll that no window covers (a reserve draw,
or a roll its storefront dropped for a later window) derives its
stream through ``stable_rng``. A cell asked for after the walk has
passed it is primed alone. The records are the same however the cells
were windowed.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

from repro.addresses.models import StreetAddress
from repro.bqt.engine import BqtEngine
from repro.bqt.websites import IspWebsite
from repro.stats.distributions import (
    _CHUNK,
    stable_seed_sequences,
    stable_uniforms,
)

__all__ = ["CellBuild", "Sessions", "SessionPrimer"]

# The sessions one cell will open: each engine with the addresses it
# will query.
Sessions = list[tuple[BqtEngine, Sequence[StreetAddress]]]
# Sets one cell up (fresh engines, sample plan): ``(setup, sessions)``.
CellBuild = Callable[[], tuple[object, Sessions]]


class _Batch:
    """The session streams and rolls of some cells, seeded together."""

    def __init__(self) -> None:
        self.streams: list[tuple[BqtEngine, list[str]]] = []
        self.rolls: dict[IspWebsite, list[tuple[str, str]]] = {}
        self.size = 0

    def add(self, sessions: Sessions) -> None:
        for engine, addresses in sessions:
            ids = [address.address_id for address in addresses]
            self.streams.append((engine, ids))
            self.size += len(ids)
            website = engine.website
            if isinstance(website, IspWebsite):
                keys = website.roll_keys(addresses)
                self.rolls.setdefault(website, []).extend(keys)
                self.size += len(keys)

    def seed(self) -> None:
        """Hand each engine its seed words and each storefront its rolls."""
        words = stable_seed_sequences(
            engine.session_key(address_id)
            for engine, ids in self.streams for address_id in ids)
        for engine, ids in self.streams:
            # zip stops at the end of ids before it pulls a word, so each
            # engine takes exactly its own words off the one pass.
            engine.prime(dict(zip(ids, words)))
        values = iter(stable_uniforms(
            website.roll_key(*key)
            for website, keys in self.rolls.items() for key in keys))
        for website, keys in self.rolls.items():
            website.prime(dict(zip(keys, values)))


class SessionPrimer:
    """Seeds a run of cells' sessions and rolls, one window at a time.

    ``cells`` lists ``(key, build)`` in the order the driver runs the
    cells; ``build()`` sets the cell up and returns ``(setup,
    sessions)``. The primer holds one window of set-up cells at a time.
    """

    def __init__(self, cells: Iterable[tuple[Hashable, CellBuild]]):
        self._cells = list(cells)
        self._position = {key: index
                          for index, (key, _build) in enumerate(self._cells)}
        self._next = 0
        self._window: dict[Hashable, object] = {}

    def setup(self, key: Hashable) -> object:
        """Cell ``key``'s setup, its sessions and rolls seeded.

        A cell ahead of the walk advances it window by window; a cell
        the walk has passed (taken out of order) is set up and primed
        alone.
        """
        if key in self._window:
            return self._window.pop(key)
        index = self._position[key]
        if index < self._next:
            batch = _Batch()
            setup, sessions = self._cells[index][1]()
            batch.add(sessions)
            batch.seed()
            return setup
        while key not in self._window:
            self._advance()
        return self._window.pop(key)

    def _advance(self) -> None:
        """Set up the next window of at least ``_CHUNK`` keys and seed it."""
        self._window = {}
        batch = _Batch()
        while batch.size < _CHUNK and self._next < len(self._cells):
            key, build = self._cells[self._next]
            self._next += 1
            self._window[key], sessions = build()
            batch.add(sessions)
        batch.seed()
