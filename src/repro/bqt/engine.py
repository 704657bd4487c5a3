"""The BQT query engine.

Drives website simulators the way the real BQT drives browsers: issue
an attempt through the current proxy endpoint, interpret the page,
retry transient failures with IP rotation, and log a final
:class:`~repro.bqt.logbook.QueryRecord`. Query times follow a per-ISP
lognormal calibrated to Figure 12 (AT&T slowest and widest because of
its bot-detection friction). Time is *virtual* — accumulated, never
slept — so a 537k-address campaign that took the authors months runs
here in seconds while preserving the duration arithmetic.

One query is a resumable state machine, :class:`QuerySession`: each
:meth:`~QuerySession.step` performs one attempt (page load, optional
Brightspeed follow-up, rotation and back-off on transient failure) and
pauses. The synchronous :meth:`BqtEngine.query` steps a session to
completion in a tight loop; the asyncio driver in :mod:`repro.bqt.aio`
steps many sessions against *different* storefronts from one event
loop, yielding between attempts. Both drivers consume the same RNG
stream in the same order, so the final record is identical either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.addresses.models import StreetAddress
from repro.bqt.errors import ErrorCategory, sample_error_category
from repro.bqt.logbook import QueryRecord
from repro.bqt.proxy import ProxyPool
from repro.bqt.responses import PageKind, QueryStatus, WebsiteResponse
from repro.bqt.websites import CenturyLinkWebsite, IspWebsite
from repro.isp.registry import isp_by_id
from repro.obs.metrics import REGISTRY as _METRICS
from repro.stats.distributions import SeedWords, stable_rng

__all__ = ["EngineConfig", "BqtEngine", "QuerySession"]

# Page kinds that terminate the retry loop immediately.
_CONCLUSIVE_PAGES = {
    PageKind.PLANS_PAGE,
    PageKind.EXISTING_SUBSCRIBER_PAGE,
    PageKind.UNKNOWN_PLAN_PAGE,
    PageKind.REDIRECT_FIDIUM,
    PageKind.NO_SERVICE_PAGE,
    PageKind.ADDRESS_NOT_FOUND,
    PageKind.CALL_TO_ORDER,
}

# Error category to report when retries exhaust on a given page kind.
_PAGE_ERROR_CATEGORY = {
    PageKind.DROPDOWN_MISS: ErrorCategory.SELECT_DROPDOWN,
    PageKind.HUMAN_VERIFICATION: ErrorCategory.EMPTY_TRACEBACK,
    PageKind.CALL_TO_ORDER: ErrorCategory.ANALYZING_RESULT,
}


@dataclass(frozen=True)
class EngineConfig:
    """Retry and pacing policy for a collection campaign.

    ``pace`` is the real-time pacing driver: wall-clock seconds slept
    per *virtual* second a step accrues (0.0, the default, keeps time
    purely virtual; 1.0 rehearses a campaign wall-clock-faithfully;
    0.01 rehearses it at 100x). Pacing never touches the RNG stream
    or the records — the drivers sleep *after* each attempt's draws,
    so a paced campaign is byte-identical to an unpaced one, just
    slower. The sleeping lives in the drivers (:meth:`BqtEngine
    .query` blocks; :func:`repro.bqt.aio.query_async` awaits), never
    in :meth:`QuerySession.step`, so pacing cannot stall an event
    loop's other storefront sessions.
    """

    max_attempts: int = 3
    rotate_proxy_on_failure: bool = True
    # Seconds of back-off added per retry (virtual time).
    retry_backoff_seconds: float = 5.0
    # Wall seconds slept per virtual second (0 = never sleep).
    pace: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.retry_backoff_seconds < 0:
            raise ValueError("backoff must be non-negative")
        if self.pace < 0:
            raise ValueError("pace must be non-negative")


class QuerySession:
    """One address's query, as a resumable state machine.

    The session owns the per-address RNG stream (derived from the world
    seed, never from wall clock or execution order) and the accumulated
    virtual elapsed time. Each :meth:`step` runs exactly one attempt —
    the unit the real BQT pauses at between page loads — and either
    finishes the session (:attr:`done` becomes true, :attr:`record`
    holds the final :class:`~repro.bqt.logbook.QueryRecord`) or leaves
    it resumable. Because every random draw happens inside ``step`` in
    a fixed order, interleaving steps of sessions against *different*
    engines cannot change any session's outcome; sessions sharing one
    engine still hand state to each other through the proxy pool and
    must run in order.
    """

    def __init__(self, engine: "BqtEngine", address: StreetAddress):
        self._engine = engine
        self._address = address
        seq = engine._session_seeds.get(address.address_id)
        self._rng = (
            stable_rng(*engine.session_key(address.address_id)) if seq is None
            else np.random.Generator(np.random.PCG64(seq)))
        self._attempt = 0
        self._elapsed = 0.0
        self._record: QueryRecord | None = None

    @property
    def address(self) -> StreetAddress:
        """The address this session queries."""
        return self._address

    @property
    def isp_id(self) -> str:
        """The storefront this session runs against."""
        return self._engine.isp_id

    @property
    def done(self) -> bool:
        """Whether the session reached a final record."""
        return self._record is not None

    @property
    def record(self) -> QueryRecord:
        """The final record (only after :attr:`done`)."""
        if self._record is None:
            raise RuntimeError("session still in flight; step it to done")
        return self._record

    @property
    def attempts(self) -> int:
        """Attempts issued so far."""
        return self._attempt

    @property
    def elapsed_seconds(self) -> float:
        """Virtual seconds accumulated so far."""
        return self._elapsed

    def step(self) -> float:
        """Run the next attempt; returns the virtual seconds it took.

        Reproduces one iteration of the classic blocking retry loop:
        account the query on the current exit IP, load the page,
        follow a Brightspeed redirect on the same attempt, then either
        finalize (conclusive page, or retries exhausted) or rotate the
        proxy and back off.
        """
        if self.done:
            raise RuntimeError("session already finished")
        engine = self._engine
        config = engine._config
        before = self._elapsed
        self._attempt += 1
        endpoint = engine._pool.current
        endpoint.record_query(engine._website.bot_hostility)
        self._elapsed += engine._draw_query_seconds(self._rng)
        response = engine._website.respond(
            self._address, self._rng,
            extra_error_probability=endpoint.extra_error_probability,
        )
        if response.page_kind is PageKind.REDIRECT_BRIGHTSPEED:
            # Second storefront: query brightspeed.com with the
            # same address (Appendix 8.3).
            assert isinstance(engine._website, CenturyLinkWebsite)
            self._elapsed += engine._draw_query_seconds(self._rng)
            response = engine._website.respond_brightspeed(
                self._address, self._rng)
        if response.page_kind in _CONCLUSIVE_PAGES:
            self._record = engine._finalize(
                self._address, response, self._attempt, self._elapsed)
            return self._elapsed - before
        # Transient failure: rotate the exit IP and back off.
        if config.rotate_proxy_on_failure:
            engine._pool.rotate()
        self._elapsed += config.retry_backoff_seconds
        if self._attempt >= config.max_attempts:
            self._record = engine._finalize(
                self._address, response, config.max_attempts, self._elapsed)
        return self._elapsed - before


class BqtEngine:
    """Queries one ISP's website for street addresses."""

    def __init__(
        self,
        website: IspWebsite,
        proxy_pool: ProxyPool | None = None,
        config: EngineConfig | None = None,
        seed: int = 0,
    ):
        self._website = website
        self._pool = proxy_pool or ProxyPool(seed=seed)
        self._config = config or EngineConfig()
        self._seed = seed
        self._info = isp_by_id(website.isp_id)
        # address_id → the seed words of its session stream (see prime).
        self._session_seeds: Mapping[str, SeedWords] = {}
        # Sidecar count only; the session's record bytes are untouched.
        self._sessions_total = _METRICS.counter("bqt_sessions_total",
                                                isp=website.isp_id)

    @property
    def isp_id(self) -> str:
        """The ISP this engine queries."""
        return self._website.isp_id

    @property
    def proxy_pool(self) -> ProxyPool:
        """The proxy pool in use."""
        return self._pool

    @property
    def website(self) -> IspWebsite:
        """The storefront this engine queries."""
        return self._website

    def session_key(self, address_id: str) -> tuple:
        """The :func:`stable_rng` key of one address's session stream."""
        return (self._seed, "engine", self.isp_id, address_id)

    def prime(self, seeds: Mapping[str, SeedWords]) -> None:
        """Use batched seed words for sessions: ``address_id`` → the
        words of its stream (see :mod:`repro.bqt.priming`).

        Records are unchanged: a session without words derives its
        stream through :func:`stable_rng`.
        """
        self._session_seeds = seeds

    # ------------------------------------------------------------------
    def _draw_query_seconds(self, rng: np.random.Generator) -> float:
        """One attempt's duration from the per-ISP Figure 12 model."""
        median = self._info.median_query_seconds
        sigma = self._info.query_time_sigma
        return float(rng.lognormal(mean=np.log(median), sigma=sigma))

    def begin(self, address: StreetAddress) -> QuerySession:
        """Open a resumable session for one address."""
        self._sessions_total.inc()
        return QuerySession(self, address)

    def query(self, address: StreetAddress) -> QueryRecord:
        """Query one address to a final status, pacing if configured."""
        session = self.begin(address)
        pace = self._config.pace
        while not session.done:
            took = session.step()
            if pace > 0 and took > 0:
                time.sleep(took * pace)
        return session.record

    def query_many(self, addresses: list[StreetAddress]) -> list[QueryRecord]:
        """Query a batch sequentially."""
        return [self.query(address) for address in addresses]

    # ------------------------------------------------------------------
    def _finalize(
        self,
        address: StreetAddress,
        response: WebsiteResponse,
        attempts: int,
        elapsed: float,
    ) -> QueryRecord:
        base = dict(
            isp_id=self.isp_id,
            address_id=address.address_id,
            block_geoid=address.block_geoid,
            state_abbreviation=address.state_abbreviation,
            attempts=attempts,
            elapsed_seconds=elapsed,
        )
        if response.indicates_service:
            return QueryRecord(
                status=QueryStatus.SERVICEABLE, plans=response.plans, **base
            )
        if response.page_kind is PageKind.NO_SERVICE_PAGE:
            return QueryRecord(status=QueryStatus.NO_SERVICE, **base)
        if response.page_kind is PageKind.ADDRESS_NOT_FOUND:
            return QueryRecord(status=QueryStatus.ADDRESS_NOT_FOUND, **base)
        category = _PAGE_ERROR_CATEGORY.get(response.page_kind)
        if category is None:
            # ERROR_PAGE: attribute per the ISP's Table 2 traceback mix,
            # excluding categories that carry their own page kinds.
            rng = stable_rng(self._seed, "errcat", self.isp_id, address.address_id)
            category = sample_error_category(
                self.isp_id, rng,
                exclude=(ErrorCategory.SELECT_DROPDOWN,
                         ErrorCategory.ANALYZING_RESULT),
            )
        return QueryRecord(status=QueryStatus.UNKNOWN, error_category=category, **base)
