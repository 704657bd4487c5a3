"""The rotating proxy pool.

The paper routes BQT through The Bright Initiative's pool of data-center
and residential IPs so ISP websites see queries "originating from a
geographically diverse pool of IP addresses", and rotates IPs when
bot-detection interferes. The simulation keeps the operationally
relevant behaviour: endpoints accumulate *suspicion* as they issue
queries (more so on bot-hostile sites), suspicious endpoints raise the
error probability of attempts made through them, and rotation resets
the engine to a fresh endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.stats.distributions import stable_rng

__all__ = ["ProxyEndpoint", "ProxyPool"]


@dataclass
class ProxyEndpoint:
    """One exit IP from the pool."""

    endpoint_id: str
    kind: str  # "residential" or "datacenter"
    queries_issued: int = 0
    suspicion: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("residential", "datacenter"):
            raise ValueError(f"unknown endpoint kind {self.kind!r}")

    def record_query(self, bot_hostility: float) -> None:
        """Account one query; data-center IPs attract suspicion faster."""
        if not 0.0 <= bot_hostility <= 1.0:
            raise ValueError("bot_hostility must be in [0, 1]")
        self.queries_issued += 1
        multiplier = 1.0 if self.kind == "residential" else 2.5
        self.suspicion = min(1.0, self.suspicion + 0.002 * multiplier * bot_hostility)

    @property
    def extra_error_probability(self) -> float:
        """Added failure probability when querying through this IP."""
        return 0.3 * self.suspicion


@lru_cache(maxsize=64)
def _endpoint_kinds(
    seed: int, size: int, residential_fraction: float
) -> tuple[str, ...]:
    """Each endpoint's kind: a pure function of the pool's parameters,
    so the fresh pool of every cell's engine reuses one draw."""
    rng = stable_rng(seed, "proxy-pool")
    return tuple("residential" if rng.random() < residential_fraction
                 else "datacenter" for _ in range(size))


class ProxyPool:
    """A finite pool of endpoints with round-robin-with-reuse rotation.

    An endpoint is built when a query first reaches it; one not built
    yet is a fresh endpoint (no queries, no suspicion), which is what
    :meth:`least_suspicious` and :meth:`mean_suspicion` see of it.
    """

    def __init__(self, size: int = 64, residential_fraction: float = 0.7,
                 seed: int = 0):
        if size <= 0:
            raise ValueError("pool size must be positive")
        if not 0.0 <= residential_fraction <= 1.0:
            raise ValueError("residential_fraction must be in [0, 1]")
        self._kinds = _endpoint_kinds(seed, size, residential_fraction)
        self._built: dict[int, ProxyEndpoint] = {}
        self._cursor = 0
        self.rotations = 0

    def __len__(self) -> int:
        return len(self._kinds)

    def _endpoint(self, index: int) -> ProxyEndpoint:
        endpoint = self._built.get(index)
        if endpoint is None:
            endpoint = self._built[index] = ProxyEndpoint(
                endpoint_id=f"ip-{index:04d}", kind=self._kinds[index])
        return endpoint

    @property
    def _endpoints(self) -> list[ProxyEndpoint]:
        """Every endpoint, in order, building the ones not reached yet."""
        return [self._endpoint(index) for index in range(len(self._kinds))]

    @property
    def current(self) -> ProxyEndpoint:
        """The endpoint queries are currently routed through."""
        return self._endpoint(self._cursor)

    def rotate(self) -> ProxyEndpoint:
        """Move to the next endpoint (wraps; suspicion persists, as it
        does for a real pool within one collection campaign)."""
        self._cursor = (self._cursor + 1) % len(self._kinds)
        self.rotations += 1
        return self.current

    def least_suspicious(self) -> ProxyEndpoint:
        """Jump to the cleanest endpoint (used after repeated failures)."""
        endpoints = self._endpoints
        self._cursor = min(range(len(endpoints)),
                           key=lambda i: endpoints[i].suspicion)
        return self.current

    def mean_suspicion(self) -> float:
        """Pool-wide average suspicion (observability hook)."""
        endpoints = self._endpoints
        return sum(e.suspicion for e in endpoints) / len(endpoints)
