"""repro.runtime — sharded, resumable, cached campaign execution.

The paper's measurement campaign ran a fleet of containerized BQT
workers for weeks; this subsystem gives the reproduction the same
shape. It partitions a :class:`~repro.synth.world.World` into
deterministic shards of independent cells (:mod:`~repro.runtime
.shards`), runs them in process or on a process pool — optionally
interleaving each shard's sessions against different storefronts on
an asyncio event loop, always under the per-storefront politeness cap
(:mod:`~repro.runtime.executor`, :mod:`repro.bqt.aio`) — merges
shard logs back into results bit-identical to the sequential campaign
(:mod:`~repro.runtime.merge`), leases shards to a fleet of worker
processes that stream checksummed results back over sockets
(:mod:`~repro.runtime.distributed`, ``backend="distributed"``),
checkpoints completed shards crash-safely so an
interrupted run resumes without recomputation (:mod:`~repro.runtime
.checkpoint`; every campaign restores from and records to its shard
log in the one loop, :func:`~repro.runtime.executor.dispatch_shards`),
and content-addresses finished audits so repeated
``ExperimentContext`` builds reuse one run (:mod:`~repro.runtime
.cache`, which also caches world builds by scenario and evicts
least-recently-used entries past ``REPRO_CACHE_MAX_BYTES``).

Entry points::

    from repro import run_full_audit
    from repro.runtime import RuntimeConfig

    report = run_full_audit(parallel=RuntimeConfig(
        shards=8, workers=4, backend="process", max_inflight=8))
"""

from repro.runtime.cache import (
    AuditCache,
    audit_digest,
    cache_dir_from_environment,
    cache_max_bytes_from_environment,
    world_digest,
)
from repro.runtime.checkpoint import CheckpointStore, campaign_fingerprint
from repro.runtime.distributed import run_worker
from repro.runtime.executor import (
    RuntimeConfig,
    ShardResult,
    dispatch_shards,
    execute_campaign,
    run_shard,
)
from repro.runtime.merge import merge_shard_results
from repro.runtime.shards import Q12Cell, ShardSpec, enumerate_q12_cells, plan_shards

__all__ = [
    "AuditCache",
    "CheckpointStore",
    "Q12Cell",
    "RuntimeConfig",
    "ShardResult",
    "ShardSpec",
    "audit_digest",
    "cache_dir_from_environment",
    "cache_max_bytes_from_environment",
    "world_digest",
    "campaign_fingerprint",
    "dispatch_shards",
    "enumerate_q12_cells",
    "execute_campaign",
    "merge_shard_results",
    "plan_shards",
    "run_shard",
    "run_worker",
]
