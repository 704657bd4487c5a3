"""FLOW pack — interprocedural determinism taint.

DET103 catches ``time.time()`` *in the file being scanned*; it is
blind the moment the clock read hides behind a helper in another
module. These project-scoped rules close that hole: phase 1 records
which functions return impurity (wall clock, unseeded RNG) locally,
phase 2 propagates that taint along the call graph, and a finding
fires only where a tainted value actually reaches a durable sink —
a frame write, an atomic store publish, or a digest.

The taint is *return-value* taint, deliberately: a function that
consults the clock for control flow (atomicio's stale-tmp sweep ages
files) but never returns a clock-derived value is pure from the
caller's point of view and stays clean here.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.model import Finding, rule
from repro.lint.project import ProjectContext

# Calls that commit their arguments to durable output: the wire, an
# atomically-published store file. (``journal.append`` et al. funnel
# into these.)
DURABLE_SINKS = frozenset({
    "write_frame", "atomic_write_json", "atomic_write_text",
    "atomic_write_bytes", "atomic_write_stream", "atomic_write_pack",
    "append_replicated",
})

# Calls that fold their arguments into a digest.
DIGEST_SINKS = frozenset({
    "content_digest", "audit_digest", "world_digest",
    "sha256", "sha1", "md5", "blake2b", "_sha256", "_digest",
})


def _tainted_sources(project: ProjectContext, relpath: str, fn,
                     call, kind: str) -> list[tuple[str, list[str]]]:
    """(source call name, witness chain) for every tainted value
    feeding one sink call's arguments."""
    sources: list[tuple[str, list[str]]] = []
    seen: set = set()

    def check(name: str) -> None:
        if name in seen:
            return
        seen.add(name)
        taint = project.taint_of_call(relpath, fn, name)
        if kind in taint:
            sources.append((name, taint[kind]))

    for callee_name in call.arg_calls:
        check(callee_name)
    for arg_name in call.arg_names_all:
        for callee_name in fn.assigned_calls.get(arg_name, ()):
            check(callee_name)
    return sources


def _flow_findings(project: ProjectContext, sinks: frozenset,
                   kind: str, rule_id: str,
                   verdict: str) -> Iterator[Finding]:
    for relpath, _, fn in project.iter_functions():
        for call in fn.calls:
            if call.name.split(".")[-1] not in sinks:
                continue
            for source, chain in _tainted_sources(
                    project, relpath, fn, call, kind):
                yield Finding(
                    rule=rule_id, path=relpath, line=call.line,
                    col=call.col, context=call.context,
                    message=(f"{source}() feeds "
                             f"{call.name.split('.')[-1]}() but is "
                             f"tainted transitively "
                             f"({' -> '.join(chain)}); {verdict}"))


@rule(
    "FLOW601", "FLOW",
    summary="wall-clock value reaches durable output through calls",
    rationale="a helper wrapping time.time() passes DET103 in every "
              "caller's file; taint propagated over the call graph "
              "catches the clock read no matter how many modules it "
              "hides behind before landing in a frame or store",
    exclude_basenames=("atomicio",),
    exclude_path_tokens=("obs/",),
    scope="project",
)
def flow601_transitive_wall_clock(
        project: ProjectContext) -> Iterator[Finding]:
    yield from _flow_findings(
        project, DURABLE_SINKS, "wall_clock", "FLOW601",
        "durable bytes must not depend on when the run happened")


@rule(
    "FLOW602", "FLOW",
    summary="unseeded-RNG value reaches a digest through calls",
    rationale="a digest over values from an unseeded generator can "
              "never be reproduced; DET101 misses the draw when it "
              "happens in a callee, so the taint has to travel the "
              "call graph to the hashing site",
    scope="project",
)
def flow602_transitive_rng_digest(
        project: ProjectContext) -> Iterator[Finding]:
    yield from _flow_findings(
        project, DIGEST_SINKS, "unseeded_rng", "FLOW602",
        "seed the generator from the spec or drop it from the digest")
