"""DET pack — determinism rules.

The byte-equivalence contract demands that every backend, every
resume, and every re-run of the same campaign produce bit-identical
logbooks and digests. These rules flag the three classic ways Python
programs silently break that: ambient randomness, hash-randomized
iteration order, and wall-clock reads leaking into outputs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.asthelpers import call_name, is_unordered
from repro.lint.facts import NP_BIT_GENERATORS, UNSEEDED_RNG_SUFFIXES
from repro.lint.model import Finding, ModuleContext, rule

# random-module functions that consume the hidden global RNG. Calling
# any of these makes output depend on interpreter-wide state no seed
# in our code controls.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "random_sample",
})
# numpy.random legacy global-state functions (np.random.<fn>). The
# seedable object API (default_rng / Generator / SeedSequence / the
# bit generators / Random) is handled separately.
_NP_OBJECT_API = frozenset({"default_rng", "Generator", "SeedSequence",
                            "RandomState", "bit_generator"}) | NP_BIT_GENERATORS


@rule(
    "DET101", "DET",
    summary="unseeded or global-state RNG",
    rationale="an RNG without an explicit digest-derived seed makes "
              "every sampled world unreproducible across runs and "
              "backends",
)
def det101_unseeded_rng(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if not name:
            continue
        parts = name.split(".")
        # random.Random() / np.random.default_rng() / np.random.PCG64()
        # with no seed.
        if parts[-1] in UNSEEDED_RNG_SUFFIXES \
                and not node.args and not node.keywords:
            yield ctx.finding(
                "DET101", node,
                f"{name}() constructed without a seed; derive one from "
                "a content digest instead")
        # random.shuffle(...) etc: the module-level global RNG.
        elif (len(parts) == 2 and parts[0] == "random"
                and parts[1] in _GLOBAL_RANDOM_FNS):
            yield ctx.finding(
                "DET101", node,
                f"{name}() uses the process-global RNG; use a seeded "
                "random.Random instance")
        # np.random.rand(...) etc: numpy's legacy global state.
        elif (len(parts) >= 3 and parts[-2] == "random"
                and parts[0] in ("np", "numpy")
                and parts[-1] not in _NP_OBJECT_API):
            yield ctx.finding(
                "DET101", node,
                f"{name}() uses numpy's legacy global RNG; use a "
                "seeded np.random.default_rng(seed)")


# Consumers that materialize their operand *in iteration order*:
# feeding them a set bakes PYTHONHASHSEED into the output.
_ORDER_SENSITIVE_CALLEES = frozenset({"list", "tuple", "enumerate"})


def _iter_order_sinks(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.expr]]:
    """Yield (report node, iterated expr) pairs where order escapes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for comp in node.generators:
                yield node, comp.iter
        elif isinstance(node, ast.Call):
            callee = node.func
            if (isinstance(callee, ast.Name)
                    and callee.id in _ORDER_SENSITIVE_CALLEES
                    and node.args):
                yield node, node.args[0]
            elif (isinstance(callee, ast.Attribute)
                    and callee.attr == "join" and node.args):
                yield node, node.args[0]


@rule(
    "DET102", "DET",
    summary="iteration over a set or set expression",
    rationale="set iteration order depends on PYTHONHASHSEED, so any "
              "ordered output derived from it differs run to run; "
              "wrap the set in sorted(...)",
)
def det102_set_iteration(ctx: ModuleContext) -> Iterator[Finding]:
    for report_node, iterated in _iter_order_sinks(ctx.tree):
        if is_unordered(iterated):
            yield ctx.finding(
                "DET102", report_node,
                "iterating a set expression in an order-sensitive "
                "position; use sorted(...) to fix the order")


_WALL_CLOCK = {
    ("time", "time"): "time.time()",
    ("time", "time_ns"): "time.time_ns()",
    ("datetime", "now"): "datetime.now()",
    ("datetime", "utcnow"): "datetime.utcnow()",
    ("date", "today"): "date.today()",
}


@rule(
    "DET103", "DET",
    summary="wall-clock read outside allowlisted modules",
    rationale="timestamps flowing into logbooks or digests make "
              "byte-equivalence across runs impossible; only pacing/"
              "timeout/eviction code (monotonic clocks, atomicio's "
              "stale-tmp sweep) may consult the clock",
    exclude_basenames=("atomicio",),
    # The observability sidecar timestamps its published trace files;
    # those bytes never reach a logbook, journal, or digest.
    exclude_path_tokens=("obs/",),
)
def det103_wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        parts = name.split(".")
        if len(parts) < 2:
            continue
        spelled = _WALL_CLOCK.get((parts[-2], parts[-1]))
        if spelled is not None:
            yield ctx.finding(
                "DET103", node,
                f"{spelled} reads the wall clock; use time.monotonic() "
                "for pacing or pass timestamps in explicitly")


@rule(
    "DET104", "DET",
    summary="float sum over an unordered operand in analysis code",
    rationale="float addition is not associative, so summing a set "
              "(or anything hash-ordered) changes low-order bits with "
              "PYTHONHASHSEED; sum sorted or ordered sequences only",
    path_tokens=("analysis",),
)
def det104_unordered_float_sum(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args):
            continue
        operand = node.args[0]
        hazardous = is_unordered(operand)
        if isinstance(operand, ast.GeneratorExp):
            hazardous = any(is_unordered(comp.iter)
                            for comp in operand.generators)
        if hazardous:
            yield ctx.finding(
                "DET104", node,
                "sum() over an unordered operand: float summation "
                "order is part of the byte contract; sort first")
