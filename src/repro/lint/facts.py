"""Per-module facts: the unit the whole-program pass is built from.

Phase 1 of the analyzer distills every parsed module into a
:class:`ModuleFacts` value — imports, per-function call sites and
impurity sites, per-class attribute-access maps, frame-key literals —
that is **AST-free and JSON-serializable**. That one design decision
buys three engine features at once:

* the project pass (:mod:`repro.lint.project`) consumes facts, never
  trees, so cross-module reasoning works over a flat data model;
* the fact cache keys ``{relpath: (source digest, facts, findings)}``
  and a warm re-scan of an unchanged file skips parse *and* rules;
* ``--jobs N`` can parse in worker processes and ship facts back as
  plain dicts.

Locality rule: everything here is inferred from one module in one
pass. Anything that needs another module's facts (resolving an import,
propagating taint along the call graph, matching a frame key to its
reader) belongs in :mod:`repro.lint.project`.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field

from repro.lint.asthelpers import dotted_name, is_unordered
from repro.lint.model import ModuleContext

__all__ = [
    "CallSite", "SiteList", "FunctionFacts", "AttributeWrite",
    "ClassFacts", "ModuleFacts", "extract_facts",
    "facts_to_json", "facts_from_json",
    "WALL_CLOCK_CALLS", "NP_BIT_GENERATORS", "UNSEEDED_RNG_SUFFIXES",
    "ENV_READ_CALLS",
    "LOCK_TYPES",
]

# (penultimate, final) dotted-name parts that read the wall clock —
# shared vocabulary with DET103.
WALL_CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
})

# numpy's bit-generator constructors: explicit state when seeded (not
# legacy global state), OS entropy when called without a seed.
NP_BIT_GENERATORS = frozenset({"PCG64", "PCG64DXSM", "Philox", "SFC64",
                               "MT19937"})
# Call-name suffixes that consume ambient/unseeded randomness when the
# call has no arguments — shared vocabulary with DET101.
UNSEEDED_RNG_SUFFIXES = frozenset({"Random", "default_rng",
                                   "RandomState"}) | NP_BIT_GENERATORS
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "getrandbits",
})

# Process-environment reads: ambient configuration leaking into
# output makes a run unreproducible on another host.
ENV_READ_CALLS = frozenset({("os", "getenv"), ("environ", "get")})

# threading constructors whose instances guard critical sections. A
# Condition *wraps* a lock, so ``Condition(self._lock)`` aliases it.
LOCK_TYPES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                        "BoundedSemaphore"})

# Impurity kinds a function can exhibit (and propagate).
IMPURITY_KINDS = ("wall_clock", "unseeded_rng", "env_read",
                  "set_iteration")


@dataclass
class SiteList:
    """One source position a fact anchors to."""

    line: int
    col: int
    context: str


@dataclass
class CallSite:
    """One call expression inside a function body.

    ``name`` is the dotted callee (``"helper"``, ``"self._run"``,
    ``"mod.fn"``); computed callees are absent (the resolver cannot do
    anything with them). ``in_return`` marks calls whose result feeds a
    ``return`` expression — value taint travels through those.
    ``arg_names``: for each positional argument that is a plain local
    name, its (position, name) — the frame-dict propagation follows
    these. ``arg_names_all`` / ``arg_calls``: every name and every
    dotted callee appearing anywhere inside the argument expressions —
    the FLOW sink rules match taint against these. ``held_locks``:
    self-attribute lock names held lexically at the call site.
    """

    name: str
    line: int
    col: int
    context: str
    in_return: bool = False
    arg_names: list[list] = field(default_factory=list)
    arg_names_all: list[str] = field(default_factory=list)
    arg_calls: list[str] = field(default_factory=list)
    held_locks: list[str] = field(default_factory=list)


@dataclass
class FunctionFacts:
    """Locally-inferred facts about one function or method."""

    qualname: str  # "fn" or "Class.method"
    class_name: str | None
    lineno: int
    params: list[str]
    calls: list[CallSite]
    # kind -> sites where the impurity occurs anywhere in the body.
    impurity_sites: dict[str, list[SiteList]]
    # Impurity kinds occurring in return-feeding expressions (the
    # value-taint base case for FLOW propagation).
    return_impurity: list[str]
    # lock attr -> acquisition sites; ``with self.<attr>`` where the
    # attr is a known lock (typed in __init__ or named like one).
    locks_acquired: dict[str, list[SiteList]]
    # (outer lock, inner lock) pairs from lexically nested ``with``s.
    lock_nestings: list[list]
    # base name -> key sites for ``base.get("k")`` / ``base["k"]``.
    key_reads: dict[str, list[dict]]
    # Local names assigned from ``read_frame(...)``.
    frame_names: list[str]
    # local name -> dotted callee names ever assigned to it; the FLOW
    # rules look these up when a sink argument is a plain name.
    assigned_calls: dict[str, list[str]]
    # True when a return expression contains a read_frame(...) call.
    returns_read_frame: bool
    # local var -> dotted constructor name (``client = ServiceClient(a)``).
    instance_types: dict[str, str]


@dataclass
class AttributeWrite:
    """One ``self.<attr> = ...`` (or augmented/subscript) store."""

    attr: str
    method: str
    line: int
    col: int
    context: str
    locked: bool


@dataclass
class ClassFacts:
    """Cross-method view of one class body."""

    name: str
    lineno: int
    methods: list[str]
    # Method names handed to ``Thread(target=self.X)`` anywhere in the
    # class: entry points of other threads.
    thread_targets: list[str]
    # attr -> constructor type name for lock-like attrs built in
    # __init__ (``self._lock = threading.RLock()``).
    lock_attrs: dict[str, str]
    # attr -> canonical lock attr (``Condition(self._lock)`` wraps and
    # therefore aliases ``_lock``).
    lock_aliases: dict[str, str]
    # attr -> dotted class name for ``self.X = ClassName(...)`` in
    # __init__ (instance-attribute dispatch for the call graph).
    attr_types: dict[str, str]
    # Every self-attribute store outside __init__.
    writes: list[AttributeWrite]


@dataclass
class ModuleFacts:
    """Everything the project pass needs to know about one module."""

    relpath: str
    dotted: str  # relpath as a dotted module path ("a/b/c.py" -> "a.b.c")
    # local alias -> imported module ("np" -> "numpy").
    module_imports: dict[str, str]
    # local name -> (source module, original name) for from-imports.
    from_imports: dict[str, list]
    functions: dict[str, FunctionFacts]
    classes: dict[str, ClassFacts]
    has_write_frame: bool
    has_read_frame: bool
    references_version: bool  # any *_VERSION name or attribute
    # Constant string keys of frame dict literals (dicts carrying a
    # "type" key in a frame-speaking module), plus ``frame["k"] = v``
    # extensions of those dicts: key -> sites.
    frame_keys_written: dict[str, list[dict]]
    # True when any frame dict uses ** expansion or computed keys: the
    # write-side key universe is open and read-only findings would lie.
    frame_keys_dynamic: bool


# ----------------------------------------------------------------------
# codecs (the fact cache's wire format)
# ----------------------------------------------------------------------

def facts_to_json(facts: ModuleFacts) -> dict:
    return asdict(facts)


def facts_from_json(data: dict) -> ModuleFacts:
    functions = {
        qualname: FunctionFacts(
            **{**fn, "calls": [CallSite(**c) for c in fn["calls"]],
               "impurity_sites": {
                   kind: [SiteList(**s) for s in sites]
                   for kind, sites in fn["impurity_sites"].items()},
               "locks_acquired": {
                   lock: [SiteList(**s) for s in sites]
                   for lock, sites in fn["locks_acquired"].items()}})
        for qualname, fn in data["functions"].items()
    }
    classes = {
        name: ClassFacts(
            **{**kls,
               "writes": [AttributeWrite(**w) for w in kls["writes"]]})
        for name, kls in data["classes"].items()
    }
    return ModuleFacts(
        **{**data, "functions": functions, "classes": classes})


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def _dotted_module(relpath: str) -> str:
    parts = relpath.removesuffix(".py").split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_wall_clock(parts: tuple[str, ...]) -> bool:
    return len(parts) >= 2 and (parts[-2], parts[-1]) in WALL_CLOCK_CALLS


def _is_unseeded_rng(call: ast.Call, parts: tuple[str, ...]) -> bool:
    if (parts[-1] in UNSEEDED_RNG_SUFFIXES and not call.args
            and not call.keywords):
        return True
    if (len(parts) == 2 and parts[0] == "random"
            and parts[1] in _GLOBAL_RANDOM_FNS):
        return True
    return (len(parts) >= 3 and parts[-2] == "random"
            and parts[0] in ("np", "numpy")
            and parts[-1] in _GLOBAL_RANDOM_FNS | {"rand", "randn"})


def _is_env_read(node: ast.AST, parts: tuple[str, ...]) -> bool:
    if isinstance(node, ast.Call):
        return len(parts) >= 2 and (parts[-2], parts[-1]) in ENV_READ_CALLS
    if isinstance(node, ast.Subscript):
        return dotted_name(node.value).endswith("environ")
    return False


def _const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _FunctionVisitor(ast.NodeVisitor):
    """One pass over a function body (never descending into nested
    function definitions — those get their own facts)."""

    def __init__(self, ctx: ModuleContext, qualname: str,
                 node: ast.FunctionDef | ast.AsyncFunctionDef,
                 lock_names: set[str]) -> None:
        self._ctx = ctx
        self._lock_names = lock_names
        self._held: list[str] = []  # lock-attr stack, lexical
        self._root = node
        self.facts = FunctionFacts(
            qualname=qualname,
            class_name=(qualname.rsplit(".", 1)[0]
                        if "." in qualname else None),
            lineno=node.lineno,
            params=[arg.arg for arg in node.args.args],
            calls=[],
            impurity_sites={},
            return_impurity=[],
            locks_acquired={},
            lock_nestings=[],
            key_reads={},
            frame_names=[],
            assigned_calls={},
            returns_read_frame=False,
            instance_types={},
        )
        self._return_nodes: list[ast.expr] = []
        self._assigned: dict[str, list[ast.expr]] = {}

    def run(self) -> FunctionFacts:
        for statement in self._root.body:
            self.visit(statement)
        self._finish_return_taint()
        return self.facts

    # -- helpers -------------------------------------------------------

    def _site(self, node: ast.AST) -> SiteList:
        lineno = getattr(node, "lineno", 1)
        return SiteList(line=lineno, col=getattr(node, "col_offset", 0),
                        context=self._ctx.line_text(lineno))

    def _impurity(self, kind: str, node: ast.AST) -> None:
        self.facts.impurity_sites.setdefault(kind, []).append(
            self._site(node))

    def _lock_name(self, expr: ast.expr) -> str | None:
        """The self-attribute lock a with-item acquires, if any."""
        if isinstance(expr, ast.Call):
            expr = expr.func  # with self._lock.acquire_timeout(...) etc.
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self":
            attr = expr.attr
            if attr in self._lock_names or "lock" in attr.lower():
                return attr
        return None

    # -- scope boundaries ----------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope: separate facts

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- with/lock tracking --------------------------------------------

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            self.visit(item.context_expr)  # calls inside the item
            lock = self._lock_name(item.context_expr)
            if lock is not None:
                for outer in self._held:
                    if outer != lock:
                        self.facts.lock_nestings.append([outer, lock])
                self.facts.locks_acquired.setdefault(lock, []).append(
                    self._site(item.context_expr))
                self._held.append(lock)
                acquired.append(lock)
        for statement in node.body:
            self.visit(statement)
        for _ in acquired:
            self._held.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # -- returns and assignments ---------------------------------------

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._return_nodes.append(node.value)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        value_dotted = dotted_name(node.value.func) \
            if isinstance(node.value, ast.Call) else None
        value_name = value_dotted.split(".")[-1] if value_dotted else None
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._assigned.setdefault(target.id, []).append(node.value)
                if value_dotted and not value_dotted.startswith("?"):
                    self.facts.assigned_calls.setdefault(
                        target.id, []).append(value_dotted)
                if value_name == "read_frame" \
                        and target.id not in self.facts.frame_names:
                    self.facts.frame_names.append(target.id)
                elif value_name and value_name[:1].isupper() \
                        and isinstance(node.value, ast.Call):
                    self.facts.instance_types[target.id] = dotted_name(
                        node.value.func)
        self.generic_visit(node)

    # -- the expression-level facts ------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        parts = tuple(name.split("."))
        if not name.startswith("?"):
            if _is_wall_clock(parts):
                self._impurity("wall_clock", node)
            if _is_unseeded_rng(node, parts):
                self._impurity("unseeded_rng", node)
            if _is_env_read(node, parts):
                self._impurity("env_read", node)
            arg_names = [[position, arg.id]
                         for position, arg in enumerate(node.args)
                         if isinstance(arg, ast.Name)]
            arg_names_all: list[str] = []
            arg_calls: list[str] = []
            for arg_root in list(node.args) + [kw.value
                                               for kw in node.keywords]:
                for sub in ast.walk(arg_root):
                    if isinstance(sub, ast.Call):
                        sub_name = dotted_name(sub.func)
                        if not sub_name.startswith("?") \
                                and sub_name not in arg_calls:
                            arg_calls.append(sub_name)
                    elif isinstance(sub, ast.Name) \
                            and sub.id not in arg_names_all:
                        arg_names_all.append(sub.id)
            self.facts.calls.append(CallSite(
                name=name, line=node.lineno, col=node.col_offset,
                context=self._ctx.line_text(node.lineno),
                arg_names=arg_names, arg_names_all=arg_names_all,
                arg_calls=arg_calls, held_locks=list(self._held)))
        # base.get("key") reads — recorded even when the base is a
        # computed expression (``request(...).get("jobs")``); those
        # land under base "?" and only feed the broad read set.
        if (parts[-1] == "get" and len(parts) >= 2 and node.args):
            key = _const_str(node.args[0])
            if key is not None:
                base = parts[0] if len(parts) == 2 else "?"
                self.facts.key_reads.setdefault(base, []).append(
                    {"key": key, "line": node.lineno,
                     "col": node.col_offset,
                     "context": self._ctx.line_text(node.lineno)})
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.value, ast.Name):
            key = _const_str(node.slice)
            if key is not None:
                self.facts.key_reads.setdefault(node.value.id, []).append(
                    {"key": key, "line": node.lineno,
                     "col": node.col_offset,
                     "context": self._ctx.line_text(node.lineno)})
        if _is_env_read(node, ()):
            self._impurity("env_read", node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if is_unordered(node.iter):
            self._impurity("set_iteration", node)
        self.generic_visit(node)

    # -- return-taint closure ------------------------------------------

    def _finish_return_taint(self) -> None:
        """Mark impurity kinds and calls feeding any return expression.

        Follows one hop of local assignment per iteration until the
        feeding-name set is stable: ``x = time.time(); y = x;
        return y`` taints the return.
        """
        feeding: set[str] = set()
        exprs = list(self._return_nodes)
        changed = True
        while changed:
            changed = False
            for expr in exprs:
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Name) \
                            and sub.id in self._assigned \
                            and sub.id not in feeding:
                        feeding.add(sub.id)
                        exprs.extend(self._assigned[sub.id])
                        changed = True
        kinds: set[str] = set()
        call_nodes: set[int] = set()
        for expr in exprs:
            for sub in ast.walk(expr):
                if not isinstance(sub, (ast.Call, ast.Subscript)):
                    continue
                parts = tuple(dotted_name(
                    sub.func if isinstance(sub, ast.Call) else sub.value
                ).split("."))
                if isinstance(sub, ast.Call):
                    call_nodes.add(id(sub))
                    if _is_wall_clock(parts):
                        kinds.add("wall_clock")
                    if _is_unseeded_rng(sub, parts):
                        kinds.add("unseeded_rng")
                if _is_env_read(sub, parts):
                    kinds.add("env_read")
        self.facts.return_impurity = sorted(kinds)
        # Re-walk return-feeding exprs and tag matching recorded calls
        # (matching by position, the stable identity we kept).
        positions = set()
        for expr in exprs:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call) and id(sub) in call_nodes:
                    positions.add((sub.lineno, sub.col_offset))
        for call in self.facts.calls:
            if (call.line, call.col) in positions:
                call.in_return = True
            if call.name.split(".")[-1] == "read_frame" and call.in_return:
                self.facts.returns_read_frame = True


# ----------------------------------------------------------------------
# class-level extraction
# ----------------------------------------------------------------------

def _thread_target(call: ast.Call) -> str | None:
    """``"_serve"`` for ``Thread(target=self._serve, ...)``."""
    if dotted_name(call.func).split(".")[-1] != "Thread":
        return None
    for kw in call.keywords:
        if kw.arg == "target" and isinstance(kw.value, ast.Attribute) \
                and isinstance(kw.value.value, ast.Name) \
                and kw.value.value.id == "self":
            return kw.value.attr
    return None


def _init_attr_bindings(klass: ast.ClassDef) -> tuple[dict[str, str],
                                                      dict[str, str],
                                                      dict[str, str]]:
    """(lock attrs, lock aliases, instance-typed attrs) from __init__."""
    lock_attrs: dict[str, str] = {}
    lock_aliases: dict[str, str] = {}
    attr_types: dict[str, str] = {}
    init = next((node for node in klass.body
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                 and node.name == "__init__"), None)
    if init is None:
        return lock_attrs, lock_aliases, attr_types
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign) \
                or not isinstance(node.value, ast.Call):
            continue
        ctor = dotted_name(node.value.func)
        ctor_name = ctor.split(".")[-1]
        for target in node.targets:
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if ctor_name in LOCK_TYPES:
                lock_attrs[target.attr] = ctor_name
                # Condition(self._lock) shares the wrapped lock.
                if node.value.args:
                    wrapped = node.value.args[0]
                    if isinstance(wrapped, ast.Attribute) \
                            and isinstance(wrapped.value, ast.Name) \
                            and wrapped.value.id == "self":
                        lock_aliases[target.attr] = wrapped.attr
            elif ctor_name[:1].isupper():
                attr_types[target.attr] = ctor
    return lock_attrs, lock_aliases, attr_types


class _AttributeWriteCollector(ast.NodeVisitor):
    """Self-attribute stores in one method, with held-lock tracking.

    The collector that CONC301 and the class-level CONC303 facts
    share. Unlike its PR 8 ancestor it keeps a *stack* of held locks
    (so nested ``with`` exits restore the right state), understands
    ``async with``, and recognizes locks by their ``__init__``
    construction type (``RLock``, ``Condition``, semaphores) rather
    than only by "lock" appearing in the attribute name.
    """

    def __init__(self, lock_names: set[str]) -> None:
        self._lock_names = lock_names
        self._held: list[str] = []
        self.writes: list[tuple[str, ast.AST, bool]] = []

    def _lock_name(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self":
            attr = expr.attr
            if attr in self._lock_names or "lock" in attr.lower():
                return attr
        return None

    def _record(self, target: ast.expr, node: ast.AST) -> None:
        # self.x = ... and self.x[...] = ... both mutate shared state.
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            self.writes.append((target.attr, node, bool(self._held)))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target, node)
        self.generic_visit(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired = []
        for item in node.items:
            self.visit(item.context_expr)
            lock = self._lock_name(item.context_expr)
            if lock is not None:
                self._held.append(lock)
                acquired.append(lock)
        for statement in node.body:
            self.visit(statement)
        for _ in acquired:
            self._held.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # Nested defs are their own scope.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def method_attribute_writes(
    method: ast.FunctionDef | ast.AsyncFunctionDef,
    lock_names: set[str] = frozenset(),
) -> list[tuple[str, ast.AST, bool]]:
    """(attr, node, under-lock) for every self-attribute store."""
    collector = _AttributeWriteCollector(set(lock_names))
    for statement in method.body:
        collector.visit(statement)
    return collector.writes


def class_lock_names(klass: ast.ClassDef) -> set[str]:
    """Lock-like attrs: typed in __init__ plus name-matched ones."""
    lock_attrs, _, _ = _init_attr_bindings(klass)
    return set(lock_attrs)


def thread_target_names(klass: ast.ClassDef) -> set[str]:
    """Methods handed to ``Thread(target=self.X)`` anywhere in a class."""
    return {target for node in ast.walk(klass)
            if isinstance(node, ast.Call)
            for target in [_thread_target(node)]
            if target is not None}


def _extract_class(ctx: ModuleContext, klass: ast.ClassDef) -> ClassFacts:
    lock_attrs, lock_aliases, attr_types = _init_attr_bindings(klass)
    methods = [node for node in klass.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    targets = []
    for node in ast.walk(klass):
        if isinstance(node, ast.Call):
            target = _thread_target(node)
            if target is not None and target not in targets:
                targets.append(target)
    writes: list[AttributeWrite] = []
    for method in methods:
        if method.name == "__init__":
            continue  # construction precedes concurrency
        for attr, node, locked in method_attribute_writes(
                method, set(lock_attrs)):
            lineno = getattr(node, "lineno", method.lineno)
            writes.append(AttributeWrite(
                attr=attr, method=method.name, line=lineno,
                col=getattr(node, "col_offset", 0),
                context=ctx.line_text(lineno), locked=locked))
    return ClassFacts(
        name=klass.name, lineno=klass.lineno,
        methods=[m.name for m in methods],
        thread_targets=targets,
        lock_attrs=lock_attrs, lock_aliases=lock_aliases,
        attr_types=attr_types, writes=writes)


# ----------------------------------------------------------------------
# module-level extraction
# ----------------------------------------------------------------------

def _frame_key_writes(ctx: ModuleContext) -> tuple[dict[str, list[dict]],
                                                   bool]:
    """Constant keys of frame dict literals (dicts with a "type" key),
    plus ``frame["k"] = ...`` stores on names bound to one."""
    written: dict[str, list[dict]] = {}
    dynamic = False
    frame_bound: set[str] = set()

    def record(key: str, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 1)
        written.setdefault(key, []).append(
            {"line": lineno, "col": getattr(node, "col_offset", 0),
             "context": ctx.line_text(lineno)})

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Dict):
            keys = [_const_str(k) if k is not None else None
                    for k in node.keys]
            if "type" not in keys:
                continue
            if any(k is None for k in keys):
                dynamic = True  # ** expansion or computed key
            for key, key_node in zip(keys, node.keys):
                if key is not None:
                    record(key, key_node or node)
        elif isinstance(node, ast.Call):
            # dict(message, extra=1) in a frame-speaking module: the
            # keywords extend an existing frame.
            if dotted_name(node.func) == "dict" and node.args:
                for kw in node.keywords:
                    if kw.arg is not None:
                        record(kw.arg, node)
                    else:
                        dynamic = True
    # frame["k"] = v on names assigned a "type" dict literal.
    for scope in ast.walk(ctx.tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                if (isinstance(node.value, ast.Dict)
                        and any(_const_str(k) == "type"
                                for k in node.value.keys if k is not None)):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            frame_bound.add(target.id)
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in frame_bound):
                        key = _const_str(target.slice)
                        if key is not None:
                            record(key, target)
                        else:
                            dynamic = True
    return written, dynamic


def extract_facts(ctx: ModuleContext) -> ModuleFacts:
    """Distill one parsed module into its AST-free fact record."""
    module_imports: dict[str, str] = {}
    from_imports: dict[str, list] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module_imports[alias.asname or alias.name.split(".")[0]] \
                    = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            prefix = "." * node.level
            for alias in node.names:
                from_imports[alias.asname or alias.name] = [
                    prefix + node.module, alias.name]

    referenced = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    has_write_frame = "write_frame" in referenced
    has_read_frame = "read_frame" in referenced
    references_version = any(name.endswith("_VERSION")
                             for name in referenced)

    functions: dict[str, FunctionFacts] = {}
    classes: dict[str, ClassFacts] = {}

    def walk_functions(body, prefix: str, lock_names: set[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                functions[qualname] = _FunctionVisitor(
                    ctx, qualname, node, lock_names).run()
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = _extract_class(ctx, node)
                walk_functions(node.body, f"{node.name}.",
                               set(classes[node.name].lock_attrs))

    walk_functions(ctx.tree.body, "", set())

    frame_keys_written: dict[str, list[dict]] = {}
    frame_keys_dynamic = False
    if has_write_frame or has_read_frame:
        frame_keys_written, frame_keys_dynamic = _frame_key_writes(ctx)

    return ModuleFacts(
        relpath=ctx.relpath,
        dotted=_dotted_module(ctx.relpath),
        module_imports=module_imports,
        from_imports=from_imports,
        functions=functions,
        classes=classes,
        has_write_frame=has_write_frame,
        has_read_frame=has_read_frame,
        references_version=references_version,
        frame_keys_written=frame_keys_written,
        frame_keys_dynamic=frame_keys_dynamic,
    )
