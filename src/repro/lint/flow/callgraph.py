"""Project call graph with pool-boundary and scheduler-frame edges.

Edges are built per function by resolving call targets against the
:class:`~repro.lint.flow.modules.ProjectIndex`:

* plain ``call`` edges -- direct calls to project functions, methods
  resolved through ``self``, one-level local type inference
  (``x = ClassName(...)`` then ``x.method()``) and class attribute
  types (``self.engine.run()``);
* ``pool`` edges -- the worker-entry indirection of
  ``parallel_map(fn, items)`` / ``metered_parallel_map(fn, items)``:
  ``fn`` runs in a *different process*, so everything reachable from it
  is the campaign's per-worker surface (DRA501/DRA502);
* ``sched`` edges -- callables handed to ``Engine.schedule`` /
  ``schedule_in`` / ``schedule_run``: those frames execute inside the
  deterministic event loop, the hot path DRA505 polices.

Resolution is deliberately conservative: an unresolvable target simply
produces no edge, so every reported reachability fact is backed by an
explicit chain of source-level references.  The graph is deterministic
-- functions are visited in sorted-module order and every export is
sorted -- so the ``--graph-out`` JSON is byte-identical for any
``--jobs`` value.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.flow.modules import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    _dotted,
)

__all__ = ["CallGraph", "CallSite", "PoolSite", "GRAPH_SCHEMA_VERSION", "build_callgraph"]

#: Version stamp of the ``--graph-out`` JSON document.
GRAPH_SCHEMA_VERSION = 1

#: Names whose first positional argument is a worker entry point.
_POOL_FUNCS = frozenset({"parallel_map", "metered_parallel_map"})

#: Engine scheduling methods whose second positional argument is the
#: callable that will fire inside the event loop.
_SCHED_FUNCS = frozenset({"schedule", "schedule_in", "schedule_run"})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at ``node``."""

    caller: str
    callee: str
    kind: str  #: ``call`` | ``pool`` | ``sched``
    node: ast.Call
    lineno: int


@dataclass
class PoolSite:
    """One ``parallel_map``-family call (for closure/provenance rules)."""

    caller: FunctionInfo
    node: ast.Call
    fn_expr: ast.expr  #: the worker argument as written


@dataclass
class CallGraph:
    """All edges plus the site lists the DRA5xx rules inspect."""

    index: ProjectIndex
    #: caller qname -> {(callee qname, kind)}
    edges: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    sites: list[CallSite] = field(default_factory=list)
    pool_sites: list[PoolSite] = field(default_factory=list)
    worker_entries: set[str] = field(default_factory=set)
    scheduled_entries: set[str] = field(default_factory=set)

    def callees(self, qname: str) -> list[tuple[str, str]]:
        return sorted(self.edges.get(qname, ()))

    def sites_calling(self, qname: str) -> list[CallSite]:
        """Every recorded call site whose resolved target is ``qname``."""
        return [s for s in self.sites if s.callee == qname]

    def reachable_from(self, seeds: set[str]) -> dict[str, str]:
        """Function qname -> the seed that first reaches it (BFS).

        Seeds map to themselves; iteration order is sorted so the
        attribution is deterministic.
        """
        reach: dict[str, str] = {}
        frontier = sorted(s for s in seeds if s in self.index.functions)
        for seed in frontier:
            reach.setdefault(seed, seed)
        while frontier:
            nxt: list[str] = []
            for qname in frontier:
                for callee, _kind in self.callees(qname):
                    if callee not in reach:
                        reach[callee] = reach[qname]
                        nxt.append(callee)
            frontier = sorted(nxt)
        return reach

    def to_payload(self) -> dict:
        """The schema-versioned ``--graph-out`` JSON document."""
        functions = []
        for qname in sorted(self.index.functions):
            fi = self.index.functions[qname]
            functions.append(
                {
                    "name": qname,
                    "path": fi.path,
                    "line": fi.lineno,
                    "calls": [
                        {"to": callee, "kind": kind}
                        for callee, kind in self.callees(qname)
                    ],
                }
            )
        return {
            "schema": "repro-callgraph",
            "v": GRAPH_SCHEMA_VERSION,
            "modules": sorted(self.index.modules),
            "functions": functions,
            "worker_entries": sorted(self.worker_entries),
            "scheduled_entries": sorted(self.scheduled_entries),
        }


def local_types(
    index: ProjectIndex, mod: ModuleInfo, fi: FunctionInfo
) -> dict[str, str]:
    """Local variable name -> class qname, from ``x = ClassName(...)``."""
    env: dict[str, str] = {}
    if fi.class_qname is not None:
        env["self"] = fi.class_qname
    for node in ast.walk(fi.node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        ci = _call_class(index, mod, node.value)
        if ci is not None:
            env[target.id] = ci.qname
    return env


def _call_class(
    index: ProjectIndex, mod: ModuleInfo, value: ast.expr
) -> ClassInfo | None:
    """The project class ``value`` constructs, if it is ``ClassName(...)``."""
    if not isinstance(value, ast.Call):
        return None
    return index.resolve_class(mod, value.func)


def expr_type(
    index: ProjectIndex,
    mod: ModuleInfo,
    env: dict[str, str],
    expr: ast.expr,
) -> ClassInfo | None:
    """Static type of ``expr`` (project classes only), or None."""
    if isinstance(expr, ast.Name):
        qname = env.get(expr.id)
        return index.classes.get(qname) if qname else None
    if isinstance(expr, ast.Attribute):
        base = expr_type(index, mod, env, expr.value)
        if base is not None:
            attr_q = _attr_type(index, base, expr.attr)
            return index.classes.get(attr_q) if attr_q else None
        return None
    if isinstance(expr, ast.Call):
        return _call_class(index, mod, expr)
    return None


def _attr_type(index: ProjectIndex, ci: ClassInfo, attr: str) -> str | None:
    """``attr``'s class qname along the project base chain."""
    seen: set[str] = set()
    stack = [ci]
    while stack:
        cur = stack.pop(0)
        if cur.qname in seen:
            continue
        seen.add(cur.qname)
        if attr in cur.attr_types:
            return cur.attr_types[attr]
        stack.extend(index.classes[b] for b in cur.bases if b in index.classes)
    return None


def resolve_call(
    index: ProjectIndex,
    mod: ModuleInfo,
    env: dict[str, str],
    func: ast.expr,
) -> FunctionInfo | None:
    """The project function a call expression targets, if resolvable.

    Calls to a project *class* resolve to its ``__init__`` (constructor
    bodies run too); unresolvable targets return ``None``.
    """
    dotted = _dotted(func)
    if dotted is not None:
        target = index.resolve(mod, dotted)
        if isinstance(target, FunctionInfo):
            return target
        if isinstance(target, ClassInfo):
            return index.lookup_method(target, "__init__")
    # typed-receiver method call: <expr>.method()
    if isinstance(func, ast.Attribute):
        base = expr_type(index, mod, env, func.value)
        if base is not None:
            return index.lookup_method(base, func.attr)
    return None


def _resolve_callable_ref(
    index: ProjectIndex,
    mod: ModuleInfo,
    env: dict[str, str],
    expr: ast.expr,
) -> FunctionInfo | None:
    """A *reference* (not call) to a project function/method, if any."""
    if isinstance(expr, ast.Call):
        # functools.partial(fn, ...) and friends: unwrap the first arg
        dotted = _dotted(expr.func)
        if dotted is not None and dotted[-1] == "partial" and expr.args:
            return _resolve_callable_ref(index, mod, env, expr.args[0])
        return None
    dotted = _dotted(expr)
    if dotted is not None:
        target = index.resolve(mod, dotted)
        if isinstance(target, FunctionInfo):
            return target
    if isinstance(expr, ast.Attribute):
        base = expr_type(index, mod, env, expr.value)
        if base is not None:
            return index.lookup_method(base, expr.attr)
    return None


def _is_pool_call(node: ast.Call) -> bool:
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else (
        fn.attr if isinstance(fn, ast.Attribute) else None
    )
    return name in _POOL_FUNCS


def _sched_action(node: ast.Call) -> ast.expr | None:
    """The action argument of an Engine scheduling call, if this is one."""
    fn = node.func
    if not (isinstance(fn, ast.Attribute) and fn.attr in _SCHED_FUNCS):
        return None
    if len(node.args) >= 2:
        return node.args[1]
    for kw in node.keywords:
        if kw.arg in ("action", "step"):
            return kw.value
    return None


def build_callgraph(index: ProjectIndex) -> CallGraph:
    """Build every edge of the project call graph."""
    graph = CallGraph(index=index)
    for mod in index.modules.values():
        for fi in _module_functions(index, mod):
            _visit_function(graph, index, index.module_of(fi), fi)
    return graph


def _module_functions(index: ProjectIndex, mod: ModuleInfo) -> list[FunctionInfo]:
    out = list(mod.functions.values())
    for ci in mod.classes.values():
        out.extend(ci.methods.values())
    # nested defs belong to their enclosing function's body walk; they
    # are not graph nodes of their own.
    return out


def _add_edge(
    graph: CallGraph, caller: FunctionInfo, callee: FunctionInfo, kind: str,
    node: ast.Call, lineno: int,
) -> None:
    graph.edges.setdefault(caller.qname, set()).add((callee.qname, kind))
    graph.sites.append(
        CallSite(
            caller=caller.qname, callee=callee.qname, kind=kind,
            node=node, lineno=lineno,
        )
    )


def _visit_function(
    graph: CallGraph, index: ProjectIndex, mod: ModuleInfo, fi: FunctionInfo
) -> None:
    env = local_types(index, mod, fi)
    for node in ast.walk(fi.node):
        if not isinstance(node, ast.Call):
            continue
        # pool boundary: parallel_map(fn, items)
        if _is_pool_call(node) and node.args:
            fn_expr = node.args[0]
            graph.pool_sites.append(
                PoolSite(caller=fi, node=node, fn_expr=fn_expr)
            )
            worker = _resolve_callable_ref(index, mod, env, fn_expr)
            if worker is not None:
                graph.worker_entries.add(worker.qname)
                _add_edge(graph, fi, worker, "pool", node, node.lineno)
        # scheduler frame: engine.schedule(t, action, ...)
        action = _sched_action(node)
        if action is not None:
            for target in _action_targets(index, mod, env, fi, action):
                graph.scheduled_entries.add(target.qname)
                _add_edge(graph, fi, target, "sched", node, node.lineno)
        # plain call edge
        callee = resolve_call(index, mod, env, node.func)
        if callee is not None:
            _add_edge(graph, fi, callee, "call", node, node.lineno)


def _action_targets(
    index: ProjectIndex,
    mod: ModuleInfo,
    env: dict[str, str],
    fi: FunctionInfo,
    action: ast.expr,
) -> list[FunctionInfo]:
    """Functions a scheduling call's action argument will invoke.

    A lambda, or a bare name bound by a ``def`` nested in ``fi``, is not
    a graph node of its own: the project functions its body calls become
    the scheduled entries instead.
    """
    bodies: list[ast.AST] = []
    if isinstance(action, ast.Name):
        bodies = [
            node for node in ast.walk(fi.node)
            if isinstance(node, _FUNC_NODES) and node is not fi.node
            and node.name == action.id
        ]
    elif isinstance(action, ast.Lambda):
        bodies = [action.body]
    if not bodies:
        direct = _resolve_callable_ref(index, mod, env, action)
        return [direct] if direct is not None else []
    out: list[FunctionInfo] = []
    for body in bodies:
        for sub in ast.walk(body):
            if isinstance(sub, ast.Call):
                callee = resolve_call(index, mod, env, sub.func)
                if callee is not None:
                    out.append(callee)
    return out
