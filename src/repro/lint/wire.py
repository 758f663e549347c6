"""Wire-payload escape analysis for the process-executor boundary.

A ``ProcessExecutor`` run pickles a ``(job, payload)`` pair per slot
(built by a stage's ``pack=`` callable) into a worker and pickles the
job's return value back.  That boundary has contracts nothing at
runtime checks:

* the payload must not capture **mutable shared state** — the live
  tracked-UE table, a stateful ``numpy.random.Generator``, an
  ``ObsContext``/reporter, an open file.  Pickling them "works" (or
  crashes late, in the worker) but silently forks state the backbone
  keeps mutating: the decode becomes a race against the snapshot
  instant instead of the slot-ordered value the inline path computes;
* it must not capture **unpicklable values** (lambdas, generators,
  locks, threads) — a spawn-context crash that only reproduces under
  ``--executor process:N``, never inline.

This module finds the boundary statically from the PR 3 call graph:
every ``Stage(..., pack=...)`` site names a *pack root*; each pack
root's ``return job, payload`` names a *job root*; the payload's
fields (dict keys, or the bare expression) and each job root's return
tuple elements are then classified by a conservative escape walk —
name patterns (``tracked``/``rng``/``obs`` segments), statically
inferred receiver types against a per-class unsafety table (classes
whose ``__init__`` builds locks, threads, RNGs or open files), and
syntactic unpicklables.  Projections through ``pack_*`` helpers and
pure builtins (``frozenset``, ``tuple``, ``sorted``, ...) are the
sanctioned way to narrow shared state onto the wire, so their direct
arguments are exempt from the tracked-table pattern (a ``pack_*``
helper exists precisely to snapshot it) while still being checked for
RNG/obs capture.  Rule R009 turns the escapes into findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.astutil import dotted_name
from repro.lint.callgraph import CallGraph, FunctionNode, TypeRef

#: Constructor leaves that make a class wire-unsafe when assigned to an
#: attribute in ``__init__`` (or any method): pickling an instance
#: either fails (locks, threads) or forks state (RNGs, files).
_UNSAFE_CTORS: dict[str, str] = {
    "Lock": "lock", "RLock": "lock", "Condition": "lock",
    "Event": "lock", "Semaphore": "lock", "BoundedSemaphore": "lock",
    "Barrier": "lock", "Thread": "thread", "Queue": "queue",
    "SimpleQueue": "queue", "LifoQueue": "queue",
    "default_rng": "rng", "Generator": "rng", "RandomState": "rng",
    "open": "file",
}

#: Call leaves whose result is an immutable scalar: nothing of the
#: argument crosses the wire, whatever it was.
_SCALAR_COERCIONS = frozenset((
    "len", "min", "max", "sum", "bool", "int", "float", "str",
    "bytes", "repr", "abs", "round",
))

#: Call leaves sanctioned to project shared state onto the wire: the
#: ``pack_*`` convention plus shallow-copying builtins.  Their direct
#: arguments are exempt from the tracked-table pattern (projecting it
#: is the point) but still checked for RNG/obs capture — a
#: ``tuple(reporters)`` still ships the reporters.
_CONTAINER_PROJECTIONS = frozenset((
    "frozenset", "tuple", "sorted", "list", "dict", "set",
))

#: Mapping accessors whose result aliases the receiver's contents, so
#: the receiver effectively crosses with the result
#: (``tracked.values()`` ships every live TrackedUe).
_ALIASING_METHODS = frozenset(("values", "items", "keys", "get",
                               "copy"))

#: Syntactically unpicklable expression forms.
_UNPICKLABLE_NODES = (ast.Lambda, ast.GeneratorExp)

_MAX_DEPTH = 8


@dataclass(frozen=True)
class WireEscape:
    """One contract violation found in a wire-crossing expression."""

    reason: str     #: ``tracked`` | ``rng`` | ``obs`` | ``unpicklable``
                    #: | ``file`` | ``unsafe-instance``
    detail: str
    lineno: int
    col: int


@dataclass
class PayloadField:
    """One field of a payload dict / job-result tuple."""

    key: str
    lineno: int
    escapes: list[WireEscape] = field(default_factory=list)


@dataclass
class WireRoot:
    """A function whose inputs or outputs cross the pickle boundary."""

    qualname: str
    rel: str
    lineno: int
    role: str       #: ``pack`` (builds payloads) | ``job`` (returns
                    #: results)
    fields: list[PayloadField] = field(default_factory=list)

    @property
    def escapes(self) -> list[WireEscape]:
        return [e for f in self.fields for e in f.escapes]


def _attr_chain(expr: ast.expr) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty for anything else."""
    name = dotted_name(expr)
    return name.split(".") if name is not None else []


def _segment_escape(segment: str, node: ast.AST,
                    suppress_tracked: bool) -> WireEscape | None:
    """Name-pattern classification of one receiver/attribute segment."""
    lowered = segment.lower()
    lineno = getattr(node, "lineno", 0)
    col = getattr(node, "col_offset", 0)
    if not suppress_tracked and (lowered == "tracked"
                                 or lowered.endswith("tracked")):
        return WireEscape(
            reason="tracked", lineno=lineno, col=col,
            detail=f"'{segment}' ships the live tracked-UE table; "
                   f"project it first (pack_tracked_for_decode, "
                   f"frozenset(tracked), ...) so the worker cannot "
                   f"race the backbone's mutations")
    if "rng" in lowered:
        return WireEscape(
            reason="rng", lineno=lineno, col=col,
            detail=f"'{segment}' ships RNG state across the process "
                   f"boundary — the worker's draws fork from the "
                   f"backbone's stream; ship the seed/counter key "
                   f"instead")
    if "obs" in lowered or lowered == "reporter" \
            or lowered.endswith("reporters"):
        return WireEscape(
            reason="obs", lineno=lineno, col=col,
            detail=f"'{segment}' ships an observability handle; "
                   f"events must ride the job result (collect flags) "
                   f"and replay at commit, not emit from the worker")
    return None


class WireAnalysis:
    """Escape analysis of every pickle-crossing payload in a scan."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: class name -> (reason, attr) explaining why instances of the
        #: class must not cross the wire.
        self.unsafe_classes: dict[str, tuple[str, str]] = {}
        self.roots: list[WireRoot] = []
        self._build_unsafe_classes()
        self._find_roots()

    # ------------------------------------------------- unsafety table
    def _build_unsafe_classes(self) -> None:
        for module in self.graph.modules.values():
            for klass in module.classes.values():
                for method in klass.methods.values():
                    for node in ast.walk(method.node):
                        if not (isinstance(node, ast.Assign)
                                and len(node.targets) == 1):
                            continue
                        target = node.targets[0]
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and isinstance(node.value, ast.Call)):
                            continue
                        leaf_name = dotted_name(node.value.func)
                        if leaf_name is None:
                            continue
                        reason = _UNSAFE_CTORS.get(
                            leaf_name.split(".")[-1])
                        if reason is not None:
                            self.unsafe_classes.setdefault(
                                klass.name, (reason, target.attr))

    # -------------------------------------------------------- roots
    def _find_roots(self) -> None:
        """Pack roots from ``Stage(..., pack=...)`` sites; job roots
        from each pack root's ``return job, payload``."""
        pack_fns: dict[str, FunctionNode] = {}
        for module in self.graph.modules.values():
            contexts: list[tuple[str | None, ast.AST]] = \
                [(None, module.tree)]
            contexts += [(k.name, k.node)
                         for k in module.classes.values()]
            for klass_name, tree in contexts:
                for node in ast.walk(tree):
                    if not isinstance(node, ast.Call):
                        continue
                    name = dotted_name(node.func)
                    if name is None or name.split(".")[-1] != "Stage":
                        continue
                    for kw in node.keywords:
                        if kw.arg != "pack":
                            continue
                        target = self.graph.resolve_callable_expr(
                            module.rel, kw.value, cls=klass_name)
                        if target is not None:
                            pack_fns.setdefault(target.qualname, target)
        job_fns: dict[str, FunctionNode] = {}
        for pack in sorted(pack_fns.values(), key=lambda f: f.qualname):
            root, jobs = self._analyze_pack(pack)
            self.roots.append(root)
            for job in jobs:
                job_fns.setdefault(job.qualname, job)
        for job in sorted(job_fns.values(), key=lambda f: f.qualname):
            self.roots.append(self._analyze_job(job))

    def _function_assigns(self, function: FunctionNode) \
            -> dict[str, ast.expr]:
        """First-wins map of simple local assignments, for chasing
        ``payload = {...}; return job, payload`` indirection."""
        assigns: dict[str, ast.expr] = {}
        for node in ast.walk(function.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                assigns.setdefault(node.targets[0].id, node.value)
        return assigns

    def _analyze_pack(self, function: FunctionNode) \
            -> tuple[WireRoot, list[FunctionNode]]:
        root = WireRoot(qualname=function.qualname, rel=function.rel,
                        lineno=function.node.lineno, role="pack")
        env = self.graph.type_env(function)
        assigns = self._function_assigns(function)
        jobs: list[FunctionNode] = []
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value: ast.expr = node.value
            if isinstance(value, ast.Name) and value.id in assigns:
                value = assigns[value.id]
            if isinstance(value, ast.Tuple) and len(value.elts) == 2:
                job_expr, payload = value.elts
                job = self.graph.resolve_callable_expr(
                    function.rel, job_expr, cls=function.cls)
                if job is not None:
                    jobs.append(job)
                self._classify_payload(root, function, payload,
                                       env, assigns)
            else:
                self._classify_payload(root, function, value,
                                       env, assigns)
        return root, jobs

    def _analyze_job(self, function: FunctionNode) -> WireRoot:
        root = WireRoot(qualname=function.qualname, rel=function.rel,
                        lineno=function.node.lineno, role="job")
        env = self.graph.type_env(function)
        assigns = self._function_assigns(function)
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Tuple):
                for i, element in enumerate(value.elts):
                    fld = PayloadField(key=f"result[{i}]",
                                       lineno=element.lineno)
                    self._classify(element, function, env, assigns,
                                   fld.escapes, False, 0, set())
                    root.fields.append(fld)
            else:
                fld = PayloadField(key="result", lineno=value.lineno)
                self._classify(value, function, env, assigns,
                               fld.escapes, False, 0, set())
                root.fields.append(fld)
        return root

    def _classify_payload(self, root: WireRoot, function: FunctionNode,
                          payload: ast.expr, env: dict[str, TypeRef],
                          assigns: dict[str, ast.expr]) -> None:
        if isinstance(payload, ast.Name) and payload.id in assigns:
            payload = assigns[payload.id]
        if isinstance(payload, ast.Dict):
            for key_node, value in zip(payload.keys, payload.values):
                key = key_node.value \
                    if isinstance(key_node, ast.Constant) \
                    and isinstance(key_node.value, str) \
                    else "<dynamic>"
                fld = PayloadField(key=key, lineno=value.lineno)
                self._classify(value, function, env, assigns,
                               fld.escapes, False, 0, set())
                root.fields.append(fld)
            return
        fld = PayloadField(key="<payload>",
                           lineno=getattr(payload, "lineno",
                                          function.node.lineno))
        self._classify(payload, function, env, assigns,
                       fld.escapes, False, 0, set())
        root.fields.append(fld)

    # -------------------------------------------------- classification
    def _classify(self, expr: ast.expr, function: FunctionNode,
                  env: dict[str, TypeRef],
                  assigns: dict[str, ast.expr],
                  out: list[WireEscape], suppress_tracked: bool,
                  depth: int, visited: set[int]) -> None:
        """Append every escape found under ``expr`` to ``out``."""
        if depth > _MAX_DEPTH or id(expr) in visited:
            return
        visited.add(id(expr))
        if isinstance(expr, _UNPICKLABLE_NODES):
            kind = "lambda" if isinstance(expr, ast.Lambda) \
                else "generator expression"
            out.append(WireEscape(
                reason="unpicklable", lineno=expr.lineno,
                col=expr.col_offset,
                detail=f"a {kind} cannot be pickled into a worker "
                       f"process — ship plain data and rebuild the "
                       f"callable worker-side"))
            return
        if isinstance(expr, ast.Call):
            self._classify_call(expr, function, env, assigns, out,
                                depth, visited)
            return
        if isinstance(expr, (ast.Name, ast.Attribute)):
            chain = _attr_chain(expr)
            if chain:
                escape = _segment_escape(chain[-1], expr,
                                         suppress_tracked)
                if escape is not None:
                    out.append(escape)
                    return
            self._classify_typed(expr, function, env, out)
            if isinstance(expr, ast.Name) and not suppress_tracked:
                # chase ``x = <expr>; ... x``, but not for a value a
                # sanctioned projection is narrowing — its provenance
                # is *expected* to be the shared state.
                target = assigns.get(expr.id)
                if target is not None and not isinstance(
                        target, (ast.Name, ast.Attribute)):
                    self._classify(target, function, env, assigns,
                                   out, False, depth + 1, visited)
            return
        if isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    self._classify(value, function, env, assigns, out,
                                   False, depth + 1, visited)
            return
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                self._classify(element, function, env, assigns, out,
                               False, depth + 1, visited)
            return
        if isinstance(expr, ast.Starred):
            self._classify(expr.value, function, env, assigns, out,
                           suppress_tracked, depth + 1, visited)

    def _classify_call(self, call: ast.Call, function: FunctionNode,
                       env: dict[str, TypeRef],
                       assigns: dict[str, ast.expr],
                       out: list[WireEscape], depth: int,
                       visited: set[int]) -> None:
        name = dotted_name(call.func)
        leaf = name.split(".")[-1] if name is not None else \
            (call.func.attr if isinstance(call.func, ast.Attribute)
             else "?")
        if leaf == "open":
            out.append(WireEscape(
                reason="file", lineno=call.lineno, col=call.col_offset,
                detail="an open file handle cannot cross the process "
                       "boundary — ship the path and open it "
                       "worker-side"))
            return
        if leaf in _SCALAR_COERCIONS:
            return      # the result is an immutable scalar
        if leaf.startswith("pack_") or leaf in _CONTAINER_PROJECTIONS:
            for arg in list(call.args) \
                    + [kw.value for kw in call.keywords]:
                self._classify(arg, function, env, assigns, out,
                               True, depth + 1, visited)
            return
        # Un-sanctioned call: only its *result* crosses the wire, which
        # is opaque here — except that the callee's own name can match
        # an escape pattern (``unwrap_tracked(...)`` hands back the raw
        # table) and aliasing accessors hand back their receiver's
        # contents (``tracked.values()``).
        escape = _segment_escape(leaf, call, suppress_tracked=False)
        if escape is not None:
            out.append(escape)
            return
        if isinstance(call.func, ast.Attribute) \
                and leaf in _ALIASING_METHODS:
            self._classify(call.func.value, function, env, assigns,
                           out, False, depth + 1, visited)

    def _classify_typed(self, expr: ast.expr, function: FunctionNode,
                        env: dict[str, TypeRef],
                        out: list[WireEscape]) -> None:
        """Type-table classification: the expression's statically
        inferred class sits in the unsafety table."""
        ref = self.graph.infer_type(function.rel, expr, env)
        if ref is None:
            return
        entry = self.unsafe_classes.get(ref.name.split(".")[-1])
        if entry is None:
            return
        reason, attr = entry
        what = "instances" if ref.kind == "class" \
            else "a container of instances"
        out.append(WireEscape(
            reason="unsafe-instance", lineno=expr.lineno,
            col=expr.col_offset,
            detail=f"{what} of {ref.name.split('.')[-1]} cannot cross "
                   f"the wire: the class holds a {reason} "
                   f"(self.{attr}); ship plain config and rebuild "
                   f"worker-side"))

    # -------------------------------------------------------- report
    def report(self) -> dict[str, object]:
        """The ``contracts`` JSON payload's wire section."""
        roots: list[dict[str, object]] = []
        for root in self.roots:
            roots.append({
                "root": root.qualname,
                "role": root.role,
                "fields": [{
                    "key": f.key,
                    "line": f.lineno,
                    "escapes": [{
                        "reason": e.reason, "line": e.lineno,
                        "detail": e.detail,
                    } for e in f.escapes],
                } for f in root.fields],
                "clean": not root.escapes,
            })
        return {
            "roots": roots,
            "unsafe_classes": {
                name: {"reason": reason, "attr": attr}
                for name, (reason, attr)
                in sorted(self.unsafe_classes.items())},
            "n_escapes": sum(len(r.escapes) for r in self.roots),
        }
