"""Project-wide call graph for the flow-aware lint passes.

The per-file rules (R001-R005) can check anything visible in one
module; what the parallel DCI-decode stage may do cannot be seen that
way — it depends on everything the stage *transitively calls* across
the package.  This module builds the call graph those passes
(:mod:`repro.lint.effects`, rule R007) walk.

Resolution is deliberately static and conservative.  A call edge is
recorded only when the callee can be pinned to a function definition in
the scanned tree:

* plain names: module-level functions, names imported with
  ``from repro.x import f`` and ``repro.x`` module aliases;
* constructors: ``ClassName(...)`` resolves to ``ClassName.__init__``;
* ``self.method()`` inside a class (including single-name local bases);
* attribute calls through *known types*: a receiver whose type is pinned
  by a parameter annotation (``decoder: GridDciDecoder``), a class
  attribute annotation or ``self.x = ClassName(...)`` assignment, a
  ``dict[K, V]`` subscript, or a one-hop local assignment chain
  (``ue = tracked[rnti]; ue.search_space.candidate_cces(...)``).

Anything else (builtins, numpy, callables passed as values) becomes an
*opaque* call: recorded for the effect report's coverage number, never
guessed at.  Nested functions and lambdas are folded into their
enclosing definition — a closure's effects belong to whoever builds it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Subscripted annotation heads whose value slot names the element type.
_MAP_HEADS = {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict",
              "OrderedDict", "Counter"}
_SEQ_HEADS = {"list", "List", "tuple", "Tuple", "set", "Set", "frozenset",
              "Sequence", "Iterable", "Iterator", "FrozenSet"}


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_rel(dotted: str) -> str | None:
    """Map a ``repro.core.runtime`` import to its package-relative path."""
    parts = dotted.split(".")
    if parts and parts[0] == "repro":
        parts = parts[1:]
    if not parts:
        return None
    return "/".join(parts) + ".py"


@dataclass(frozen=True)
class TypeRef:
    """A statically known receiver type.

    ``kind`` is ``"class"`` for a plain instance, ``"map"`` when the
    value is a mapping whose *values* have the named class (so a
    subscript read yields a ``"class"`` ref), ``"seq"`` likewise for
    sequence elements.
    """

    kind: str
    name: str


def annotation_ref(node: ast.AST | None) -> TypeRef | None:
    """Extract a :class:`TypeRef` from an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return annotation_ref(parsed)
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = dotted_name(node)
        if name is None or name in ("None", "object"):
            return None
        return TypeRef("class", name)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_ref(node.left)
        if left is not None:
            return left
        return annotation_ref(node.right)
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        if head is None:
            return None
        leaf = head.split(".")[-1]
        if leaf == "Optional":
            return annotation_ref(node.slice)
        slice_node = node.slice
        elements = slice_node.elts if isinstance(slice_node, ast.Tuple) \
            else [slice_node]
        if leaf in _MAP_HEADS and len(elements) == 2:
            value = annotation_ref(elements[1])
            if value is not None and value.kind == "class":
                return TypeRef("map", value.name)
            return None
        if leaf in _SEQ_HEADS and elements:
            element = annotation_ref(elements[0])
            if element is not None and element.kind == "class":
                return TypeRef("seq", element.name)
            return None
    return None


@dataclass
class FunctionNode:
    """One analyzed function or method."""

    qualname: str                   #: ``rel::Class.method`` / ``rel::fn``
    rel: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    decorators: tuple[str, ...] = ()


@dataclass
class ClassInfo:
    """Per-class method table and statically known attribute types."""

    name: str
    rel: str
    node: ast.ClassDef
    methods: dict[str, FunctionNode] = field(default_factory=dict)
    attr_types: dict[str, TypeRef] = field(default_factory=dict)
    bases: tuple[str, ...] = ()


@dataclass
class ModuleInfo:
    """One parsed module of the scanned tree."""

    rel: str
    path: str
    tree: ast.Module
    #: local name -> ("module", target rel, "") or
    #: ("symbol", target rel, remote name)
    imports: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionNode] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """One resolved caller -> callee edge, anchored at the call site."""

    caller: str
    callee: str
    lineno: int


@dataclass(frozen=True)
class OpaqueCall:
    """A call whose target could not be pinned to a scanned definition."""

    caller: str
    name: str
    lineno: int


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) \
        -> tuple[str, ...]:
    names = []
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name is not None:
            names.append(name)
    return tuple(names)


def _collect_imports(tree: ast.Module) -> dict[str, tuple[str, str, str]]:
    imports: dict[str, tuple[str, str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                rel = module_rel(alias.name)
                if rel is not None:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.asname is None and "." in alias.name:
                        # ``import repro.core.runtime`` binds ``repro``;
                        # calls spell the full dotted path, handled by
                        # the resolver's dotted-module fallback.
                        continue
                    imports[local] = ("module", rel, "")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module is not None:
            rel = module_rel(node.module)
            if rel is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = \
                    ("symbol", rel, alias.name)
    return imports


class CallGraph:
    """The resolved call graph of one scanned tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionNode] = {}
        self.edges: dict[str, list[CallEdge]] = {}
        self.opaque: dict[str, list[OpaqueCall]] = {}

    # ------------------------------------------------------------ build
    @classmethod
    def build(cls, modules: list[tuple[str, str, ast.Module]]) \
            -> "CallGraph":
        """Build the graph from ``(path, rel, tree)`` parsed modules."""
        graph = cls()
        for path, rel, tree in modules:
            graph._index_module(path, rel, tree)
        for module in graph.modules.values():
            graph._infer_attr_types(module)
        for module in graph.modules.values():
            for function in module.functions.values():
                graph._resolve_calls(module, function)
            for klass in module.classes.values():
                for method in klass.methods.values():
                    graph._resolve_calls(module, method, klass)
        return graph

    def _index_module(self, path: str, rel: str, tree: ast.Module) -> None:
        module = ModuleInfo(rel=rel, path=path, tree=tree,
                            imports=_collect_imports(tree))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = FunctionNode(
                    qualname=f"{rel}::{stmt.name}", rel=rel,
                    name=stmt.name, cls=None, node=stmt,
                    decorators=_decorator_names(stmt))
                module.functions[stmt.name] = node
                self.functions[node.qualname] = node
            elif isinstance(stmt, ast.ClassDef):
                klass = ClassInfo(
                    name=stmt.name, rel=rel, node=stmt,
                    bases=tuple(n for n in
                                (dotted_name(b) for b in stmt.bases)
                                if n is not None))
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        method = FunctionNode(
                            qualname=f"{rel}::{stmt.name}.{item.name}",
                            rel=rel, name=item.name, cls=stmt.name,
                            node=item, decorators=_decorator_names(item))
                        klass.methods[item.name] = method
                        self.functions[method.qualname] = method
                    elif isinstance(item, ast.AnnAssign) and \
                            isinstance(item.target, ast.Name):
                        ref = annotation_ref(item.annotation)
                        if ref is not None:
                            klass.attr_types[item.target.id] = ref
                module.classes[stmt.name] = klass
        self.modules[rel] = module

    def _infer_attr_types(self, module: ModuleInfo) -> None:
        """Fill attribute types from ``self.x = ClassName(...)`` and
        annotated ``self.x: T`` assignments inside method bodies."""
        for klass in module.classes.values():
            for method in klass.methods.values():
                for node in ast.walk(method.node):
                    target: ast.expr | None = None
                    value: ast.expr | None = None
                    if isinstance(node, ast.Assign) and \
                            len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target = node.target
                        ref = annotation_ref(node.annotation)
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == "self" and \
                                ref is not None:
                            klass.attr_types.setdefault(target.attr, ref)
                        continue
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and value is not None):
                        continue
                    if isinstance(value, ast.Call):
                        name = dotted_name(value.func)
                        if name is not None and \
                                self._resolve_class(module, name) \
                                is not None:
                            klass.attr_types.setdefault(
                                target.attr, TypeRef("class", name))

    # --------------------------------------------------------- resolve
    def _resolve_class(self, module: ModuleInfo,
                       name: str) -> ClassInfo | None:
        """A class by (possibly dotted) name as seen from ``module``."""
        parts = name.split(".")
        if len(parts) == 1:
            if name in module.classes:
                return module.classes[name]
            entry = module.imports.get(name)
            if entry is not None and entry[0] == "symbol":
                target = self.modules.get(entry[1])
                if target is not None:
                    return target.classes.get(entry[2])
            return None
        head, leaf = parts[0], parts[-1]
        entry = module.imports.get(head)
        if entry is not None and entry[0] == "module" and len(parts) == 2:
            target = self.modules.get(entry[1])
            if target is not None:
                return target.classes.get(leaf)
        return None

    def _resolve_function(self, module: ModuleInfo,
                          name: str) -> FunctionNode | None:
        """A module-level function by name as seen from ``module``."""
        parts = name.split(".")
        if len(parts) == 1:
            if name in module.functions:
                return module.functions[name]
            entry = module.imports.get(name)
            if entry is not None and entry[0] == "symbol":
                target = self.modules.get(entry[1])
                if target is not None:
                    return target.functions.get(entry[2])
            return None
        head, leaf = parts[0], parts[-1]
        entry = module.imports.get(head)
        if entry is not None and entry[0] == "module" and len(parts) == 2:
            target = self.modules.get(entry[1])
            if target is not None:
                return target.functions.get(leaf)
        if parts[0] == "repro" and len(parts) >= 3:
            rel = module_rel(".".join(parts[:-1]))
            target = self.modules.get(rel) if rel is not None else None
            if target is not None:
                return target.functions.get(leaf)
        return None

    def _class_method(self, module: ModuleInfo, klass: ClassInfo,
                      name: str) -> FunctionNode | None:
        """Look up a method, following single-name local bases one level."""
        if name in klass.methods:
            return klass.methods[name]
        for base_name in klass.bases:
            base = self._resolve_class(module, base_name)
            if base is not None and name in base.methods:
                return base.methods[name]
        return None

    def _build_env(self, module: ModuleInfo,
                   function: FunctionNode,
                   klass: ClassInfo | None) -> dict[str, TypeRef]:
        env: dict[str, TypeRef] = {}
        if klass is not None:
            env["self"] = TypeRef("class", klass.name)
        args = function.node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            ref = annotation_ref(arg.annotation)
            if ref is not None:
                env[arg.arg] = ref
        # One forward pass over assignments: a later use of an earlier
        # binding resolves; anything cyclic simply stays unknown.
        for node in ast.walk(function.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                ref = self._infer_expr(module, node.value, env)
                if ref is not None:
                    env.setdefault(node.targets[0].id, ref)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                ref = annotation_ref(node.annotation)
                if ref is not None:
                    env.setdefault(node.target.id, ref)
        return env

    def _infer_expr(self, module: ModuleInfo, expr: ast.expr,
                    env: dict[str, TypeRef]) -> TypeRef | None:
        """Best-effort type of an expression under ``env``."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name is not None and \
                    self._resolve_class(module, name) is not None:
                return TypeRef("class", name)
            return None
        if isinstance(expr, ast.Attribute):
            base = self._infer_expr(module, expr.value, env)
            if base is not None and base.kind == "class":
                klass = self._resolve_class(module, base.name)
                if klass is not None:
                    return klass.attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            base = self._infer_expr(module, expr.value, env)
            if base is not None and base.kind in ("map", "seq"):
                return TypeRef("class", base.name)
            return None
        return None

    def _resolve_calls(self, module: ModuleInfo, function: FunctionNode,
                       klass: ClassInfo | None = None) -> None:
        env = self._build_env(module, function, klass)
        edges: list[CallEdge] = []
        opaque: list[OpaqueCall] = []
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call_target(module, node, env)
            if callee is not None:
                edges.append(CallEdge(caller=function.qualname,
                                      callee=callee.qualname,
                                      lineno=node.lineno))
            else:
                name = dotted_name(node.func) or \
                    (f"?.{node.func.attr}"
                     if isinstance(node.func, ast.Attribute) else "?")
                opaque.append(OpaqueCall(caller=function.qualname,
                                         name=name, lineno=node.lineno))
        self.edges[function.qualname] = edges
        self.opaque[function.qualname] = opaque

    def _resolve_call_target(self, module: ModuleInfo, call: ast.Call,
                             env: dict[str, TypeRef]) \
            -> FunctionNode | None:
        func = call.func
        name = dotted_name(func)
        if name is not None:
            target = self._resolve_function(module, name)
            if target is not None:
                return target
            klass = self._resolve_class(module, name)
            if klass is not None:
                init = self._class_method(module, klass, "__init__")
                if init is not None:
                    return init
                # A class without __init__ is still a resolved,
                # effect-free construction; report it as its class body
                # by falling through to opaque (no function to attach).
                return None
        if isinstance(func, ast.Attribute):
            base = self._infer_expr(module, func.value, env)
            if base is not None and base.kind == "class":
                klass = self._resolve_class(module, base.name)
                if klass is not None:
                    method = self._class_method(module, klass, func.attr)
                    if method is not None:
                        return method
        return None

    # ------------------------------------------------------- queries
    def resolve_callable_expr(self, rel: str, expr: ast.expr,
                              cls: str | None = None) \
            -> FunctionNode | None:
        """Resolve a callable *reference* (not a call) like
        ``self._stage_rach`` or a bare function name, as seen from
        ``rel`` inside class ``cls``."""
        module = self.modules.get(rel)
        if module is None:
            return None
        if isinstance(expr, ast.Name):
            return self._resolve_function(module, expr.id)
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name):
            if expr.value.id == "self" and cls is not None:
                klass = module.classes.get(cls)
                if klass is not None:
                    return self._class_method(module, klass, expr.attr)
            name = dotted_name(expr)
            if name is not None:
                return self._resolve_function(module, name)
        return None

    def callees(self, qualname: str) -> list[CallEdge]:
        """Resolved outgoing edges of one function."""
        return self.edges.get(qualname, [])

    def opaque_calls(self, qualname: str) -> list[OpaqueCall]:
        """Unresolved calls of one function."""
        return self.opaque.get(qualname, [])

    @property
    def n_opaque(self) -> int:
        """Total unresolved call sites (the coverage honesty number)."""
        return sum(len(calls) for calls in self.opaque.values())
