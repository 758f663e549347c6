"""Transitive effect inference over the project call graph.

Every function in the scanned tree is classified against the effect
lattice the staged :class:`~repro.core.runtime.SlotRuntime` cares
about:

* ``mutates-tracked`` — writes the tracked-UE table or a tracked UE
  (``RachSniffer.discover/miss/release/prune_idle``,
  ``TrackedUe.touch``, or any store through a ``tracked`` attribute);
* ``rng`` — stateful randomness: draws on a ``*rng*`` Generator,
  ``default_rng`` creation, legacy ``np.random.*`` global state,
  stdlib ``random``;
* ``counter-rng`` — the sanctioned exception: counter-keyed draws
  through :func:`repro.core.decode_model.counter_uniform`, pure given
  their key fields and therefore legal in the parallel stage;
* ``io`` — file/socket/process side effects;
* ``clock`` — wall-clock reads.

Direct (seed) effects are detected per function body; the transitive
closure then flows caller-ward over the call graph, carrying a witness
chain per effect, so an effect traces back to its seed as
``grid_decode_job -> decode_slot_batch -> np.random.random()``
rather than as a bare verdict.  Opaque (unresolvable) calls contribute no effects — the
count of them is surfaced in the report so the blind spot is measured,
not hidden.

:class:`Program` bundles the call graph, the effect table and the
detected parallel-stage roots; the engine builds one per scan for the
rules that declare ``needs_program`` and for ``repro.lint effects``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import (
    CallGraph,
    FunctionNode,
    dotted_name,
)

# Effect names (stable strings: they appear in the JSON report).
MUTATES_TRACKED = "mutates-tracked"
RNG = "rng"
COUNTER_RNG = "counter-rng"
IO = "io"
CLOCK = "clock"

ALL_EFFECTS = (MUTATES_TRACKED, RNG, COUNTER_RNG, IO, CLOCK)

#: Draw methods of numpy Generator objects (stateful: each call
#: advances the stream).
RNG_DRAW_METHODS = frozenset({
    "random", "normal", "integers", "uniform", "choice", "shuffle",
    "permutation", "standard_normal", "exponential", "poisson",
    "binomial", "bytes", "gamma", "beta", "geometric", "triangular",
    "lognormal", "pareto", "rayleigh",
})

#: Legacy numpy global-RNG entry points (mirrors R005's table).
LEGACY_NP_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "normal", "uniform", "poisson",
    "exponential", "standard_normal", "binomial",
})

#: Wall-clock call suffixes (dotted-name tails).
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
})

#: I/O seeds: builtins, dotted prefixes, and method leaf names.
IO_BUILTINS = frozenset({"open", "input", "print"})
IO_PREFIXES = ("os.remove", "os.rename", "os.mkdir", "os.makedirs",
               "os.unlink", "subprocess.", "socket.", "shutil.")
IO_METHODS = frozenset({"write_text", "read_text", "write_bytes",
                        "read_bytes"})

#: Known tracked-table mutators, by (class name, method name).  The
#: class-name match keeps this working on fixture trees that mirror
#: the layout without importing the real classes.
TRACKED_MUTATOR_METHODS = frozenset({
    ("RachSniffer", "discover"), ("RachSniffer", "miss"),
    ("RachSniffer", "release"), ("RachSniffer", "prune_idle"),
    ("TrackedUe", "touch"),
})

#: Mutating mapping methods, for ``<x>.tracked.pop(...)`` style seeds.
MAPPING_MUTATORS = frozenset({"pop", "popitem", "clear", "update",
                              "setdefault"})

#: The sanctioned counter-keyed draw.  Treated as a boundary: its body
#: is not descended into, its callers inherit exactly ``counter-rng``.
COUNTER_RNG_FUNCTIONS = frozenset({"counter_uniform"})


@dataclass(frozen=True)
class Seed:
    """One direct effect occurrence inside a function body."""

    effect: str
    detail: str     #: human-readable description of the site
    rel: str
    lineno: int


def _receiver_has_rng(name: str) -> bool:
    """Whether a dotted receiver path names an RNG (``self._rng`` ...)."""
    return any("rng" in part.lower() for part in name.split("."))


def _tracked_store_target(node: ast.expr) -> str | None:
    """Dotted path of a store target that goes through ``tracked``."""
    base: ast.expr = node
    while isinstance(base, (ast.Subscript, ast.Attribute)):
        if isinstance(base, ast.Attribute) and base.attr == "tracked":
            name = dotted_name(base)
            return name if name is not None else "<expr>.tracked"
        base = base.value
    if isinstance(base, ast.Name) and base.id == "tracked":
        return "tracked"
    return None


def collect_seeds(function: FunctionNode) -> list[Seed]:
    """Direct effects visible in one function's body."""
    if function.name in COUNTER_RNG_FUNCTIONS:
        return [Seed(COUNTER_RNG, "counter-keyed uniform draw",
                     function.rel, function.node.lineno)]
    if (function.cls, function.name) in TRACKED_MUTATOR_METHODS:
        return [Seed(MUTATES_TRACKED,
                     f"{function.cls}.{function.name} mutates the "
                     f"tracked-UE table", function.rel,
                     function.node.lineno)]
    seeds: list[Seed] = []
    for node in ast.walk(function.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(
                node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                path = _tracked_store_target(target)
                # A write *into* the table (subscript / attribute of
                # ``tracked``) mutates it; rebinding a plain local
                # called ``tracked`` does not.
                if path is not None and not isinstance(target, ast.Name):
                    seeds.append(Seed(
                        MUTATES_TRACKED, f"store through '{path}'",
                        function.rel, node.lineno))
        elif isinstance(node, ast.Call):
            seeds.extend(_call_seeds(function, node))
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            seeds.append(Seed(RNG, "stdlib 'random' import",
                              function.rel, node.lineno))
    return seeds


def _call_seeds(function: FunctionNode, node: ast.Call) -> list[Seed]:
    seeds: list[Seed] = []
    name = dotted_name(node.func)
    leaf = name.split(".")[-1] if name is not None else (
        node.func.attr if isinstance(node.func, ast.Attribute) else "")
    rel, lineno = function.rel, node.lineno

    # RNG: generator creation, legacy global state, stdlib random,
    # draws on an rng-named receiver or a chained fresh generator.
    if leaf == "default_rng":
        seeds.append(Seed(RNG, f"'{name or leaf}()' creates a Generator",
                          rel, lineno))
        return seeds
    if name is not None:
        parts = name.split(".")
        if parts[0] == "random" and len(parts) > 1:
            seeds.append(Seed(RNG, f"stdlib '{name}()'", rel, lineno))
            return seeds
        if len(parts) >= 3 and parts[-2] == "random" \
                and parts[-1] in LEGACY_NP_RANDOM:
            seeds.append(Seed(RNG, f"legacy '{name}()' global RNG state",
                              rel, lineno))
            return seeds
        suffix = ".".join(parts[-2:]) if len(parts) >= 2 else name
        if suffix in WALL_CLOCK_CALLS:
            seeds.append(Seed(CLOCK, f"'{name}()' reads the wall clock",
                              rel, lineno))
            return seeds
        if name in IO_BUILTINS or \
                any(name.startswith(p) for p in IO_PREFIXES):
            seeds.append(Seed(IO, f"'{name}()' performs I/O",
                              rel, lineno))
            return seeds
    if isinstance(node.func, ast.Attribute):
        attr = node.func.attr
        receiver = dotted_name(node.func.value)
        if attr in RNG_DRAW_METHODS:
            if receiver is not None and _receiver_has_rng(receiver):
                seeds.append(Seed(
                    RNG, f"'{receiver}.{attr}()' stateful draw",
                    rel, lineno))
                return seeds
            inner = node.func.value
            if isinstance(inner, ast.Call):
                inner_name = dotted_name(inner.func)
                if inner_name is not None and \
                        inner_name.split(".")[-1] == "default_rng":
                    seeds.append(Seed(
                        RNG, f"draw on a fresh '{inner_name}()'",
                        rel, lineno))
                    return seeds
        if attr in IO_METHODS:
            seeds.append(Seed(
                IO, f"'.{attr}()' file access", rel, lineno))
            return seeds
        if attr in MAPPING_MUTATORS and receiver is not None and \
                receiver.split(".")[-1] == "tracked":
            seeds.append(Seed(
                MUTATES_TRACKED, f"'{receiver}.{attr}()' mutates the "
                f"tracked table", rel, lineno))
    return seeds


@dataclass
class EffectTable:
    """Per-function effect sets with provenance."""

    #: qualname -> direct seeds found in that body
    seeds: dict[str, list[Seed]] = field(default_factory=dict)
    #: qualname -> transitive effect set
    effects: dict[str, set[str]] = field(default_factory=dict)
    #: (qualname, effect) -> callee qualname it came through
    #: (absent/None when the effect is direct)
    via: dict[tuple[str, str], str | None] = field(default_factory=dict)

    def effects_of(self, qualname: str) -> set[str]:
        """Transitive effects of one function (empty set = pure)."""
        return self.effects.get(qualname, set())

    def witness_chain(self, qualname: str, effect: str) -> list[str]:
        """Call chain from ``qualname`` down to the seeding function."""
        chain = [qualname]
        seen = {qualname}
        current: str | None = qualname
        while current is not None:
            current = self.via.get((current, effect))
            if current is None or current in seen:
                break
            chain.append(current)
            seen.add(current)
        return chain

    def seed_for(self, qualname: str, effect: str) -> Seed | None:
        """The direct seed at the end of a witness chain."""
        leaf = self.witness_chain(qualname, effect)[-1]
        for seed in self.seeds.get(leaf, []):
            if seed.effect == effect:
                return seed
        return None

    def describe(self, qualname: str, effect: str) -> str:
        """Human-readable ``a -> b -> seed (file:line)`` witness."""
        chain = self.witness_chain(qualname, effect)
        names = [qn.split("::", 1)[-1] for qn in chain]
        seed = self.seed_for(qualname, effect)
        text = " -> ".join(names)
        if seed is not None:
            text += f": {seed.detail} ({seed.rel}:{seed.lineno})"
        return text


def infer_effects(graph: CallGraph) -> EffectTable:
    """Seed every function, then propagate effects caller-ward to a
    fixed point (cycles converge: effect sets only grow)."""
    table = EffectTable()
    callers: dict[str, list[str]] = {}
    for qualname, edges in graph.edges.items():
        for edge in edges:
            callers.setdefault(edge.callee, []).append(edge.caller)
    worklist: list[str] = []
    for qualname, function in graph.functions.items():
        seeds = collect_seeds(function)
        table.seeds[qualname] = seeds
        table.effects[qualname] = {seed.effect for seed in seeds}
        if table.effects[qualname]:
            worklist.append(qualname)
    boundary = {qn for qn, fn in graph.functions.items()
                if fn.name in COUNTER_RNG_FUNCTIONS}
    while worklist:
        callee = worklist.pop()
        callee_effects = table.effects[callee]
        for caller in callers.get(callee, []):
            if caller in boundary:
                continue
            caller_effects = table.effects.setdefault(caller, set())
            added = False
            for effect in callee_effects:
                if effect not in caller_effects:
                    caller_effects.add(effect)
                    table.via[(caller, effect)] = callee
                    added = True
            if added:
                worklist.append(caller)
    return table


# ------------------------------------------------------------- program
@dataclass(frozen=True)
class StageRoot:
    """A detected parallel-stage entry point."""

    qualname: str
    rel: str
    lineno: int
    how: str        #: "decorator" | "stage-call"


def _find_stage_roots(graph: CallGraph) -> list[StageRoot]:
    roots: dict[str, StageRoot] = {}
    for qualname, function in graph.functions.items():
        if any(dec.split(".")[-1] == "parallel_stage"
               for dec in function.decorators):
            roots.setdefault(qualname, StageRoot(
                qualname=qualname, rel=function.rel,
                lineno=function.node.lineno, how="decorator"))
    for module in graph.modules.values():
        contexts: list[tuple[str | None, ast.AST]] = [(None, module.tree)]
        contexts += [(k.name, k.node) for k in module.classes.values()]
        for klass_name, tree in contexts:
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None or name.split(".")[-1] != "Stage":
                    continue
                if not any(kw.arg == "parallel"
                           and isinstance(kw.value, ast.Constant)
                           and kw.value.value is True
                           for kw in node.keywords):
                    continue
                fn_expr: ast.expr | None = None
                if len(node.args) >= 2:
                    fn_expr = node.args[1]
                else:
                    for kw in node.keywords:
                        if kw.arg == "fn":
                            fn_expr = kw.value
                # A stage that picks its job by configuration
                # (``a if iq else b``) roots every branch.
                exprs = [fn_expr] if fn_expr is not None else []
                while exprs:
                    expr = exprs.pop()
                    if isinstance(expr, ast.IfExp):
                        exprs += [expr.orelse, expr.body]
                        continue
                    target = graph.resolve_callable_expr(
                        module.rel, expr, cls=klass_name)
                    if target is None:
                        continue
                    # Anchor at the Stage call when it sits in the
                    # root's file, else at the root's definition.
                    lineno = node.lineno if target.rel == module.rel \
                        else target.node.lineno
                    roots.setdefault(target.qualname, StageRoot(
                        qualname=target.qualname, rel=target.rel,
                        lineno=lineno, how="stage-call"))
    return sorted(roots.values(), key=lambda r: (r.rel, r.qualname))


class Program:
    """Whole-scan analysis context handed to flow-aware rules."""

    def __init__(self, modules: list[tuple[str, str, ast.Module]]) -> None:
        self.graph = CallGraph.build(modules)
        self.effects = infer_effects(self.graph)
        self.stage_roots = _find_stage_roots(self.graph)
        self._reachable: dict[str, set[str]] | None = None

    # ---------------------------------------------------- reachability
    def reachable_from(self, qualname: str) -> set[str]:
        """Transitive callee closure of one function (inclusive)."""
        seen = {qualname}
        stack = [qualname]
        while stack:
            current = stack.pop()
            for edge in self.graph.callees(current):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    stack.append(edge.callee)
        return seen

    def parallel_reachable(self) -> set[str]:
        """Every function reachable from any parallel-stage root."""
        reachable: set[str] = set()
        for root in self.stage_roots:
            reachable |= self.reachable_from(root.qualname)
        return reachable

    # --------------------------------------------------------- report
    def effect_report(self) -> dict[str, object]:
        """The ``repro.lint effects`` JSON payload."""
        effectful = {
            qn: sorted(effects)
            for qn, effects in sorted(self.effects.effects.items())
            if effects}
        frontier = [{
            "root": root.qualname,
            "detected_by": root.how,
            "reachable": sorted(self.reachable_from(root.qualname)),
            "effects": sorted(self.effects.effects_of(root.qualname)),
        } for root in self.stage_roots]
        return {
            "modules": len(self.graph.modules),
            "functions": len(self.graph.functions),
            "call_edges": sum(len(e) for e in self.graph.edges.values()),
            "opaque_calls": self.graph.n_opaque,
            "effects": effectful,
            "stage_roots": [r.qualname for r in self.stage_roots],
            "purity_frontier": frontier,
        }
