"""Determinism rules (``REP1xx``): the store-key/record/metric contracts.

The experiment store's whole design rests on "same inputs ⇒ byte-identical
records"; these rules mechanically enforce the ways that contract has
actually been broken in this repo's history:

* ``REP101`` — builtin ``hash()`` is salted per process (PYTHONHASHSEED):
  a key or record derived from it differs across interpreters.  Key paths
  must use ``hashlib`` (PR 3 purged exactly this).
* ``REP102`` — iterating a set (hash order: randomised for strings) or a
  dict view without ``sorted(...)`` while accumulating floats or building
  a serialised payload makes the trailing bits (or the byte order) depend
  on iteration order (PR 5: metric sums over ``set(p) | set(q)`` drifted
  across processes).
* ``REP103`` — wall-clock time and unseeded randomness must never *reach*
  a key- or record-producing function: checked as taint-style reachability
  over the project call graph, seeded from ``store/keys.py``,
  ``store/records.py`` encoders and the task-kind key resolvers.
* ``REP104`` — float literals as dict keys: float arithmetic recomputed
  through a different code path misses the exact key (PR 5's DD-train
  lookup bug); use integers, strings, or a tolerance scan.

``REP102``/``REP104`` only run inside the determinism scope (the modules
feeding keys/records/metrics); ``REP101``/``REP103`` run project-wide
(``hash()`` is never the right spelling here, and taint reachability
already limits itself to the key/record call graph).
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from .framework import Finding, Module, Project, Rule, register_rule

__all__ = [
    "BuiltinHashRule",
    "UnsortedAccumulationRule",
    "TaintReachabilityRule",
    "FloatDictKeyRule",
]

_DICT_VIEW_METHODS = {"keys", "values", "items"}


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Unparse a ``Name``/``Attribute`` chain into ``a.b.c`` (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# REP101: builtin hash()
# ---------------------------------------------------------------------------


@register_rule
class BuiltinHashRule(Rule):
    code = "REP101"
    name = "builtin-hash"
    description = (
        "builtin hash() is per-process salted (PYTHONHASHSEED); derive"
        " digests with hashlib instead"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            shadowed = {
                node.name
                for node in module.tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "hash" in shadowed:
                continue
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"
                ):
                    yield self.finding(
                        module,
                        node,
                        "builtin hash() is randomised per process; use"
                        " hashlib (e.g. repro.store.keys.fingerprint) for"
                        " anything that feeds keys, records or metrics",
                    )


# ---------------------------------------------------------------------------
# REP102: unsorted iteration feeding accumulation / serialisation
# ---------------------------------------------------------------------------


def _unsorted_form(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it iterates in hash/insertion order, else None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return f"{func.id}(...)"
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEW_METHODS:
            return f".{func.attr}()"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _unsorted_form(node.left) or _unsorted_form(node.right)
    return None


def _comprehension_unsorted(node: ast.AST) -> Optional[str]:
    """Unsorted form of a generator/list comprehension's iterables."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        for gen in node.generators:
            form = _unsorted_form(gen.iter)
            if form:
                return form
    return _unsorted_form(node)


_ACCUMULATORS = {"sum", "fsum", "prod"}


@register_rule
class UnsortedAccumulationRule(Rule):
    code = "REP102"
    name = "unsorted-accumulation"
    description = (
        "iterating dict views / sets without sorted() while accumulating"
        " floats or serialising makes results iteration-order dependent"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not project.in_determinism_scope(module):
                continue
            for node in ast.walk(module.tree):
                yield from self._check_node(module, node)

    def _check_node(self, module: Module, node: ast.AST) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            func_name = None
            if isinstance(node.func, ast.Name):
                func_name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                func_name = node.func.attr
            if func_name in _ACCUMULATORS and node.args:
                form = _comprehension_unsorted(node.args[0])
                if form:
                    yield self.finding(
                        module,
                        node,
                        f"{func_name}() over {form}: float accumulation order"
                        " follows iteration order — wrap the iterable in"
                        " sorted(...) to keep stored metrics bit-identical"
                        " across processes",
                    )
            elif (
                func_name == "join"
                and isinstance(node.func, ast.Attribute)
                and node.args
            ):
                form = _comprehension_unsorted(node.args[0])
                if form:
                    yield self.finding(
                        module,
                        node,
                        f"join() over {form}: the serialised byte order follows"
                        " iteration order — sort the iterable first",
                    )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            form = _unsorted_form(node.iter)
            if form and self._body_accumulates(node.body):
                yield self.finding(
                    module,
                    node,
                    f"loop over {form} accumulates into its targets in"
                    " iteration order — iterate sorted(...) so the result"
                    " does not depend on hash/insertion order",
                )

    @staticmethod
    def _body_accumulates(body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    return True
                if isinstance(node, ast.Call):
                    dotted = _dotted_name(node.func)
                    if dotted in {"json.dumps", "json.dump"}:
                        return True
        return False


# ---------------------------------------------------------------------------
# REP103: taint reachability — nondeterministic sources in the key/record graph
# ---------------------------------------------------------------------------

#: Fully-resolved callables whose outputs differ across runs.
_NONDET_SOURCES = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
    "secrets.choice",
}

#: ``numpy.random.<name>`` is flagged unless the name is one of these —
#: constructing a *seeded* generator is exactly how determinism is done.
_NUMPY_RANDOM_OK = {"default_rng", "SeedSequence", "Generator", "BitGenerator", "PCG64"}

#: stdlib ``random`` module-level functions share one implicitly-seeded
#: global state; any call is a nondeterminism source.
_RANDOM_MODULE_PREFIX = "random."


def _is_nondet_source(dotted: str) -> Optional[str]:
    if dotted in _NONDET_SOURCES:
        return dotted
    if dotted.startswith(_RANDOM_MODULE_PREFIX) and dotted.count(".") == 1:
        name = dotted.split(".", 1)[1]
        if name not in {"Random", "SystemRandom"}:
            return dotted
    if dotted.startswith("numpy.random."):
        name = dotted.split(".")[-1]
        if name not in _NUMPY_RANDOM_OK:
            return dotted
    return None


class _FunctionInfo:
    __slots__ = ("qualified", "module", "node", "simple_name", "calls", "sources")

    def __init__(self, qualified: str, module: Module, node: ast.AST, simple_name: str):
        self.qualified = qualified
        self.module = module
        self.node = node
        self.simple_name = simple_name
        self.calls: List[Tuple[str, ast.Call]] = []  # resolved dotted targets
        self.sources: List[Tuple[str, ast.Call]] = []  # nondet call sites


def _import_aliases(module: Module) -> Dict[str, str]:
    """Map local binding -> dotted target for every import in the module."""
    aliases: Dict[str, str] = {}
    package_parts = module.name.split(".")
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.level > len(package_parts):
                    continue
                base = package_parts[: len(package_parts) - node.level]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{prefix}.{alias.name}" if prefix else alias.name
                aliases[alias.asname or alias.name] = target
    # Special-case the numpy convention so np.random.* resolves.
    if aliases.get("np") == "numpy" or aliases.get("numpy") == "numpy":
        aliases.setdefault("np", "numpy")
    return aliases


def _collect_functions(module: Module, aliases: Dict[str, str]) -> List[_FunctionInfo]:
    """Every function/method with its resolved call targets and sources."""
    top_level = {
        node.name
        for node in module.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    functions: List[_FunctionInfo] = []

    def resolve(call: ast.Call, class_name: Optional[str]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in top_level:
                return f"{module.name}.{func.id}"
            return aliases.get(func.id, func.id)
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        if root == "self" and class_name and rest and "." not in rest:
            return f"{module.name}.{class_name}.{rest}"
        if root in aliases and rest:
            return f"{aliases[root]}.{rest}"
        return dotted

    def visit(body: List[ast.stmt], qual: List[str], class_name: Optional[str]):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = ".".join([module.name] + qual + [node.name])
                info = _FunctionInfo(qualified, module, node, node.name)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        target = resolve(sub, class_name)
                        if target is None:
                            continue
                        info.calls.append((target, sub))
                        source = _is_nondet_source(target)
                        if source:
                            info.sources.append((source, sub))
                functions.append(info)
                # Nested defs are attributed to the outer function's walk
                # above; no separate reachability node for them.
            elif isinstance(node, ast.ClassDef):
                visit(node.body, qual + [node.name], node.name)

    visit(module.tree.body, [], None)
    return functions


@register_rule
class TaintReachabilityRule(Rule):
    code = "REP103"
    name = "nondeterminism-reaches-keys"
    description = (
        "wall-clock time / unseeded randomness must not be reachable from"
        " key- or record-producing entry points (call-graph taint pass)"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        table: Dict[str, _FunctionInfo] = {}
        for module in project.modules:
            aliases = _import_aliases(module)
            for info in _collect_functions(module, aliases):
                table[info.qualified] = info

        seeds = [
            info
            for info in table.values()
            if project.is_taint_seed(info.module, info.simple_name)
        ]
        parents: Dict[str, Optional[str]] = {info.qualified: None for info in seeds}
        queue = deque(info.qualified for info in seeds)
        while queue:
            current = queue.popleft()
            for target, _ in table[current].calls:
                if target in table and target not in parents:
                    parents[target] = current
                    queue.append(target)

        for qualified in sorted(parents):
            info = table[qualified]
            chain: List[str] = []
            cursor: Optional[str] = qualified
            while cursor is not None:
                chain.append(cursor)
                cursor = parents[cursor]
            chain.reverse()
            for source, call in info.sources:
                route = " -> ".join(chain)
                yield self.finding(
                    info.module,
                    call,
                    f"nondeterministic source {source}() is reachable from the"
                    f" key/record entry point {chain[0]} (chain: {route});"
                    " thread a seed or move the call out of the key path",
                )


# ---------------------------------------------------------------------------
# REP104: float literals as dict keys
# ---------------------------------------------------------------------------


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, float)
    )


@register_rule
class FloatDictKeyRule(Rule):
    code = "REP104"
    name = "float-dict-key"
    description = (
        "float literals as dict keys: recomputed floats miss exact-equality"
        " lookups; use ints/strings or a tolerance scan"
    )

    _LOOKUP_METHODS = {"get", "setdefault", "pop"}

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if not project.in_determinism_scope(module):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Dict):
                    for key in node.keys:
                        if key is not None and _is_float_literal(key):
                            yield self.finding(
                                module,
                                key,
                                "float literal used as a dict key; a value"
                                " recomputed through different float"
                                " arithmetic will miss it (the PR 5 DD-train"
                                " bug class)",
                            )
                elif isinstance(node, ast.Subscript) and _is_float_literal(node.slice):
                    yield self.finding(
                        module,
                        node,
                        "subscript with a float literal; index by int/str or"
                        " use a tolerance scan",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._LOOKUP_METHODS
                    and node.args
                    and _is_float_literal(node.args[0])
                ):
                    yield self.finding(
                        module,
                        node,
                        f".{node.func.attr}() keyed by a float literal; exact"
                        " float lookups break under recomputation",
                    )
