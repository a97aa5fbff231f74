"""Determinism and hot-path rules (SL001–SL005, SL007–SL009).

These are the single-module rules the analyzer launched with: each one
defends the bit-identical replay guarantee (or a hot-path performance
property) with facts visible inside one file.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding, LintModule, Rule
from repro.lint.rules import _call_name, _dotted, _unparse, register

# --------------------------------------------------------------------------------------
# SL001 — unseeded / global random use
# --------------------------------------------------------------------------------------


@register
class UnseededRandomRule(Rule):
    """Global-`random` calls make runs depend on interpreter-wide state."""

    id = "SL001"
    severity = "error"
    summary = "unseeded or global `random` use"

    #: Names importable from `random` that read or mutate the global RNG.
    _GLOBAL_FUNCS = frozenset(
        {
            "betavariate", "choice", "choices", "expovariate", "gammavariate",
            "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
            "paretovariate", "randbytes", "randint", "random", "randrange",
            "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
            "vonmisesvariate", "weibullvariate",
        }
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith("repro")

    def check(self, module: LintModule) -> Iterator[Finding]:
        aliases: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in self._GLOBAL_FUNCS:
                        yield self.finding(
                            module,
                            node,
                            f"`from random import {alias.name}` pulls in the "
                            "global RNG; use a seeded random.Random instance",
                        )
                    elif alias.name == "SystemRandom":
                        yield self.finding(
                            module,
                            node,
                            "random.SystemRandom is OS entropy and can never "
                            "be reproduced; use a seeded random.Random",
                        )
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            base = node.func.value
            if not (isinstance(base, ast.Name) and base.id in aliases):
                continue
            attr = node.func.attr
            if attr == "Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed draws from OS state; "
                        "pass an explicit seed",
                    )
            elif attr == "SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "random.SystemRandom is OS entropy and can never be "
                    "reproduced; use a seeded random.Random",
                )
            elif attr in self._GLOBAL_FUNCS:
                yield self.finding(
                    module,
                    node,
                    f"call to global random.{attr}() depends on interpreter-"
                    "wide RNG state; use a seeded random.Random instance",
                )


# --------------------------------------------------------------------------------------
# SL002 — wall-clock reads in simulation code
# --------------------------------------------------------------------------------------


@register
class WallClockRule(Rule):
    """Simulated time must come from the event loop, never the host clock."""

    id = "SL002"
    severity = "error"
    summary = "wall-clock read outside repro.perf"

    _TIME_FUNCS = frozenset(
        {
            "time", "time_ns", "perf_counter", "perf_counter_ns",
            "monotonic", "monotonic_ns", "process_time", "process_time_ns",
            "clock", "thread_time", "thread_time_ns",
        }
    )
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    #: Modules allowed to read the host clock.  ``repro.perf`` measures the
    #: simulator's own wall-clock cost; ``repro.obs.export`` may stamp trace
    #: files with the *generation* time (``stamp=True``) — simulated
    #: timestamps inside the trace still come only from the event loop.
    #: ``repro.runner`` is orchestration, not simulation: it times cells,
    #: enforces per-cell timeouts, and backs off crash retries against the
    #: host clock, and its bit-identity tests prove none of that can leak
    #: into simulated results.  ``repro.svc`` is the same kind of
    #: orchestration one layer up — request timeouts, crash-retry backoff
    #: and request-latency histograms are host-clock by nature, and the
    #: service's bit-identity chaos tests prove results stay unaffected.
    #: ``repro.lint`` times the *analyzer itself* (the CI/pre-commit speed
    #: budget in LintReport.elapsed_s) and never touches simulation state.
    #: ``repro.obs.svc`` is the service-tier tracer: its spans measure the
    #: *host* request path (admission waits, worker execute) on the
    #: monotonic clock by design, and the golden-digest tests prove the
    #: tracer never reaches simulated results.  ``repro.loadgen`` drives
    #: the service from outside over real sockets — request latencies
    #: and open-loop pacing are host-clock by definition, and its seeded
    #: plan (not its timings) is the reproducible artifact.
    _ALLOWED = ("repro.perf", "repro.obs.export", "repro.obs.svc",
                "repro.runner", "repro.svc", "repro.lint",
                "repro.loadgen")

    def applies_to(self, module: LintModule) -> bool:
        name = module.module
        if not name.startswith("repro"):
            return False
        # Package-boundary match: "repro.runner.pool" is exempt,
        # "repro.runners" is not.
        return not any(
            name == allowed or name.startswith(allowed + ".")
            for allowed in self._ALLOWED
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_FUNCS:
                        yield self.finding(
                            module,
                            node,
                            f"`from time import {alias.name}` is a wall-clock "
                            "read; simulation code must use simulated time "
                            "(repro.perf owns host-clock profiling)",
                        )
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            root, attr = name.split(".", 1)[0], node.func.attr
            if root == "time" and attr in self._TIME_FUNCS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read time.{attr}(); simulation code must use "
                    "simulated time (repro.perf owns host-clock profiling)",
                )
            elif root in ("datetime", "date") and attr in self._DATETIME_FUNCS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {name}(); simulation code must use "
                    "simulated time (repro.perf owns host-clock profiling)",
                )


# --------------------------------------------------------------------------------------
# SL003 — unsorted iteration over set-typed values in core/disk
# --------------------------------------------------------------------------------------


class _SetReturnCollector(ast.NodeVisitor):
    """Names of same-module functions whose return value is set-typed."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Return)
                and child.value is not None
                and _is_set_literalish(child.value)
            ):
                self.names.add(node.name)
                break
        self.generic_visit(node)


def _is_set_literalish(node: ast.AST) -> bool:
    """Expressions that are unmistakably sets, with no dataflow needed."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class UnorderedIterationRule(Rule):
    """Set iteration order is arbitrary; in core/disk it can reach Results."""

    id = "SL003"
    severity = "error"
    summary = "unsorted iteration over a set/dict.keys() in core/disk"

    #: Reductions whose result cannot depend on iteration order.
    _ORDER_FREE = frozenset(
        {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
    )
    #: Wrappers that preserve the inner iterable's order — look through them.
    _TRANSPARENT = frozenset({"enumerate", "reversed", "list", "tuple", "iter"})
    #: Set-typed attributes of the simulator's shared objects, known by name.
    _KNOWN_SET_ATTRS = frozenset(
        {"resident", "in_flight", "present", "lost_blocks", "protected_blocks"}
    )
    #: Set operators (set OP set is a set).
    _SET_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    #: Set methods returning sets.
    _SET_METHODS = frozenset(
        {"intersection", "union", "difference", "symmetric_difference", "copy"}
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith(("repro.core", "repro.disk"))

    def check(self, module: LintModule) -> Iterator[Finding]:
        collector = _SetReturnCollector()
        collector.visit(module.tree)
        set_returning = collector.names
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            yield from self._check_scope(module, scope, set_returning)

    def _check_scope(
        self, module: LintModule, scope: ast.AST, set_returning: Set[str]
    ) -> Iterator[Finding]:
        tainted = self._tainted_names(scope, set_returning)
        own_functions = {
            child
            for child in ast.walk(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not scope
        }
        nested: Set[ast.AST] = set()
        for function in own_functions:
            nested.update(ast.walk(function))
        for node in ast.walk(scope):
            if node in nested:
                continue  # reported when the nested scope is processed
            iterables: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                if self._inside_order_free_call(module, node):
                    continue
                iterables.extend(gen.iter for gen in node.generators)
            else:
                continue
            for iterable in iterables:
                inner = self._look_through(iterable)
                reason = self._set_reason(inner, tainted, set_returning)
                if reason is not None:
                    yield self.finding(
                        module,
                        iterable,
                        f"iteration over {reason} `{_unparse(inner)}` has "
                        "arbitrary order; iterate `sorted(...)` so results "
                        "stay bit-identical",
                    )

    def _tainted_names(
        self, scope: ast.AST, set_returning: Set[str]
    ) -> Set[str]:
        tainted: Set[str] = set()
        assignments: List[Tuple[ast.AST, ast.AST]] = []
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    assignments.append((target, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assignments.append((node.target, node.value))
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.op, self._SET_OPS):
                    assignments.append((node.target, node.value))
        for _ in range(4):  # tiny fixpoint for chained assignments
            changed = False
            for target, value in assignments:
                if not isinstance(target, ast.Name):
                    continue
                if target.id in tainted:
                    continue
                if self._set_reason(value, tainted, set_returning) is not None:
                    tainted.add(target.id)
                    changed = True
            if not changed:
                break
        return tainted

    def _set_reason(
        self, node: ast.AST, tainted: Set[str], set_returning: Set[str]
    ) -> Optional[str]:
        """A short description of why ``node`` is set-typed, or None."""
        if _is_set_literalish(node):
            return "the set expression"
        if isinstance(node, ast.Name) and node.id in tainted:
            return "the set-typed local"
        if isinstance(node, ast.Attribute) and node.attr in self._KNOWN_SET_ATTRS:
            return "the set-typed attribute"
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            if (
                self._set_reason(node.left, tainted, set_returning) is not None
                or self._set_reason(node.right, tainted, set_returning) is not None
            ):
                return "the set expression"
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in set_returning:
                return "the set-returning call"
            if isinstance(func, ast.Attribute):
                if func.attr == "keys":
                    return "the dict-keys view"
                if func.attr in set_returning or func.attr in self._KNOWN_SET_ATTRS:
                    return "the set-returning call"
                if (
                    func.attr in self._SET_METHODS
                    and self._set_reason(func.value, tainted, set_returning)
                    is not None
                ):
                    return "the set expression"
        return None

    def _look_through(self, node: ast.AST) -> ast.AST:
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._TRANSPARENT
            and node.args
        ):
            node = node.args[0]
        return node

    def _inside_order_free_call(
        self, module: LintModule, node: ast.AST
    ) -> bool:
        parent = module.parent(node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in self._ORDER_FREE
        )


# --------------------------------------------------------------------------------------
# SL004 — float equality on simulated-time expressions
# --------------------------------------------------------------------------------------


@register
class TimeEqualityRule(Rule):
    """Simulated times are float sums; `==`/`!=` on them is fragile."""

    id = "SL004"
    severity = "warning"
    summary = "float ==/!= on a simulated-time expression"

    _TIME_SUFFIXES = ("_ms", "_ns", "_time")
    _TIME_NAMES = frozenset(
        {"now", "elapsed", "deadline", "when", "stall_ms", "completion"}
    )
    _TIME_SUBSTRING = re.compile(r"(^|_)time(s)?(_|$)")

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith(
            ("repro.core", "repro.disk", "repro.faults", "repro.theory")
        )

    _TRUNCATIONS = frozenset({"int", "round", "floor", "ceil", "trunc"})

    def _is_truncation(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = _call_name(node)
        return name is not None and name.rsplit(".", 1)[-1] in self._TRUNCATIONS

    def _is_timey(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return False
        if name in self._TIME_NAMES:
            return True
        if any(name.endswith(suffix) for suffix in self._TIME_SUFFIXES):
            return True
        return bool(self._TIME_SUBSTRING.search(name))

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x == None`-style and string compares are not time math.
                if any(
                    isinstance(side, ast.Constant)
                    and not isinstance(side.value, (int, float))
                    for side in (left, right)
                ):
                    continue
                # Integrality checks (`x != int(x)`) are exact and correct.
                if any(self._is_truncation(side) for side in (left, right)):
                    continue
                timey = next(
                    (side for side in (left, right) if self._is_timey(side)), None
                )
                if timey is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module,
                        node,
                        f"`{symbol}` on simulated-time value "
                        f"`{_unparse(timey)}`: float accumulation makes exact "
                        "equality fragile; compare with an ordering or a "
                        "tolerance",
                    )


# --------------------------------------------------------------------------------------
# SL005 — O(n) list head operations in hot paths
# --------------------------------------------------------------------------------------


@register
class ListHeadRule(Rule):
    """`list.pop(0)` / `insert(0, …)` are O(n) — the bug class PR 2 removed."""

    id = "SL005"
    severity = "warning"
    summary = "list.pop(0)/insert(0, ...) in a hot path"

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith(("repro.core", "repro.disk"))

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if not node.args:
                continue
            first = node.args[0]
            is_zero = isinstance(first, ast.Constant) and first.value == 0
            if attr == "pop" and is_zero:
                yield self.finding(
                    module,
                    node,
                    "`pop(0)` is O(n) per call on a list; use "
                    "collections.deque.popleft() or an index cursor",
                )
            elif attr == "insert" and is_zero and len(node.args) >= 2:
                yield self.finding(
                    module,
                    node,
                    "`insert(0, ...)` is O(n) per call on a list; use "
                    "collections.deque.appendleft() or append+reverse",
                )


# --------------------------------------------------------------------------------------
# SL007 — mutable default arguments
# --------------------------------------------------------------------------------------


@register
class MutableDefaultRule(Rule):
    """A mutable default is shared across calls — state leaks between runs."""

    id = "SL007"
    severity = "error"
    summary = "mutable default argument"

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith("repro")

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None and name.rsplit(".", 1)[-1] in self._MUTABLE_CALLS:
                return True
        return False

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            defaults = list(arguments.defaults) + [
                d for d in arguments.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default `{_unparse(default)}` in "
                        f"{node.name}() is shared across calls; default to "
                        "None and create it in the body",
                    )


# --------------------------------------------------------------------------------------
# SL008 — bare except swallowing fault-injection errors
# --------------------------------------------------------------------------------------


@register
class BareExceptRule(Rule):
    """`except:` hides repro.faults errors (UnrecoverableReadError) and
    engine accounting bugs alike."""

    id = "SL008"
    severity = "error"
    summary = "bare except / except BaseException"

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith("repro")

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` swallows everything, including "
                    "fault-injection errors from repro.faults "
                    "(UnrecoverableReadError); catch the specific exception",
                )
            else:
                names = (
                    node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                )
                for name_node in names:
                    name = _dotted(name_node)
                    if name is not None and name.rsplit(".", 1)[-1] == "BaseException":
                        yield self.finding(
                            module,
                            node,
                            "`except BaseException` swallows everything, "
                            "including fault-injection errors from "
                            "repro.faults; catch the specific exception",
                        )


# --------------------------------------------------------------------------------------
# SL009 — identity comparison against float sentinels
# --------------------------------------------------------------------------------------


@register
class FloatSentinelIdentityRule(Rule):
    """``x is INFINITE`` only works while every producer returns the *same*
    float object; any arithmetic, numpy scalar, or ``float("inf")`` built
    elsewhere silently breaks the check.  The simulator core uses the exact
    integer sentinel ``index.never`` instead — compare with ``==``/``>=``."""

    id = "SL009"
    severity = "error"
    summary = "`is` comparison against a float sentinel (INFINITE / float('inf'))"

    SENTINEL_NAMES = {"INFINITE", "INF", "INFINITY", "NAN"}

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith("repro")

    def _is_float_sentinel(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _dotted(node)
            if name is not None:
                return name.rsplit(".", 1)[-1].upper() in self.SENTINEL_NAMES
            return False
        if isinstance(node, ast.Call):
            if _call_name(node) == "float" and len(node.args) == 1:
                arg = node.args[0]
                return isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        return False

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Is, ast.IsNot)):
                    continue
                if self._is_float_sentinel(left) or self._is_float_sentinel(right):
                    yield self.finding(
                        module,
                        node,
                        f"`{_unparse(node)}` relies on float object identity; "
                        "floats from arithmetic, numpy, or a fresh "
                        "float('inf') are distinct objects. Compare against "
                        "the integer sentinel `index.never` (or use == / "
                        "math.isinf) instead",
                    )
