"""The policy-contract rule (SL006).

The simulator engine calls policy hooks positionally and hands policies
shared, read-only trace state; this rule pins both halves of that
contract, plus the project-wide invariant that every ``POLICIES``
registry entry resolves to a real policy class.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import Finding, LintModule, Rule
from repro.lint.rules import _dotted, _unparse, register

if TYPE_CHECKING:
    from repro.lint.project import ProjectIndex


@register
class PolicyContractRule(Rule):
    """Policies must speak the exact hook vocabulary and never mutate the
    shared trace state the simulator hands them."""

    id = "SL006"
    severity = "error"
    summary = "policy-contract violation"

    #: Hook name -> positional parameters after ``self``.
    _CONTRACT: Dict[str, Tuple[str, ...]] = {
        "bind": ("sim",),
        "before_reference": ("cursor", "now"),
        "on_disk_idle": ("disk", "now"),
        "on_miss": ("cursor", "now"),
        "on_fetch_complete": ("disk", "service_ms"),
        "on_reference_served": ("cursor", "compute_ms"),
        "on_evict": ("block", "next_use"),
        "on_write_allocate": ("block",),
        "issue": ("block", "victim"),
        "choose_victim": ("cursor", "exclude"),
    }
    _HOOK_PREFIXES = ("on_", "before_")
    #: Attributes of the simulator that are shared, read-only state.
    _SHARED_ATTRS = frozenset({"blocks", "app_blocks", "compute_ms", "trace"})
    _MUTATORS = frozenset(
        {
            "append", "extend", "insert", "remove", "pop", "clear", "sort",
            "reverse", "update", "setdefault", "popitem", "add", "discard",
        }
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith("repro")

    # -- per-module: check each policy class body -----------------------------

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and self._looks_like_policy(node):
                yield from self._check_class(module, node)

    def _looks_like_policy(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if name is not None and (
                name == "PrefetchPolicy" or name.endswith("Policy")
            ):
                return True
        return False

    def _check_class(
        self, module: LintModule, node: ast.ClassDef
    ) -> Iterator[Finding]:
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            expected = self._CONTRACT.get(item.name)
            if expected is not None:
                yield from self._check_arity(module, node, item, expected)
            elif item.name.startswith(self._HOOK_PREFIXES):
                known = ", ".join(sorted(self._CONTRACT))
                yield self.finding(
                    module,
                    item,
                    f"{node.name}.{item.name} looks like a policy hook but is "
                    f"not part of the contract (known hooks: {known}); the "
                    "engine will never call it",
                )
        yield from self._check_mutations(module, node)

    def _check_arity(
        self,
        module: LintModule,
        cls: ast.ClassDef,
        item: ast.FunctionDef,
        expected: Tuple[str, ...],
    ) -> Iterator[Finding]:
        arguments = item.args
        if arguments.vararg is not None or arguments.kwarg is not None:
            return  # pass-through wrappers are contract-compatible
        positional = [a.arg for a in arguments.posonlyargs + arguments.args]
        if positional and positional[0] in ("self", "cls"):
            positional = positional[1:]
        required = len(positional) - len(arguments.defaults)
        if required > len(expected) or len(positional) < len(expected):
            yield self.finding(
                module,
                item,
                f"{cls.name}.{item.name} must accept exactly "
                f"({', '.join(expected)}) after self; the engine calls it "
                f"with {len(expected)} positional arguments",
            )

    def _check_mutations(
        self, module: LintModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        def shared_target(value: ast.AST) -> Optional[str]:
            if isinstance(value, ast.Attribute) and value.attr in self._SHARED_ATTRS:
                return value.attr
            return None

        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    base = target.value if isinstance(target, ast.Subscript) else target
                    attr = shared_target(base)
                    if attr is not None and not isinstance(target, ast.Name):
                        yield self.finding(
                            module,
                            node,
                            f"{cls.name} mutates the shared `{attr}` sequence; "
                            "policies must treat the trace and hint view as "
                            "read-only",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in self._MUTATORS:
                    attr = shared_target(node.func.value)
                    if attr is not None:
                        yield self.finding(
                            module,
                            node,
                            f"{cls.name} calls `.{node.func.attr}()` on the "
                            f"shared `{attr}` sequence; policies must treat "
                            "the trace and hint view as read-only",
                        )

    # -- project-wide: the POLICIES registry must map to real policies --------

    def check_project(
        self, modules: Sequence[LintModule], project: "ProjectIndex"
    ) -> Iterator[Finding]:
        classes: Dict[str, List[str]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    bases: List[str] = []
                    for base in node.bases:
                        name = _dotted(base)
                        if name is not None:
                            bases.append(name.rsplit(".", 1)[-1])
                    classes.setdefault(node.name, bases)
        policy_like: Set[str] = {"PrefetchPolicy"}
        changed = True
        while changed:
            changed = False
            for name, bases in classes.items():
                if name not in policy_like and any(b in policy_like for b in bases):
                    policy_like.add(name)
                    changed = True
        registry_module = next(
            (m for m in modules if m.module == "repro.core"), None
        )
        if registry_module is None:
            return
        for node in ast.walk(registry_module.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            is_policies = any(
                isinstance(t, ast.Name) and t.id == "POLICIES"
                for t in targets
            )
            if not is_policies or not isinstance(node.value, ast.Dict):
                continue
            for key, value in zip(node.value.keys, node.value.values):
                name = _dotted(value) if value is not None else None
                if name is None:
                    continue
                short = name.rsplit(".", 1)[-1]
                if short not in policy_like:
                    label = (
                        key.value
                        if isinstance(key, ast.Constant)
                        else _unparse(key) if key is not None else "?"
                    )
                    yield self.finding(
                        registry_module,
                        value,
                        f"registered policy {label!r} maps to {short}, which "
                        "is not a PrefetchPolicy subclass visible to the "
                        "linter; every registry entry must implement the full "
                        "policy surface",
                    )
