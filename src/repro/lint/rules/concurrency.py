"""The fork/shared-state rule (SL014).

``SupervisedPool`` (docs/RUNNER.md) forks workers with
``multiprocessing.get_context("fork")``: the child starts with a
copy-on-write snapshot of the parent's memory.  Any module-global a
worker *mutates* silently diverges from the parent's copy — the code
reads like shared state but is not, which is exactly the bug class the
PR 6 chaos tests only caught by luck.  Equally, an OS handle (file
descriptor, socket) captured at module scope is genuinely shared across
the fork, so parent and child interleave writes on one file offset.

SL014 resolves every ``target=`` handed to a ``*.Process(...)``
constructor, takes the call-graph closure from the project summaries
(dict registries like ``CELL_KINDS`` included), and inside that
worker-reachable code flags:

* mutation of a module-global mutable (direct, through ``global``, or
  through a one-hop local alias such as
  ``store = _TRACE_CACHE if cache is None else cache``);
* reads of module-globals or ``self`` attributes bound to an fd/socket.

Legitimate per-process caches exist (a worker memoizing its own trace
loads); the fix for a false positive is an inline suppression *with a
comment saying why the divergence is intended*.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Sequence, Set

from repro.lint.astutil import scoped_walk
from repro.lint.engine import Finding, LintModule, Rule
from repro.lint.rules import register

if TYPE_CHECKING:
    from repro.lint.project import FunctionInfo, ProjectIndex

_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "update", "setdefault", "popitem", "add", "discard",
        "appendleft", "popleft", "move_to_end",
    }
)


@register
class ForkSharedStateRule(Rule):
    """Module state mutated inside a forked worker diverges from the parent
    without any error; fds captured across fork are truly shared."""

    id = "SL014"
    severity = "error"
    summary = "shared mutable state / fd capture across the fork boundary"

    def check_project(
        self, modules: Sequence[LintModule], project: "ProjectIndex"
    ) -> Iterator[Finding]:
        for root_qualname, _call, _module in project.process_targets:
            root_info = project.functions.get(root_qualname)
            if root_info is None:
                continue
            reachable = project.reachable_from([root_qualname])
            for qualname in sorted(reachable):
                info = project.functions[qualname]
                if not info.module.module.startswith("repro"):
                    continue
                yield from self._check_function(project, info, root_info.display)

    def _check_function(
        self, project: "ProjectIndex", info: "FunctionInfo", root: str
    ) -> Iterator[Finding]:
        module_name = info.module.module
        mutable = project.mutable_globals(module_name)
        handles = project.handle_globals(module_name)
        class_handles: Set[str] = set()
        if info.cls is not None:
            cls = project.class_info(f"{module_name}:{info.cls}")
            if cls is not None:
                class_handles = cls.handle_attrs
        if not mutable and not handles and not class_handles:
            return
        aliases = self._aliases(info.node, mutable)
        watched = mutable | aliases
        declared_global: Set[str] = set()
        for node in scoped_walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in scoped_walk(info.node):
            yield from self._check_mutation(
                info, node, watched, mutable, aliases, declared_global, root
            )
            yield from self._check_handle_read(
                info, node, handles, class_handles, root
            )

    def _aliases(self, func: ast.AST, mutable: Set[str]) -> Set[str]:
        """Locals bound (possibly conditionally) to a module-global mutable."""
        aliases: Set[str] = set()
        for node in scoped_walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            if not isinstance(target, ast.Name):
                continue
            candidates = [value]
            if isinstance(value, ast.IfExp):
                candidates = [value.body, value.orelse]
            elif isinstance(value, ast.BoolOp):
                candidates = list(value.values)
            for candidate in candidates:
                if isinstance(candidate, ast.Name) and candidate.id in mutable:
                    aliases.add(target.id)
                    break
        return aliases

    def _check_mutation(
        self,
        info: "FunctionInfo",
        node: ast.AST,
        watched: Set[str],
        mutable: Set[str],
        aliases: Set[str],
        declared_global: Set[str],
        root: str,
    ) -> Iterator[Finding]:
        def origin(name: str) -> str:
            return (
                f"module-global `{name}`"
                if name in mutable
                else f"`{name}` (aliasing a module-global)"
            )

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if not isinstance(base, ast.Name):
                    continue
                name = base.id
                if target is base:
                    # Rebinding a bare name only matters under `global`.
                    if name in declared_global and name in watched:
                        yield self._mutation_finding(info, node, origin(name), root)
                elif name in watched:
                    yield self._mutation_finding(info, node, origin(name), root)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in watched and target is not base:
                    yield self._mutation_finding(info, node, origin(base.id), root)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name):
                name = node.func.value.id
                if name in watched:
                    yield self._mutation_finding(info, node, origin(name), root)

    def _mutation_finding(
        self, info: "FunctionInfo", node: ast.AST, what: str, root: str
    ) -> Finding:
        return self.finding(
            info.module,
            node,
            f"`{info.display}` runs inside a forked worker (Process target "
            f"`{root}`) and mutates {what}: after fork the child writes its "
            "copy-on-write copy, so parent and worker state diverge silently "
            "— route updates through the pipe/journal, or suppress with a "
            "comment if per-process divergence is intended",
        )

    def _check_handle_read(
        self,
        info: "FunctionInfo",
        node: ast.AST,
        handles: Set[str],
        class_handles: Set[str],
        root: str,
    ) -> Iterator[Finding]:
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in handles
        ):
            yield self.finding(
                info.module,
                node,
                f"`{info.display}` runs inside a forked worker (Process "
                f"target `{root}`) and uses module-global handle `{node.id}` "
                "opened before the fork: the fd is shared with the parent, "
                "so writes interleave on one file offset — open it "
                "per-process after the fork",
            )
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in class_handles
        ):
            yield self.finding(
                info.module,
                node,
                f"`{info.display}` runs inside a forked worker (Process "
                f"target `{root}`) and uses handle attribute "
                f"`self.{node.attr}` captured from the parent: the fd is "
                "shared across the fork — close inherited handles in the "
                "child and reopen per-process",
            )
