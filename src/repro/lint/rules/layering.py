"""The core-purity layering rules (SL015, SL016).

ROADMAP item 1 keeps the hot core compilable and benchmarkable on its
own: ``repro.core`` and ``repro.disk`` must import *nothing* from the
orchestration layers (``obs``, ``runner``, ``svc``, ``perf``,
``analysis``, ``lint``, ``cli``).  A single stray module-level import
drags the whole service stack — and its transitive stdlib surface —
into every simulation process and into the mypy-strict core closure.

The rule reads the resolved import graph from the project index, so
relative imports and aliases are handled.  Two escape hatches exist:

* ``if TYPE_CHECKING:`` imports are always allowed (they vanish at
  runtime);
* the explicit lazy-import allowlist below — currently empty: the engine
  reports through event sinks and the profiler samples it from outside,
  so no core module imports an orchestration layer even lazily.

SL016 extends the same purity line to *output*: the hot core must not
log or print.  Structured logging lives in ``repro.obs.logging`` and is
attached by the orchestration layers; a ``logging`` import or a
``print()`` inside ``repro.core``/``repro.disk`` would run once per
simulated event in the worst case, and — because logging reads the wall
clock for every record — would also hand the core a covert host-clock
dependency that SL002 exists to forbid.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Set, Tuple

from repro.lint.engine import Finding, LintModule, Rule
from repro.lint.rules import register

if TYPE_CHECKING:
    from repro.lint.project import ProjectIndex

#: Layers the core must never depend on at runtime.
_FORBIDDEN = (
    "repro.obs",
    "repro.runner",
    "repro.svc",
    "repro.perf",
    "repro.analysis",
    "repro.lint",
    "repro.cli",
)

#: (importing module, forbidden layer) pairs allowed as *function-local*
#: lazy imports.  Keep this list painfully short (it is empty) and
#: document every entry in docs/LINTING.md.
_LAZY_ALLOWLIST: Set[Tuple[str, str]] = set()

_CORE_LAYERS = ("repro.core", "repro.disk")


@register
class ImportLayeringRule(Rule):
    """core/disk must stay importable without any orchestration layer."""

    id = "SL015"
    severity = "error"
    summary = "core/disk imports an orchestration layer (obs/runner/svc/perf)"

    def check_project(
        self, modules: Sequence[LintModule], project: "ProjectIndex"
    ) -> Iterator[Finding]:
        by_name = {module.module: module for module in modules}
        for module_name, records in sorted(project.imports.items()):
            if not module_name.startswith(_CORE_LAYERS):
                continue
            module = by_name.get(module_name)
            if module is None:
                continue
            for record in records:
                layer = self._forbidden_layer(record.target)
                if layer is None:
                    continue
                if record.scope == "type_checking":
                    continue  # erased at runtime — the sanctioned idiom
                if (
                    record.scope == "function"
                    and (module_name, layer) in _LAZY_ALLOWLIST
                ):
                    continue
                how = (
                    "at module scope"
                    if record.scope == "module"
                    else "inside a function (not on the lazy-import allowlist)"
                )
                yield self.finding(
                    module,
                    record.node,
                    f"`{module_name}` is core-layer code but imports "
                    f"`{record.target}` ({layer}) {how}; the hot core must "
                    "stay importable without orchestration layers — use "
                    "`if TYPE_CHECKING:` for annotations or invert the "
                    "dependency (see docs/LINTING.md for the allowlist)",
                )

    def _forbidden_layer(self, target: str) -> Optional[str]:
        for layer in _FORBIDDEN:
            if target == layer or target.startswith(layer + "."):
                return layer
        return None


@register
class CoreOutputRule(Rule):
    """The hot core neither logs nor prints — observability is attached
    from the outside (``repro.obs``), never baked into simulation code."""

    id = "SL016"
    severity = "error"
    summary = "logging or print() in core/disk simulation code"

    def applies_to(self, module: LintModule) -> bool:
        name = module.module
        # Package-boundary match, like SL002: "repro.core.engine" is
        # covered, "repro.corelib" is not.
        return any(
            name == layer or name.startswith(layer + ".")
            for layer in _CORE_LAYERS
        )

    def check(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "logging" or alias.name.startswith(
                        "logging."
                    ):
                        yield self.finding(
                            module,
                            node,
                            "`import logging` in core-layer code: the hot "
                            "core must not log (every record reads the wall "
                            "clock and formats strings on the simulation "
                            "path); attach a repro.obs Observer from the "
                            "orchestration layer instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "logging" or (
                    node.module or ""
                ).startswith("logging."):
                    yield self.finding(
                        module,
                        node,
                        "`from logging import ...` in core-layer code: the "
                        "hot core must not log; attach a repro.obs Observer "
                        "from the orchestration layer instead",
                    )
            elif isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id == "print":
                    yield self.finding(
                        module,
                        node,
                        "`print()` in core-layer code: stdout writes on the "
                        "simulation path are both slow and invisible to the "
                        "service's structured logs; return data and let the "
                        "caller report it",
                    )
