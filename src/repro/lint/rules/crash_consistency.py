"""The crash-consistency protocol rule (SL013).

Durable state in this repo survives ``kill -9`` because every writer
follows one protocol (docs/FAULTS.md, docs/RUNNER.md, docs/SERVICE.md):

* **Atomic replace** — write to a temp file in the same directory, then
  ``flush`` → ``os.fsync(fd)`` → ``os.replace(tmp, final)``.  Skipping
  the fsync leaves a window where the rename is durable but the *data*
  is not: after a crash the final path exists with truncated or empty
  contents — the exact corruption ``write_json_atomic`` exists to
  prevent.
* **Append-only logs** — the run journal (which is also the service's
  result store) is only ever opened for appending; a truncating open
  silently discards the crash-recovery history.

SL013 runs the forward dataflow from :mod:`repro.lint.dataflow` over
every function that renames a file, tracking each write-handle through
the states OPENED → WRITTEN → FLUSHED → FSYNCED.  The fsync must name
the *same* handle's fd (``os.fsync(other.fileno())`` does not make this
one durable), and a write through a handle whose path was already
renamed is flagged as a write-after-rename.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.astutil import unparse
from repro.lint.dataflow import AbstractState, ForwardAnalysis
from repro.lint.engine import Finding, LintModule, Rule
from repro.lint.rules import _dotted, register

# Handle protocol states, in order.
_OPENED, _WRITTEN, _FLUSHED, _FSYNCED = range(4)

_STATE_WORDS = {
    _OPENED: "never written",
    _WRITTEN: "written but never flushed or fsynced",
    _FLUSHED: "flushed but never fsynced",
}

_TRUNCATING_MODES = frozenset({"w", "wb", "wt", "w+", "wb+", "w+b"})

#: Path expressions that denote the append-only crash-recovery logs.
_APPEND_ONLY = re.compile(
    r"journal_path|log_path|JOURNAL_NAME|journal\.jsonl|log\.jsonl"
)

_DUMPERS = frozenset({"dump", "write", "writelines"})


class _Handle:
    __slots__ = ("state", "path_text", "closed")

    def __init__(self, path_text: str) -> None:
        self.state = _OPENED
        self.path_text = path_text
        self.closed = False

    def clone(self) -> "_Handle":
        copy = _Handle(self.path_text)
        copy.state = self.state
        copy.closed = self.closed
        return copy


class _ProtocolState(AbstractState):
    """Per-variable handle facts plus the set of already-renamed paths.

    Findings and the dedup set are *shared* between branch copies on
    purpose: a protocol violation on either arm of an ``if`` is real.
    """

    def __init__(self) -> None:
        self.handles: Dict[str, _Handle] = {}
        self.fd_aliases: Dict[str, str] = {}  # fd var -> handle var
        self.renamed: Set[str] = set()
        self.findings: List[Tuple[ast.AST, str]] = []
        self._seen: Set[Tuple[int, str]] = set()

    def copy(self) -> "_ProtocolState":
        twin = _ProtocolState()
        twin.handles = {name: h.clone() for name, h in self.handles.items()}
        twin.fd_aliases = dict(self.fd_aliases)
        twin.renamed = set(self.renamed)
        twin.findings = self.findings
        twin._seen = self._seen
        return twin

    def join(self, other: AbstractState) -> None:
        assert isinstance(other, _ProtocolState)
        for name, theirs in other.handles.items():
            ours = self.handles.get(name)
            if ours is None:
                self.handles[name] = theirs
            else:
                ours.state = min(ours.state, theirs.state)
                ours.closed = ours.closed and theirs.closed
        self.fd_aliases.update(other.fd_aliases)
        self.renamed |= other.renamed

    def report(self, node: ast.AST, message: str) -> None:
        key = (getattr(node, "lineno", 0), message)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append((node, message))


class _ProtocolAnalysis(ForwardAnalysis):
    """Interprets open/write/flush/fsync/replace against _ProtocolState."""

    def __init__(self) -> None:
        self._with_bindings: Dict[ast.stmt, List[str]] = {}

    # -- statement interpretation -----------------------------------------

    def transfer(self, stmt: ast.stmt, state: AbstractState) -> None:
        assert isinstance(state, _ProtocolState)
        if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
            return  # headers carry no protocol effects in this codebase
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self._bind(target.id, stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target.id, stmt.value, state)
        for call in self._calls_in(stmt):
            self._interpret_call(call, state)

    def enter_with(self, stmt: ast.stmt, state: AbstractState) -> None:
        assert isinstance(state, _ProtocolState)
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        bound: List[str] = []
        for item in stmt.items:
            expr = item.context_expr
            if (
                isinstance(item.optional_vars, ast.Name)
                and isinstance(expr, ast.Call)
                and _is_open(expr)
            ):
                name = item.optional_vars.id
                state.handles[name] = _Handle(_open_path_text(expr))
                bound.append(name)
        self._with_bindings[stmt] = bound

    def exit_with(self, stmt: ast.stmt, state: AbstractState) -> None:
        assert isinstance(state, _ProtocolState)
        for name in self._with_bindings.get(stmt, []):
            handle = state.handles.get(name)
            if handle is not None:
                handle.closed = True
                # close() flushes Python's buffer to the OS — data is in
                # the page cache but still not durable without fsync.
                if handle.state == _WRITTEN:
                    handle.state = _FLUSHED

    # -- helpers -----------------------------------------------------------

    def _bind(self, name: str, value: ast.AST, state: _ProtocolState) -> None:
        if isinstance(value, ast.Call) and _is_open(value):
            state.handles[name] = _Handle(_open_path_text(value))
            return
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "fileno"
        ):
            receiver = value.func.value
            if isinstance(receiver, ast.Name) and receiver.id in state.handles:
                state.fd_aliases[name] = receiver.id

    def _calls_in(self, stmt: ast.stmt) -> Iterator[ast.Call]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node

    def _interpret_call(self, call: ast.Call, state: _ProtocolState) -> None:
        func = call.func
        name = _dotted(func)
        # h.write(...) / h.flush() / json.dump(payload, h)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver, method = func.value.id, func.attr
            handle = state.handles.get(receiver)
            if handle is not None:
                if method in ("write", "writelines"):
                    self._write(call, handle, state)
                    return
                if method == "flush":
                    if handle.state == _WRITTEN:
                        handle.state = _FLUSHED
                    return
                if method == "close":
                    handle.closed = True
                    if handle.state == _WRITTEN:
                        handle.state = _FLUSHED
                    return
        if name is None:
            return
        last = name.rsplit(".", 1)[-1]
        # json.dump(obj, h) — writing through an argument handle.
        if last == "dump" and len(call.args) >= 2:
            sink = call.args[1]
            if isinstance(sink, ast.Name) and sink.id in state.handles:
                self._write(call, state.handles[sink.id], state)
            return
        if name in ("os.fsync", "os.fdatasync") and call.args:
            handle = self._handle_for_fd(call.args[0], state)
            if handle is not None and handle.state in (_WRITTEN, _FLUSHED):
                handle.state = _FSYNCED
            return
        if name in ("os.replace", "os.rename") and len(call.args) >= 2:
            src_text = unparse(call.args[0])
            handle = next(
                (
                    h
                    for h in state.handles.values()
                    if h.path_text == src_text and h.state < _FSYNCED
                ),
                None,
            )
            if handle is not None:
                word = _STATE_WORDS.get(handle.state, "not fsynced")
                state.report(
                    call,
                    f"`{name}({src_text}, ...)` publishes a file that was "
                    f"{word}: after a crash the rename can be durable while "
                    "the data is not — flush and os.fsync the handle's own "
                    "fd before renaming (see write_json_atomic)",
                )
            state.renamed.add(src_text)

    def _write(self, call: ast.Call, handle: _Handle, state: _ProtocolState) -> None:
        if handle.path_text in state.renamed:
            state.report(
                call,
                f"write to `{handle.path_text}` after it was already renamed "
                "into place: the published file is being modified in place, "
                "losing atomic-replace crash safety",
            )
        handle.state = _WRITTEN

    def _handle_for_fd(
        self, arg: ast.AST, state: _ProtocolState
    ) -> Optional[_Handle]:
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "fileno"
            and isinstance(arg.func.value, ast.Name)
        ):
            return state.handles.get(arg.func.value.id)
        if isinstance(arg, ast.Name):
            via_alias = state.fd_aliases.get(arg.id)
            if via_alias is not None:
                return state.handles.get(via_alias)
            return state.handles.get(arg.id)
        return None


def _is_open(call: ast.Call) -> bool:
    name = _dotted(call.func)
    return name in ("open", "io.open")


def _open_path_text(call: ast.Call) -> str:
    if call.args:
        return unparse(call.args[0])
    for keyword in call.keywords:
        if keyword.arg == "file":
            return unparse(keyword.value)
    return "<unknown>"


def _open_mode(call: ast.Call) -> str:
    if len(call.args) >= 2:
        mode = call.args[1]
    else:
        mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return "r"


@register
class CrashConsistencyRule(Rule):
    """The write → flush → fsync → ``os.replace`` protocol, checked by
    forward dataflow over every renaming function."""

    id = "SL013"
    severity = "error"
    summary = "crash-consistency protocol violation (fsync/rename/append-only)"

    def applies_to(self, module: LintModule) -> bool:
        return module.module.startswith("repro")

    def check(self, module: LintModule) -> Iterator[Finding]:
        yield from self._check_append_only(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._renames_files(node):
                continue
            analysis = _ProtocolAnalysis()
            state = _ProtocolState()
            analysis.analyze(node, state)
            for site, message in state.findings:
                yield self.finding(module, site, message)

    def _renames_files(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in ("os.replace", "os.rename"):
                    return True
        return False

    def _check_append_only(self, module: LintModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _is_open(node)):
                continue
            mode = _open_mode(node)
            if mode not in _TRUNCATING_MODES:
                continue
            path_text = _open_path_text(node)
            if _APPEND_ONLY.search(path_text):
                yield self.finding(
                    module,
                    node,
                    f"truncating open (mode {mode!r}) of append-only log "
                    f"`{path_text}`: the crash-recovery history is the whole "
                    "point of the log — open with mode 'a' and fsync appends",
                )
