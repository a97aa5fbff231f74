"""Bracket timing installed from outside the program.

A :class:`Ledger` keeps one start/stop stack per process.  Each wrapped
function pushes a frame for its layer; on exit the frame's duration,
less the time its wrapped children took, is that layer's *self time*.
So self times partition the wall time spent inside wrapped calls, and
nested calls of one layer (a policy hook calling another hook) are
charged once and counted once.

:class:`Patcher` swaps functions on classes and modules for wrapped
versions and puts the originals back on exit.  Nothing here is imported
by the program: the benchmark installs the wrappers before a traced run
(and, for the service, inside the server process before it serves), so
untraced runs execute the program exactly as shipped.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Ledger:
    """Per-layer self time and call counts, plus free-form counters and
    sample lists, for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds: outermost entries only, children included.
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Frames are ``[layer, child_seconds]``.
        self.stack: List[List[Any]] = []

    def reset(self) -> None:
        """Forget everything (a forked child starts from its parent's
        copy, which describes the parent's work, not its own)."""
        self.pid = os.getpid()
        for table in (self.self_s, self.incl_s, self.calls, self.counters,
                      self.samples):
            table.clear()
        del self.stack[:]

    def claim(self) -> None:
        """Reset if this process is not the one that last reset."""
        if os.getpid() != self.pid:
            self.reset()

    def wrap(self, fn: Callable[..., Any], layer: str,
             after: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
        """``fn`` bracketed as ``layer``.  ``after(result, args, kwargs,
        seconds)`` runs once the frame is closed, outside the timing."""
        stack = self.stack
        self_s = self.self_s
        incl_s = self.incl_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                self_s[layer] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                if outer != layer:
                    calls[layer] += 1
                    incl_s[layer] += spent
            if after is not None:
                after(result, args, kwargs, spent)
            return result

        return wrapper

    def to_dict(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def merge(self, data: Dict[str, Any]) -> None:
        """Add another process's :meth:`to_dict` into this ledger."""
        for key, table in (("self_s", self.self_s), ("incl_s", self.incl_s),
                           ("calls", self.calls),
                           ("counters", self.counters)):
            for name, value in data.get(key, {}).items():
                table[name] += value
        for name, values in data.get("samples", {}).items():
            self.samples[name].extend(values)

    def dump(self, path: str) -> None:
        """Write :meth:`to_dict` atomically (readers never see a torn
        file even if the writer is killed mid-write)."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self.to_dict(), handle)
        os.replace(tmp, path)


def merge_dir(ledger: Ledger, directory: str) -> int:
    """Merge every dumped ledger in ``directory``; returns how many."""
    merged = 0
    if not os.path.isdir(directory):
        return 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                ledger.merge(json.load(handle))
            merged += 1
    return merged


class Patcher:
    """Replace attributes for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        had_own = name in vars(owner)
        self._saved.append((owner, name, vars(owner).get(name), had_own))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, old, had_own = self._saved.pop()
            if had_own:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.restore()
