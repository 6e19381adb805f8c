"""Per-layer tracing of momentcert from outside the package.

The tracer swaps each public function it watches for a wrapper, in every
loaded momentcert module that binds it (a from-import binds the same
function object under the importing module's name), and puts the
originals back on exit. Span wrappers record (job, span id, parent,
name, start, end) and the time their children covered; count-only
wrappers on hot helpers just bump a counter. Counters derived from call
arguments are computed outside the span and billed to no layer, so self
times measure the library, not the tracer.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

Before = Callable[["Tracer", tuple, dict], None]
After = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is defined and the layer group it bills to.

    A count-only target bumps the counter named by its group and records
    no span; a span target bumps "<group>.calls" and bills its self time
    to the group.
    """

    module: str
    name: str
    group: str
    count_only: bool = False
    before: Optional[Before] = None
    after: Optional[After] = None


@dataclass
class Span:
    job: int
    sid: int
    parent: Optional[int]
    group: str
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


@dataclass
class Tracer:
    """Spans and counters for the jobs run while it is patched in."""

    targets: list[Target]
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list, init=False)
    counters: Counter = field(default_factory=Counter, init=False)
    fired: Counter = field(default_factory=Counter, init=False)
    job: int = field(default=0, init=False)
    # Scratch space for hooks, emptied at the start of every job.
    job_state: dict = field(default_factory=dict, init=False)
    _stack: list[Span] = field(default_factory=list, init=False)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list, init=False)

    # -- patching ----------------------------------------------------------

    def patch(self, job: int) -> None:
        """Install every wrapper; spans recorded until unpatch() belong to job."""
        if self._saved:
            raise RuntimeError("tracer is already patched in")
        self.job = job
        self.job_state = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "momentcert" or name.startswith("momentcert.")]
        for target in self.targets:
            owner = sys.modules[target.module]
            if "." in target.name:
                cls_name, attr = target.name.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, target.name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()

    @contextlib.contextmanager
    def active(self, job: int) -> Iterator["Tracer"]:
        """Patched in for the body of the with-block, for one job."""
        self.patch(job)
        try:
            yield self
        finally:
            self.unpatch()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        key = f"{target.module}.{target.name}"
        if target.count_only:

            @functools.wraps(fn)
            def count(*args, **kwargs):
                self.fired[key] += 1
                self.counters[target.group] += 1
                return fn(*args, **kwargs)

            return count

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0 = self.clock()
            self.fired[key] += 1
            self.counters[f"{target.group}.calls"] += 1
            if target.before is not None:
                target.before(self, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            rec = Span(self.job, len(self.spans), parent.sid if parent else None, target.group)
            self.spans.append(rec)
            self._stack.append(rec)
            rec.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent.child += rec.end - t0
            if target.after is not None:
                target.after(self, args, kwargs, result)
                if parent is not None:
                    parent.child += self.clock() - rec.end
            return result

        return span

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        """Total self time per group over every recorded span."""
        out: Counter = Counter()
        for s in self.spans:
            out[s.group] += s.self_time
        return out
