"""In-memory spans recorded around library calls, from outside the library.

A `Tracer` wraps functions of the `dirichlet_curve` package without touching
its source: `Patcher.wrap` replaces a function at every module attribute that
holds it, so callers that imported the function by name (for example
`from .measures import draw_measure` in `stickbreak`, `stats` and `cauchy`)
see the wrapper too. Each call records a span with its name, start, end,
parent and the counts taken from its arguments and result.

The self time of a span is its duration minus the part of its interval that
its direct children cover. With one thread of work the spans nest, so the
self times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: int
    end: int = -1
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; times are integer nanoseconds."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str, counts: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, counts=counts or {}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} ended out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable[[tuple, dict], dict]] = None,
        result_counts: Optional[Callable[[object], dict]] = None,
    ) -> Callable:
        """`fn` with a span around each call; `counts` reads its arguments,
        `result_counts` its return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, counts(args, kwargs) if counts else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if result_counts is not None:
                self.spans[idx].counts.update(result_counts(out))
            return out

        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0, span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


class _ModuleProxy:
    """Stands in for a module at one import site, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Patcher:
    """Replaces functions at every import site in a set of modules; `restore`
    puts the originals back."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def wrap(self, original: Callable, replacement: Callable) -> list[str]:
        """Point every attribute that holds `original` at `replacement`;
        returns the sites as 'module.attr'."""
        sites = []
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                    sites.append(f"{module.__name__}.{attr}")
        if not sites:
            raise LookupError(f"{original!r} is held by none of the modules")
        return sites

    def proxy(self, module, attr: str, **overrides) -> None:
        """Give `module` a stand-in for its attribute `attr` (a module)."""
        self._set(module, attr, _ModuleProxy(getattr(module, attr), **overrides))

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
