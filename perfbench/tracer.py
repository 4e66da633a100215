"""Outside-in span tracer for the `wcox` package.

The tracer replaces, for the duration of a `with tracer.installed():`
block, every function named in a module's ``__all__`` at every place a
module of the package binds it (the defining module, the package
``__init__`` and every module that imported it by name).  Each call then
records a span: a name, a start, an end and the index of its parent span.
Spans stay in memory; `function_stats()` and `report()` summarise them
when the run ends.  Nothing in the package source is changed, and leaving the block
puts every original binding back.

Counts are read from the objects the wrapped functions return:
``iterations``, ``ridged``, ``n_requested``, ``n_dropped`` and ``n_failed``
are summed, and the ``drop_reasons`` / ``failure_reasons`` dictionaries
are merged.
Exceptions that escape a wrapped function are counted by type.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import numbers
import sys
import time
from collections import Counter, defaultdict

_COUNTED = ("iterations", "ridged", "n_requested", "n_dropped", "n_failed")
_REASONS = ("drop_reasons", "failure_reasons")


def layer_name(module_name: str, package: str) -> str:
    """Metric prefix of a module: `wcox._engine` -> `engine`."""
    short = module_name[len(package) + 1:] if module_name != package else package
    return short.lstrip("_")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover.

    `spans` is a sequence of (name, start, end, parent) with parent the
    index of the enclosing span or None.
    """
    children = defaultdict(list)
    for k, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for k, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span and counter recorder; inert until `installed()` is entered."""

    def __init__(self, package: str = "wcox", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.reasons: dict[str, Counter] = defaultdict(Counter)
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.wrapped: dict[str, object] = {}
        self._stack: list[int] = []

    # ------------------------------------------------------------ recording

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span named `name`."""
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def wrap(self, fn, name: str):
        """`fn` with every call recorded as a span named `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name][type(exc).__name__] += 1
                raise
            self._read_counts(name, out)
            return out

        return traced

    def _read_counts(self, name: str, out) -> None:
        for attr in _COUNTED:
            value = getattr(out, attr, None)
            if isinstance(value, numbers.Integral):
                self.counts[name][attr] += int(value)
        for attr in _REASONS:
            value = getattr(out, attr, None)
            if isinstance(value, dict):
                reasons = self.reasons[f"{name}.{attr}"]  # listed even when empty
                for key, n in value.items():
                    reasons[str(key)] += int(n)

    # ------------------------------------------------------------- patching

    def _modules(self):
        """The loaded modules of the package, the package itself included."""
        return [
            (name, mod)
            for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]

    def _targets(self):
        """Public functions of the package, keyed by id, with layer names.

        A name listed in `__all__` that the module no longer defines, or
        that is not a plain function, is skipped.
        """
        targets = {}
        for mod_name, mod in self._modules():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod_name:
                    layer = layer_name(mod_name, self.package)
                    targets[id(obj)] = (obj, f"{layer}.{obj.__name__}")
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of the loaded package modules."""
        targets = self._targets()
        wrappers = {key: self.wrap(fn, name) for key, (fn, name) in targets.items()}
        self.wrapped = {name: fn for fn, name in targets.values()}
        replaced = []
        try:
            for _, mod in self._modules():
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers and targets[id(value)][0] is value:
                        setattr(mod, attr, wrappers[id(value)])
                        replaced.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in reversed(replaced):
                setattr(mod, attr, value)

    # -------------------------------------------------------------- summary

    def roots_total(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(e - s for _, s, e, p in self.spans if p is None and e is not None)

    def function_stats(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, plus the returned counts."""
        selfs = self_times(self.spans)
        stats: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, selfs):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += own
        for name, counter in self.counts.items():
            stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            stats[name].update(counter)
        return stats

    def report(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "functions": self.function_stats(),
            "reasons": {k: dict(v) for k, v in self.reasons.items()},
            "errors": {k: dict(v) for k, v in self.errors.items()},
            "wrapped": sorted(self.wrapped),
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
        }
