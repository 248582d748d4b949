"""Span tracer that instruments the manetopt package from outside.

`install` wraps every function named in a module's `__all__` plus every
public function in `manetopt.engine`, and rebinds each module global (and
each value of a module-level dict, such as `experiments.SCENARIOS`) that
refers to the same function object.  Modules import by name
(`experiments.infer`, `engine.project_with_tangent`), so rebinding every
reference is what makes a call through any of them visible.  A public
function added later is traced without editing this file.

Spans stay in memory: (function, parent span, start, end, batch elements).
`summarize` turns them into per-function totals; `write_spans` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import pkgutil
import time
from types import ModuleType

import numpy as np

# Modules whose public (non-underscore) functions are traced even when they
# are not listed in `__all__`.
ALL_PUBLIC = ("engine",)


def _elements(args: tuple) -> int:
    """Batch elements of a call: the number of matrices in the first array
    argument with at least two axes (its product of leading axes)."""
    for arg in args:
        if type(arg) is np.ndarray and arg.ndim >= 2:
            return math.prod(arg.shape[:-2])
    return 0


class Tracer:
    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn):
        index = len(self.names)
        self.names.append(fn.__module__.removeprefix(self.prefix) + "." + fn.__qualname__)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            elems = _elements(args)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, parent, start, end, elems)

        return traced

    def summarize(self) -> dict:
        """Per-function totals keyed by `<module>.<function>`.

        `s` is inclusive time, `self_s` excludes the time of child spans,
        `elems` sums batch elements, `ms_p50`/`ms_p95` are per-call
        percentiles.  `under[ancestor][name]` counts the spans of `name`
        that run inside a span of `ancestor`, at any depth: [calls, elems,
        number of distinct `ancestor` spans they ran in].
        """
        names = self.names
        spans = self.spans
        child_time = [0.0] * len(spans)
        for index, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}
        for i, (index, _, start, end, elems) in enumerate(spans):
            name = names[index]
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "elems": 0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["elems"] += elems
            durations.setdefault(name, []).append(end - start)
        for name, values in durations.items():
            values.sort()
            table[name]["ms_p50"] = 1e3 * _percentile(values, 50)
            table[name]["ms_p95"] = 1e3 * _percentile(values, 95)

        # Attribute every span to each of its ancestors' functions once.
        under: dict[str, dict[str, list]] = {}
        ancestors: list[dict[int, int]] = [None] * len(spans)
        for i, (index, parent, _, _, elems) in enumerate(spans):
            chain = dict(ancestors[parent]) if parent >= 0 else {}
            name = names[index]
            for anc_index, anc_span in chain.items():
                if anc_index == index:
                    continue
                cell = under.setdefault(names[anc_index], {}).setdefault(
                    name, [0, 0, set()]
                )
                cell[0] += 1
                cell[1] += elems
                cell[2].add(anc_span)
            chain.setdefault(index, i)
            ancestors[i] = chain
        for by_name in under.values():
            for cell in by_name.values():
                cell[2] = len(cell[2])
        return {"functions": table, "under": under, "spans": len(spans)}

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,parent,start_s,end_s,elems\n")
            for i, (index, parent, start, end, elems) in enumerate(self.spans):
                fh.write(f"{i},{self.names[index]},{parent},{start:.9f},{end:.9f},{elems}\n")


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _modules(package: ModuleType) -> list[ModuleType]:
    names = [info.name for info in pkgutil.iter_modules(package.__path__)]
    return [package] + [importlib.import_module(f"{package.__name__}.{n}") for n in names]


def install(package: ModuleType) -> Tracer:
    """Wrap the package's public functions and rebind every reference."""
    tracer = Tracer(prefix=package.__name__ + ".")
    modules = _modules(package)
    wrappers: dict = {}
    for module in modules:
        public = list(getattr(module, "__all__", ()))
        if module.__name__.rpartition(".")[2] in ALL_PUBLIC:
            public += [n for n in vars(module) if not n.startswith("_")]
        for name in public:
            fn = getattr(module, name, None)
            if (
                inspect.isfunction(fn)
                and fn.__module__.startswith(tracer.prefix)
                and fn not in wrappers
            ):
                wrappers[fn] = tracer.wrap(fn)
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, name, wrappers[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrappers:
                        value[key] = wrappers[item]
    return tracer
