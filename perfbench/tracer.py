"""Span tracing of the foldoptics package from outside its source.

`Tracer.install()` replaces every public function of each package module
(the names in the module's ``__all__``, plus ``cli.main`` and the
``cli.check_*`` validation checks) by a timing wrapper, in every
``foldoptics.*`` namespace and module-level container where the function
is bound.  Calls across modules and calls within one module are therefore
both recorded.  Spans stay in memory; `summarize()` turns them into
per-layer self times and counts at the end of the run.

The layer of a span is the module that defines the function.  A layer's
self time is the summed duration of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("specfun", "rays", "wkb", "kl", "stphase", "wigner", "surgery", "cli")

# Airy argument bands of the specfun kernel: Maclaurin series on
# -7.8 <= z <= 6.3, exponential asymptotics above, oscillatory below.
SERIES_POS_EDGE = 6.3
SERIES_NEG_EDGE = -7.8

N_CHECKS = 11


def _modules() -> Dict[str, object]:
    import foldoptics.cli  # noqa: F401  (imports every layer)

    return {name: sys.modules[f"foldoptics.{name}"] for name in LAYERS}


def _namespaces():
    """Every loaded foldoptics module: the package and its submodules."""
    return [
        (name, module) for name, module in list(sys.modules.items())
        if name == "foldoptics" or name.startswith("foldoptics.")
    ]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def traced_names(module, layer: str) -> List[str]:
    """Names of the functions the tracer wraps in one layer module."""
    names = [n for n in getattr(module, "__all__", ()) if inspect.isfunction(getattr(module, n))]
    if layer == "cli":
        names += sorted(
            n for n, obj in vars(module).items()
            if n.startswith("check_") and inspect.isfunction(obj) and n not in names
        )
        if "main" not in names:
            names.append("main")
    return names


class Counts:
    """Work counts taken at the layer boundaries while tracing."""

    def __init__(self):
        self.scalar_calls = 0
        self.points = {"series": 0, "pos": 0, "neg": 0}
        self.chord_calls = 0
        self.chord_found = 0
        self.numeric_rows = 0
        self.sigma_nodes = 0

    def on_return(self, qualname: str, args, kwargs, result) -> None:
        if qualname == "specfun.airy":
            z = np.asarray(_arg(args, kwargs, 0, "z"), dtype=float)
            if z.ndim == 0:
                self.scalar_calls += 1
            series = (z >= SERIES_NEG_EDGE) & (z <= SERIES_POS_EDGE)
            self.points["series"] += int(np.count_nonzero(series))
            self.points["pos"] += int(np.count_nonzero(z > SERIES_POS_EDGE))
            self.points["neg"] += int(np.count_nonzero(z < SERIES_NEG_EDGE))
        elif qualname == "wigner.chord_points":
            self.chord_calls += 1
            self.chord_found += result is not None
        elif qualname == "wigner.wigner_numeric":
            rows = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "xs"))).size
            self.numeric_rows += rows
            self.sigma_nodes += rows * _arg(args, kwargs, 3, "q").sigma_samples


class Tracer:
    """Records one span per wrapped call: (qualname, start, end, parent)."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts = Counts()
        self._stack: List[int] = []
        self._restore: List[tuple] = []
        self._originals: Dict[int, str] = {}

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts.on_return(qualname, args, kwargs, result)
            return result

        wrapper.__traced__ = qualname
        return wrapper

    def install(self) -> None:
        """Replace each traced function wherever a foldoptics module binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in _modules().items():
            for name in traced_names(module, layer):
                fn = getattr(module, name)
                qualname = f"{layer}.{name}"
                self._originals[id(fn)] = qualname
                wrappers[id(fn)] = self._wrap(qualname, fn)
        for _, module in _namespaces():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    replacement = wrappers[id(value)]
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    # e.g. the ordered tuple of validation checks in cli
                    replacement = tuple(wrappers.get(id(v), v) for v in value)
                else:
                    continue
                self._restore.append((module, attr, value))
                setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def missing(self) -> List[str]:
        """While installed: traced names left unwrapped in their defining
        module, and places in any foldoptics namespace still bound to an
        unwrapped original."""
        out = [
            f"{layer}.{name}"
            for layer, module in _modules().items()
            for name in traced_names(module, layer)
            if not hasattr(getattr(module, name), "__traced__")
        ]
        for modname, module in _namespaces():
            for attr, value in vars(module).items():
                values = value if isinstance(value, tuple) else (value,)
                if any(id(v) in self._originals for v in values):
                    out.append(f"{modname}.{attr}")
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, f)
            f.write("\n")


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-layer self time: span duration minus its direct children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, _), covered in zip(spans, child_time):
        out[name.split(".", 1)[0]] += (end - start) - covered
    return out


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    calls = {layer: 0 for layer in LAYERS}
    inclusive: Dict[str, float] = {}
    ncalls: Dict[str, int] = {}
    for name, start, end, _ in spans:
        calls[name.split(".", 1)[0]] += 1
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        ncalls[name] = ncalls.get(name, 0) + 1

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
        m[f"{layer}.calls"] = calls[layer]
    points = sum(counts.points.values())
    m["specfun.scalar_calls"] = counts.scalar_calls
    m["specfun.points_series"] = counts.points["series"]
    m["specfun.points_pos"] = counts.points["pos"]
    m["specfun.points_neg"] = counts.points["neg"]
    m["specfun.points_per_s"] = points / selfs["specfun"] if selfs["specfun"] > 0 else 0.0
    semi = ("wigner.semiclassical_wigner_uniform", "wigner.semiclassical_wigner_local")
    m["wigner.semiclassical_s"] = sum(inclusive.get(n, 0.0) for n in semi)
    m["wigner.semiclassical_calls"] = sum(ncalls.get(n, 0) for n in semi)
    m["wigner.chord_calls"] = counts.chord_calls
    m["wigner.chord_found_frac"] = (
        counts.chord_found / counts.chord_calls if counts.chord_calls else 0.0
    )
    m["wigner.numeric_s"] = inclusive.get("wigner.wigner_numeric", 0.0)
    m["wigner.numeric_rows"] = counts.numeric_rows
    m["wigner.sigma_nodes"] = counts.sigma_nodes
    m["surgery.stationary_calls"] = ncalls.get("surgery.stationary_points", 0)
    # criterion n is the n-th entry of the ordered tuple of checks in cli
    checks = [fn.__name__ for fn in sys.modules["foldoptics.cli"]._CHECKS]
    for i in range(N_CHECKS):
        name = f"cli.{checks[i]}" if i < len(checks) else ""
        m[f"cli.check{i + 1:02d}_s"] = inclusive.get(name, 0.0)
    return m
