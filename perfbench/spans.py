"""Spans around the public functions of fraclangevin's modules.

``install`` replaces each public function of the traced modules (the
callables named in a module's ``__all__`` that the module itself
defines) by a wrapper that records one span per call: name, start, end,
parent span, operation id and whether it returned.  The wrapper is put
into every loaded ``fraclangevin`` namespace that refers to the
function, so calls between modules are seen too.  Work a module does
through its private helpers is not seen; it counts as its caller's self
time.  Spans stay in memory until ``Tracer.export``.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

# Layers whose public functions are traced.  ``core`` (grid and path
# containers) is left out: its cost is negligible.  The ``cli`` layer is
# a separate process per command; cli_shim.py traces it.
LAYERS = ("noise", "kernels", "fbm", "langevin", "fractional", "hurst")

# Public functions that build and cache one dense n x n float64 operator
# per (Hurst index, grid), passed as their first two arguments.
DENSE_BUILDERS = ("kernels.kernel_matrix", "kernels.weight_matrix",
                  "fbm.sample_fbm_exact")


def _operator_key(args):
    try:
        hurst = getattr(args[0], "hurst", args[0])
        return [float(hurst), int(args[1].n_cells)]
    except (IndexError, AttributeError, TypeError, ValueError):
        return None


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.op = None  # id of the operation in progress, set by the workload
        self._open = []
        self._t0 = time.perf_counter()

    def wrap(self, name, fn):
        keyed = name in DENSE_BUILDERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._open[-1] if self._open else None,
                    "op": self.op, "ok": False,
                    "key": _operator_key(args) if keyed else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter() - self._t0
            try:
                result = fn(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                span["end"] = time.perf_counter() - self._t0
                self._open.pop()

        return traced

    def export(self, proc=0):
        """The recorded spans, each tagged with process id ``proc``."""
        return [dict(s, proc=proc) for s in self.spans]


def install(tracer):
    """Route every public function of LAYERS through ``tracer``."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"fraclangevin.{layer}")
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for name, mod in list(sys.modules.items()):
        if name == "fraclangevin" or name.startswith("fraclangevin."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])


def concat(span_lists):
    """Join per-process span lists, re-basing parent indices."""
    out = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            out.append(dict(s, parent=None if s["parent"] is None
                            else s["parent"] + base))
    return out


def summarize(spans):
    """Figures derived from spans, keyed by metric name.

    Per function: ``calls``, ``busy_s`` (summed duration), ``p50_ms``
    (median duration) and, for dense builders, ``first_s`` (summed
    duration of the first call per operator key and process).  Per
    module: ``self_s`` (duration not covered by child spans), ``calls``,
    ``failed`` (spans that raised) and ``dense_bytes``, which is
    computed, not measured: 8 n^2 per distinct operator key built in
    each process.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    durations = defaultdict(list)
    first = {}
    out = defaultdict(float)
    for i, s in enumerate(spans):
        name = s["name"]
        module = name.split(".")[0]
        dur = s["end"] - s["start"]
        durations[name].append(dur)
        out[f"{module}.self_s"] += dur - covered[i]
        out[f"{module}.calls"] += 1
        out[f"{module}.failed"] += not s["ok"]
        if s["key"] is not None:
            key = (name, s["proc"], tuple(s["key"]))
            if key not in first:
                first[key] = dur
                out[f"{module}.dense_bytes"] += 8 * s["key"][1] ** 2
    for name, durs in durations.items():
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.busy_s"] = sum(durs)
        out[f"{name}.p50_ms"] = 1e3 * statistics.median(durs)
    for (name, _, _), dur in first.items():
        out[f"{name}.first_s"] += dur
    out["trace.spans"] = len(spans)
    return dict(out)
