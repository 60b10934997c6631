"""Spans around the program's public functions, recorded from outside.

:class:`Tracer` replaces a function at each module attribute the program
calls it through with a wrapper that records a span (layer name,
duration, time covered by child spans on the same thread), and puts the
original back on :meth:`Tracer.uninstall`.  Nothing inside the package is
edited.  Spans stay in memory until :meth:`Tracer.layer_metrics` summarizes
them.  The wrappers are safe under the CLI's worker threads: each thread
keeps its own stack of open spans, and finished spans are appended under a
lock.  A span opened on a worker thread has no parent, so the self time of a
span counts only children on its own thread.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

# layer name -> (module, attribute) pairs the program calls the layer through.
# Class attributes are given as "Class.method".
LAYERS = {
    "roundtrip.run_roundtrip_trial": [("cli", "run_roundtrip_trial")],
    "random_data.draw": [("cli", "random_cyclic_data"), ("cli", "random_multiplicity_data")],
    "hankel_core.forward_extract": [("cli", "forward_extract"), ("roundtrip", "forward_extract")],
    "hankel_core.singular_values": [("hankel_core", "HankelMatrix.singular_values")],
    "hankel_core.from_gamma": [("hankel_core", "HankelMatrix.from_gamma")],
    "hankel_core.certified_truncation": [("hankel_core", "certified_truncation")],
    "hankel_core.gamma_sequence": [("hankel_core", "gamma_sequence")],
    "operator_assembly.assemble": [("operator_assembly", "assemble"), ("cli", "assemble"),
                                   ("roundtrip", "assemble"), ("hankel_core", "assemble")],
    "stability.stability_report": [("stability", "stability_report"), ("cli", "stability_report")],
    "clark.gp_convert_to_inner": [("clark", "gp_convert_to_inner"), ("cli", "gp_convert_to_inner")],
    "clark.gp_convert_to_measures": [("clark", "gp_convert_to_measures"),
                                     ("cli", "gp_convert_to_measures")],
    "serialize.dumps": [("serialize", "dumps")],
    "serialize.loads": [("serialize", "loads")],
}

# Sizes taken from a layer's arguments or result: layer -> (size name, getter).
SIZES = {
    "hankel_core.from_gamma": [
        ("hankel_core.truncation_N", lambda args, out: out.N),
        ("hankel_core.hankel_matrix_mb", lambda args, out: (out.gamma.nbytes + out.entries.nbytes) / 1e6),
    ],
    "operator_assembly.assemble": [("operator_assembly.dim", lambda args, out: out.dim)],
    "serialize.dumps": [("serialize.bytes_written", lambda args, out: len(out.encode()))],
}


def percentile_kept(durations, q: float) -> float:
    """The q-quantile of the durations when at least ten samples lie beyond
    it, else 0 (not kept)."""
    n = len(durations)
    if n == 0 or n * (1.0 - q) < 10:
        return 0.0
    return float(np.quantile(durations, q))


class Tracer:
    def __init__(self, package):
        self._package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []
        self.spans = []    # (layer, duration_s, child_s)
        self.sizes = {}    # size name -> list of values

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        sizes = SIZES.get(layer, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.spans.append((layer, duration, child))
            with self._lock:
                for name, get in sizes:
                    self.sizes.setdefault(name, []).append(float(get(args, out)))
            return out

        return wrapper

    def install(self):
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = getattr(self._package, module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def layer_metrics(self) -> dict:
        """calls, s_p50, s_p90 and self_s_total per layer, plus sizes."""
        by_layer = {layer: [] for layer in LAYERS}
        self_total = dict.fromkeys(LAYERS, 0.0)
        for layer, duration, child in self.spans:
            by_layer[layer].append(duration)
            self_total[layer] += duration - child
        out = {}
        for layer, durations in by_layer.items():
            out[f"{layer}.calls"] = (len(durations), "count")
            out[f"{layer}.s_p50"] = (percentile_kept(durations, 0.5), "s")
            out[f"{layer}.s_p90"] = (percentile_kept(durations, 0.9), "s")
            out[f"{layer}.self_s_total"] = (self_total[layer], "s")
        for name in ("hankel_core.truncation_N", "operator_assembly.dim"):
            values = self.sizes.get(name, [])
            out[f"{name}_p50"] = (float(np.median(values)) if values else 0.0, "count")
        out["hankel_core.hankel_matrix_mb"] = (max(self.sizes.get("hankel_core.hankel_matrix_mb", [0.0])), "MB")
        out["serialize.bytes_written"] = (int(sum(self.sizes.get("serialize.bytes_written", []))), "bytes")
        return out

    def total_seconds(self, layer: str) -> float:
        return sum(d for name, d, _ in self.spans if name == layer)
