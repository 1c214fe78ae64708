"""Spans around the program's layers, recorded from outside the program.

The recorder replaces public functions by wrappers under the names by which
``qrevival.cli`` and ``qrevival.revival`` call them, and the integrator
under the names by which ``spectrum`` and ``wavepacket`` call it.  Each call
appends one span (name, start, end, parent span, operation id, counts) to a
list in memory; counts are read from the call's inputs and outputs, so they
repeat exactly.  A name that a module no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

MB = 2.0 ** 20


def _levels(args, kwargs, out):
    return {"levels": len(out)}


def _box_modes(args, kwargs, out):
    return {"box_modes": len(out.coefficients)}


def _fock_levels(args, kwargs, out):
    return {"fock_levels": len(out.weights)}


def _autocorr(args, kwargs, out):
    weights = args[0] if args else kwargs["weights"]
    carried = int(np.count_nonzero(np.asarray(weights) > 0))
    samples = len(out.tau)
    # The kernel holds one complex (tau chunk x carried levels) block at a
    # time; this is that block's size, computed, not measured.
    chunk = min(samples, getattr(importlib.import_module("qrevival.revival"), "_CHUNK",
                                 samples))
    return {"autocorr_terms": samples * carried, "autocorr_mb": chunk * carried * 16 / MB}


def _cycles(args, kwargs, out):
    series = args[0] if args else kwargs["series"]
    period = args[1] if len(args) > 1 else kwargs["revival_period"]
    return {"envelope_cycles": int(np.floor((series.tau[-1] - series.tau[0]) / period))}


# (module, attribute, span name, counter)
TARGETS = (
    ("cli", "solve_spectrum", "spectrum.solve", _levels),
    ("revival", "solve_spectrum", "spectrum.solve", _levels),
    ("cli", "project", "wavepacket.project", None),
    ("revival", "project", "wavepacket.project", None),
    ("cli", "infinite_project", "wavepacket.box_project", _box_modes),
    ("cli", "snapshot", "wavepacket.snapshot", None),
    ("cli", "autocorrelation", "revival.autocorr", _autocorr),
    ("revival", "autocorrelation", "revival.autocorr", _autocorr),
    ("anharmonic", "autocorrelation", "revival.autocorr", _autocorr),
    ("cli", "detect_revival", "revival.detect_revival", None),
    ("revival", "detect_revival", "revival.detect_revival", None),
    ("cli", "detect_superrevival", "revival.detect_superrevival", _cycles),
    ("cli", "coherent_weights", "anharmonic.weights", _fock_levels),
    ("cli", "squeezed_weights", "anharmonic.weights", _fock_levels),
    ("spectrum", "integrate_batched", "quad", None),
    ("wavepacket", "integrate_batched", "quad", None),
    ("wavepacket", "integrate", "quad", None),
)


class Recorder:
    """In-memory spans of one run; ``op`` is the id of the running operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        """Run ``fn`` inside a span and return its result."""
        kwargs = kwargs or {}
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        counts = {}
        if name == "quad":
            args, counts = _counting_integrand(args, kwargs)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = [name, start, end, parent, self.op, counts]
        if counter is not None:
            counts.update(counter(args, kwargs, out))
        return out

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return wrapper

    def install(self):
        for module_name, attr, name, counter in TARGETS:
            try:
                module = importlib.import_module(f"qrevival.{module_name}")
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self):
        """Span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation layer times and counts over the recorded spans."""
        total, counts, peak_mb = {}, {}, 0.0
        self_time = self.self_times()
        for (name, start, end, _, _, c), own in zip(self.spans, self_time):
            key = "cli.self" if name == "cli" else name
            total[key] = total.get(key, 0.0) + (own if name == "cli" else end - start)
            for k, v in c.items():
                if k == "autocorr_mb":
                    peak_mb = max(peak_mb, v)
                else:
                    counts[k] = counts.get(k, 0) + v

        def per_op(key, table=total):
            return table.get(key, 0) / ops

        return {
            "cli.self_s": (per_op("cli.self"), "s"),
            "cli.output_mb": (per_op("bytes", counts) / MB, "MB"),
            "spectrum.solve_s": (per_op("spectrum.solve"), "s"),
            "spectrum.levels": (per_op("levels", counts), "count"),
            "quad.s": (per_op("quad"), "s"),
            "quad.integrand_points": (per_op("integrand_points", counts), "count"),
            "wavepacket.project_s": (per_op("wavepacket.project"), "s"),
            "wavepacket.box_project_s": (per_op("wavepacket.box_project"), "s"),
            "wavepacket.box_modes": (per_op("box_modes", counts), "count"),
            "wavepacket.snapshot_s": (per_op("wavepacket.snapshot"), "s"),
            "revival.autocorr_s": (per_op("revival.autocorr"), "s"),
            "revival.autocorr_terms": (per_op("autocorr_terms", counts), "count"),
            "revival.autocorr_mb": (peak_mb, "MB_computed"),
            "revival.detect_revival_s": (per_op("revival.detect_revival"), "s"),
            "revival.detect_superrevival_s": (per_op("revival.detect_superrevival"), "s"),
            "revival.envelope_cycles": (per_op("envelope_cycles", counts), "count"),
            "anharmonic.weights_s": (per_op("anharmonic.weights"), "s"),
            "anharmonic.fock_levels": (per_op("fock_levels", counts), "count"),
        }

    def write(self, path, labels):
        """One JSON line per span, with its self time and operation label."""
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op, counts), own in zip(self.spans,
                                                                   self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "self": own, "parent": parent, "op": op,
                                     "command": labels.get(op), "counts": counts}) + "\n")


def _counting_integrand(args, kwargs):
    """Wrap the integrand (first argument) so its evaluated points are counted."""
    counts = {"integrand_points": 0}
    f = args[0]

    def counted(x):
        y = f(x)
        counts["integrand_points"] += int(np.size(y))
        return y

    return (counted,) + tuple(args[1:]), counts
