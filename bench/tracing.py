"""Spans recorded from outside the program, around its public functions.

``install`` replaces each traced function with a wrapper in every
alias_scope module that binds it, so calls made through a name imported
with ``from .x import y`` are seen too.  Spans stay in memory (name, start,
end, parent, thread, size, exception) and are written out when the run
ends.  A span opened on a worker thread with no open span of its own gets
the main thread's innermost open span as parent, which is how the
``patch_aliasing_map`` pool threads are attributed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

# (module, function, span name, size of one call) for every traced function.
# The size callables receive (args, result) and return the ``.mb`` or
# ``.melem`` quantity of that call.
TARGETS = [
    ("arrays", "read_npy", "arrays.read_npy", lambda a, r: r.nbytes / 2**20),
    ("arrays", "write_npy", "arrays.write_npy", lambda a, r: np.asarray(a[1]).nbytes / 2**20),
    ("spectral", "fft2", "spectral.fft2", lambda a, r: a[0].data.size / 1e6),
    ("spectral", "ifft2_complex", "spectral.ifft2", None),
    ("antialias", "band_power", "antialias.band_power", None),
    ("antialias", "aliasing_score", "antialias.aliasing_score", None),
    ("antialias", "daf", "antialias.daf", None),
    ("antialias", "binomial_blur", "antialias.binomial_blur", None),
    ("antialias", "add_gaussian_noise", "antialias.add_gaussian_noise", None),
    ("freqmix", "frequency_split", "freqmix.frequency_split", None),
    ("freqmix", "freqmix_apply", "freqmix.freqmix_apply", None),
    ("freqmix", "freqmix_predict_weights", "freqmix.freqmix_predict_weights", None),
    ("sampling", "filter_bank_orthogonality", "sampling.filter_bank_orthogonality", None),
    ("sampling", "nyquist", "sampling.nyquist", None),
    ("segmetrics", "boundary_band", "segmetrics.boundary_band", None),
    ("segmetrics", "multiclass_errors", "segmetrics.multiclass_errors", None),
    ("segmetrics", "multiclass_boundary", "segmetrics.multiclass_boundary", None),
    ("segmetrics", "error_metrics", "segmetrics.error_metrics", None),
    ("segmetrics", "classify_boundary_pixels", "segmetrics.classify_boundary_pixels", None),
    ("segmetrics", "miou", "segmetrics.miou", None),
    ("analysis", "patch_aliasing_map", "analysis.patch_aliasing_map", None),
    ("analysis", "pixel_cross_entropy", "analysis.pixel_cross_entropy", None),
    ("analysis", "bin_by_score", "analysis.bin_by_score", None),
    ("analysis", "error_type_distribution", "analysis.error_type_distribution", None),
]
CLI_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    size: float = 0.0
    error: str | None = None


class Recorder:
    """In-memory span store; safe to call from the pool threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main) if ident != self._main else None
            parent = main_stack[-1] if main_stack else None
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, ident))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].error = type(exc).__name__
                raise
            finally:
                self.close(index)
            if size is not None:
                self.spans[index].size = size(args, result)
            return result

        return traced


def install(recorder: Recorder) -> tuple[list, list[str]]:
    """Wrap every target; return (undo list, names of targets not found)."""
    undo, absent = [], []
    for module_name, fn_name, span_name, size in TARGETS:
        try:
            module = importlib.import_module(f"alias_scope.{module_name}")
        except ImportError:
            absent.append(span_name)
            continue
        original = getattr(module, fn_name, None)
        if original is None:
            absent.append(span_name)
            continue
        wrapper = recorder.wrap(span_name, original, size)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "alias_scope" or mod_name.startswith("alias_scope.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return undo, absent


def uninstall(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: self ms, calls, summed size and exception counts.

    Self time is a span's duration minus the union of its children's
    intervals (clipped to the span), so overlapping pool-thread children
    are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        covered = _union_length(
            [(max(s, span.start), min(e, span.end)) for s, e in children.get(index, []) if e > span.start and s < span.end]
        )
        entry = out.setdefault(span.name, {"ms": 0.0, "calls": 0, "size": 0.0, "errors": {}})
        entry["ms"] += (span.end - span.start - covered) * 1e3
        entry["calls"] += 1
        entry["size"] += span.size
        if span.error:
            entry["errors"][span.error] = entry["errors"].get(span.error, 0) + 1
    return out
