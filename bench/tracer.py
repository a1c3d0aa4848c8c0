"""Span tracer for the benchmark's traced runs.

It wraps public module-level functions of clams where their callers look them
up: every loaded ``clams`` module attribute bound to the original function is
replaced, so ``clams.cli.build_generator`` and ``clams.liouvillian.build_generator``
both record.  Spans are kept in memory; self time is a span's duration minus
the union of its children's intervals (sweep points run on pool threads, whose
top-level spans are parented to the open span of the main thread).
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# (layer, module, function); the layer is the clams module that defines it.
TRACED = (
    ("liouvillian", "clams.liouvillian", "build_generator"),
    ("liouvillian", "clams.liouvillian", "steady_state"),
    ("liouvillian", "clams.liouvillian", "propagate"),
    ("effective", "clams.effective", "build_effective_generator"),
    ("effective", "clams.effective", "effective_steady_state"),
    ("spectrum", "clams.spectrum", "coherence_peaks"),
    ("spectrum", "clams.spectrum", "height_ratios"),
    ("spectrum", "clams.spectrum", "loglinear_fit"),
    ("rb85", "clams.rb85", "build_full_model"),
    ("rates", "clams.rates", "transition_amplitude"),
    ("cli", "clams.cli", "main"),
    ("cli", "clams.cli", "write_csv"),
    ("cli", "clams.cli", "write_json"),
    ("cli", "clams.cli", "write_complex_matrix_csv"),
)


def _build_generator_counts(args, kwargs, result):
    return {"bytes_computed": 16 * result.n_states**4}


def _steady_state_counts(args, kwargs, result):
    n = args[0].n_states ** 2  # order of the bordered complex system
    return {"lu_flops_computed": 8 * n**3 / 3 + 8 * n**2}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


COUNTS = {
    "liouvillian.build_generator": _build_generator_counts,
    "liouvillian.steady_state": _steady_state_counts,
    "cli.write_csv": _written_bytes,
    "cli.write_json": _written_bytes,
    "cli.write_complex_matrix_csv": _written_bytes,
}


class Tracer:
    """Records spans around the functions in ``TRACED`` while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, int | None, str, float, float, bool]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for layer, module_name, func in TRACED:
            name = f"{layer}.{func}"
            self._replace(sys.modules[module_name], func, lambda f, n=name: self._wrap(f, n))
        self._replace(sys.modules["clams.liouvillian"], "solve_ivp", self._wrap_solve_ivp)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, home, attr, make_wrapper) -> None:
        original = getattr(home, attr)
        wrapper = make_wrapper(original)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "clams" or mod_name.startswith("clams.")) and getattr(
                module, attr, None
            ) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name):
        counts = COUNTS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            failed = True
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                failed = False
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, failed))
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return traced

    def _wrap_solve_ivp(self, original):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            sol = original(*args, **kwargs)
            if self.active:
                for key in ("nfev", "njev", "nlu"):
                    self.counters[f"liouvillian.propagate.{key}"] += getattr(sol, key)
            return sol

        return counted

    # -- aggregation ------------------------------------------------------
    def summary(self) -> dict[str, float]:
        """Per-function ``calls``, ``self_s`` and ``failed``, plus the recorded counters."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, t0, t1, _failed in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, name, t0, t1, failed in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - _covered(children.get(sid, ()))
            out[f"{name}.failed"] += failed
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)


def _covered(intervals) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total

