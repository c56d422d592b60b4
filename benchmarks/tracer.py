"""Span tracer that wraps digitdrift's module entry points from outside.

Installing a Tracer replaces every binding of each layer's entry points
(the module attribute, the package re-export and every `from .x import y`
copy in sibling modules) with a wrapper that records one span per call
that enters the layer from another module: name, start, end, parent span
and the op the call belongs to. Spans are
kept in flat arrays while the benchmark runs and written out at the end.
Counters are read off arguments and return values by the COUNTERS table.

No library code is changed; uninstalling restores the original bindings.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "exactdist", "oracle", "odometer", "rng", "mixing", "cltdiag", "digits")
OP_LAYER = "bench"  # layer of the root span the harness opens per op

# Per-layer counters, in report order, besides <layer>.calls and <layer>.self_s.
LAYER_COUNTERS = {
    "cli": ("stdout_bytes",),
    "exactdist": (
        "digits_in",
        "atoms_out",
        "numerator_bits",
        "cache_hits",
        "cache_misses",
        "cache_read_bytes",
        "cache_write_bytes",
    ),
    "oracle": (
        "integers_counted",
        "integers_per_s",
        "table_builds",
        "table_bytes",
        "table_build_s",
    ),
    "odometer": ("samples", "samples_per_s", "digits_drawn", "matrix_bytes"),
    "rng": ("digits_generated",),
    "mixing": ("process_builds", "process_rows", "event_pairs"),
    "cltdiag": ("atoms_in", "atoms_per_s"),
    "digits": (),
}

# <layer>.<x>_per_s = <layer>.<x> / <layer>.self_s
RATES = {
    "oracle.integers_per_s": "oracle.integers_counted",
    "odometer.samples_per_s": "odometer.samples",
    "cltdiag.atoms_per_s": "cltdiag.atoms_in",
}


def digit_count(r: int, base: int) -> int:
    n = 0
    while r:
        r //= base
        n += 1
    return n


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# --- counters: fn(counters, args, kwargs, result, seconds) -------------------


def _count_distribution(c, args, kwargs, dist, _s):
    c["exactdist.digits_in"] += digit_count(dist.r, dist.base)
    c["exactdist.atoms_out"] += len(dist.atoms)
    c["exactdist.numerator_bits"] += sum(m.numerator.bit_length() for m in dist.atoms)


def _count_atom_mass(c, args, kwargs, mass, _s):
    c["exactdist.digits_in"] += digit_count(_arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "base"))
    c["exactdist.atoms_out"] += 1
    c["exactdist.numerator_bits"] += mass.numerator.bit_length()


def _count_variance(c, args, kwargs, _res, _s):
    c["exactdist.digits_in"] += digit_count(_arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "base"))


def _count_cache_load(c, args, kwargs, dist, _s):
    if dist is None:
        c["exactdist.cache_misses"] += 1
        return
    c["exactdist.cache_hits"] += 1
    base, r, K, cache_dir = (_arg(args, kwargs, i, n) for i, n in enumerate(("base", "r", "K", "cache_dir")))
    cache_key = inspect.unwrap(importlib.import_module("digitdrift.exactdist").cache_key)
    path = os.path.join(cache_dir, cache_key(base, r, K))
    c["exactdist.cache_read_bytes"] += os.path.getsize(path)


def _count_cache_save(c, args, kwargs, path, _s):
    c["exactdist.cache_write_bytes"] += os.path.getsize(path)


def _count_tower(c, args, kwargs, res, _s):
    c["oracle.integers_counted"] += res[1]


def _count_table(c, args, kwargs, table, seconds):
    c["oracle.table_builds"] += 1
    c["oracle.table_bytes"] += table.nbytes
    c["oracle.table_build_s"] += seconds


def _count_digit_matrix(c, args, kwargs, X, _s):
    c["odometer.samples"] += X.shape[0]
    c["odometer.digits_drawn"] += X.size
    c["odometer.matrix_bytes"] += X.nbytes


def _count_digit_block(c, args, kwargs, block, _s):
    c["rng.digits_generated"] += block.size


def _count_process(c, args, kwargs, X, _s):
    c["mixing.process_builds"] += 1
    c["mixing.process_rows"] += X.shape[0]


def _count_phi(c, args, kwargs, est, _s):
    c["mixing.event_pairs"] += est.a_events * est.b_events


def _count_support(c, args, kwargs, res, _s):
    c["cltdiag.atoms_in"] += len(res[1])


COUNTERS = {
    "exactdist.distribution": _count_distribution,
    "exactdist.atom_mass": _count_atom_mass,
    "exactdist.variance_exact": _count_variance,
    "exactdist.load_cached_distribution": _count_cache_load,
    "exactdist.save_cached_distribution": _count_cache_save,
    "oracle.tower_counts": _count_tower,
    "oracle.digit_sum_table": _count_table,
    "odometer.sample_digit_matrix": _count_digit_matrix,
    "rng.digit_block": _count_digit_block,
    "mixing.process_matrix": _count_process,
    "mixing.estimate_phi": _count_phi,
    "cltdiag.normalized_support": _count_support,
}


class Tracer:
    """Flat, append-only span store plus named counters.

    Span i has name names[name_ids[i]], parent span parents[i] (-1 for
    none), op index ops[i] and interval [starts[i], ends[i]]. Spans are
    recorded only while `active` is set, so the harness's own checks stay
    out of them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids_by_name: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self.active = False
        self._stack = [-1]  # indices of the open spans
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids_by_name.get(name)
        if nid is None:
            nid = self._ids_by_name[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, count=None):
        """fn recording one span called `name` per call while active.

        A call made from the function's own module crosses no layer
        boundary: it gets no span of its own (its time stays in the
        caller's span), but its counters are still read.
        """
        nid = self._name_id(name)
        home = fn.__module__
        tracer = self
        stack, counters = self._stack, self.counters
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends = self.starts, self.ends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if sys._getframe(1).f_globals.get("__name__") == home:
                if count is None:
                    return fn(*args, **kwargs)
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                count(counters, args, kwargs, result, perf_counter() - t0)
                return result
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer._op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(counters, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def op(self, index: int, kind: str, call):
        """call wrapped as the root span of op `index`, with tracing on."""
        root = self.wrap(f"{OP_LAYER}.{kind}", call)

        def traced():
            self._op, self.active = index, True
            try:
                return root()
            finally:
                self.active = False

        return traced

    # --- installing into digitdrift ----------------------------------------

    def install(self) -> None:
        """Wrap each layer's entry points: its public functions, plus any
        private function a sibling module imports. Every binding of a
        wrapped function in the package is replaced."""
        pkg = importlib.import_module("digitdrift")
        mods = {layer: importlib.import_module(f"digitdrift.{layer}") for layer in LAYERS}
        namespaces = [pkg, *mods.values()]
        imported_elsewhere = {
            id(obj)
            for ns in namespaces
            for obj in vars(ns).values()
            if inspect.isfunction(obj) and obj.__module__ != ns.__name__
        }
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and id(obj) not in imported_elsewhere:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, COUNTERS.get(name))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    # --- reporting ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per layer of span time not covered by direct child spans."""
        n = len(self.starts)
        totals = {layer: 0.0 for layer in (OP_LAYER, *LAYERS)}
        if n == 0:
            return totals
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(self.starts, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        layer_of = np.array([name.split(".", 1)[0] for name in self.names])
        by_name = np.bincount(np.frombuffer(self.name_ids, dtype=np.uint16), weights=own, minlength=len(self.names))
        for layer, seconds in zip(layer_of, by_name):
            totals[str(layer)] += float(seconds)
        return totals

    def calls(self) -> dict[str, int]:
        per_name = np.bincount(np.frombuffer(self.name_ids, dtype=np.uint16), minlength=len(self.names))
        totals = {layer: 0 for layer in (OP_LAYER, *LAYERS)}
        for name, k in zip(self.names, per_name):
            totals[name.split(".", 1)[0]] += int(k)
        return totals

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric, per op: totals over the traced phase
        divided by n_ops. Rates are total work over total self time."""
        self_s, calls = self.self_times(), self.calls()
        totals = dict(self.counters)
        out = {}
        for layer in LAYERS:
            totals[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer] / n_ops
            out[f"{layer}.self_s"] = self_s[layer] / n_ops
            for counter in LAYER_COUNTERS[layer]:
                key = f"{layer}.{counter}"
                if key in RATES:
                    busy = totals[f"{layer}.self_s"]
                    out[key] = totals.get(RATES[key], 0) / busy if busy else 0.0
                else:
                    out[key] = totals.get(key, 0) / n_ops
        out["bench.self_s"] = self_s[OP_LAYER] / n_ops
        return out

    def write_spans(self, path: str) -> int:
        """Write spans as gzipped JSON lines; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.starts)):
                fh.write(
                    f'{{"id":{i},"parent":{self.parents[i]},"op":{self.ops[i]},'
                    f'"name":"{self.names[self.name_ids[i]]}",'
                    f'"start":{self.starts[i]!r},"end":{self.ends[i]!r}}}\n'
                )
        return len(self.starts)
