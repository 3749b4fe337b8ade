"""Span tracing around the public functions of the ``qwire`` layers.

The program is not edited: ``Tracer.install`` replaces each public function
of the traced modules, in every ``qwire`` namespace that holds it, with a
wrapper that records one span per call (name, start, end, parent span,
operation id) into in-memory columns.  Per-function probes add counts
measured at the same boundary, such as the site-energies a ``hat_dets``
call worked through.  ``save`` writes the spans out once the run is over,
and ``layer_metrics`` derives the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("tridiag_core", "wire_matrix", "transport", "time_domain", "cli")

_TIMED = ("cli.main", "tridiag_core.det_sequence", "tridiag_core.identity_residual",
          "wire_matrix.hat_dets", "wire_matrix.first_inverse_column",
          "transport.transmittance_gf", "transport.transmittance_eo",
          "transport.equivalence_report", "transport.landauer_current",
          "time_domain.integrate", "time_domain.steady_state_compare")

# Every per-layer metric of a traced run, with its unit.
LAYER_UNITS = {
    **{f"import.{name}_s": "s" for name in ("qwire", "scipy_linalg", "scipy_integrate",
                                             "scipy_special")},
    "cli.interpreter_s": "s",
    **{f"{name}.calls": "count" for name in _TIMED},
    **{f"{name}.self_s": "s" for name in _TIMED},
    "cli.output_bytes": "bytes",
    "wire_matrix.hat_dets.site_energies": "count",
    "wire_matrix.hat_dets.ns_per_site_energy": "ns",
    "wire_matrix.hat_dets.nonfinite": "count",
    "transport.transmittance_gf.us_per_call": "us",
    "transport.transmittance_eo.errors": "count",
    "transport.eo_over_gf": "ratio",
    "transport.landauer_current.errors": "count",
    "transport.landauer_current.evals_per_call": "count",
    "time_domain.integrate.steps": "count",
    "time_domain.integrate.us_per_step": "us",
    "time_domain.integrate.bytes_stored": "bytes",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}


def _points(eps):
    return int(np.size(eps))


def _probe_hat_dets(counts, args, result):
    p, eps = args[0], args[1]
    counts["wire_matrix.hat_dets.site_energies"] += p.n * _points(eps)
    if result is None:
        return
    ok = np.isfinite(result.c_n) & np.isfinite(result.c_n1) & np.isfinite(result.c_n2)
    counts["wire_matrix.hat_dets.nonfinite"] += int(np.size(ok) - np.count_nonzero(ok))


def _probe_points(name):
    def probe(counts, args, result):
        counts[name + ".points"] += _points(args[1])
    return probe


def _probe_integrate(counts, args, result):
    if result is None:
        return
    counts["time_domain.integrate.steps"] += result.times.size - 1
    stored = result.times.nbytes + result.u.nbytes
    key = "time_domain.integrate.bytes_stored"
    counts[key] = max(counts[key], stored)


PROBES = {
    "wire_matrix.hat_dets": _probe_hat_dets,
    "transport.transmittance_gf": _probe_points("transport.transmittance_gf"),
    "transport.transmittance_eo": _probe_points("transport.transmittance_eo"),
    "time_domain.integrate": _probe_integrate,
}


class Tracer:
    """Collects spans while ``active``; inactive wrappers only forward the call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_col = array("q")
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name_col.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_col.append(self.op)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.end[span] = clock()
                self._stack.pop()
                # A call that raised is probed too, with result None, so that
                # per-point and per-site rates count the work of every span.
                if probe is not None:
                    probe(self.counts, args, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap every public function of MODULES wherever a qwire namespace holds it."""
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._restore.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()

    def columns(self):
        return {
            "name": np.array(self.name_col, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op_col, dtype=np.int64),
        }

    def save(self, path):
        """Write the spans as columns plus the name table (numpy .npz)."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self):
        """Per-layer metrics from the spans and the boundary counts.

        Self time of a span is its duration minus the durations of its direct
        wrapped children, which never overlap it partially.
        """
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        by_name = cols["name"]

        def spans_of(name):  # no function gets id -1, so unseen names select nothing
            return by_name == self._name_ids.get(name, -1)

        def calls(name):
            return int(np.count_nonzero(spans_of(name)))

        def total(values, name):
            return float(values[spans_of(name)].sum())

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m = {}
        for name in _TIMED:
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = total(self_time, name)
        c = self.counts
        m["cli.output_bytes"] = int(c["cli.output_bytes"])
        m["wire_matrix.hat_dets.site_energies"] = int(c["wire_matrix.hat_dets.site_energies"])
        m["wire_matrix.hat_dets.nonfinite"] = int(c["wire_matrix.hat_dets.nonfinite"])
        m["wire_matrix.hat_dets.ns_per_site_energy"] = ratio(
            m["wire_matrix.hat_dets.self_s"], m["wire_matrix.hat_dets.site_energies"], 1e9)
        m["transport.transmittance_gf.us_per_call"] = ratio(
            m["transport.transmittance_gf.self_s"], m["transport.transmittance_gf.calls"], 1e6)
        m["transport.transmittance_eo.errors"] = self.errors["transport.transmittance_eo"]
        gf_per_point = ratio(total(dur, "transport.transmittance_gf"),
                             c["transport.transmittance_gf.points"])
        eo_per_point = ratio(total(dur, "transport.transmittance_eo"),
                             c["transport.transmittance_eo.points"])
        m["transport.eo_over_gf"] = ratio(eo_per_point, gf_per_point)
        m["transport.landauer_current.errors"] = self.errors["transport.landauer_current"]
        gf_parents = parent[spans_of("transport.transmittance_gf")]
        under = np.count_nonzero(spans_of("transport.landauer_current")[gf_parents[gf_parents >= 0]])
        m["transport.landauer_current.evals_per_call"] = ratio(
            under, m["transport.landauer_current.calls"])
        m["time_domain.integrate.steps"] = int(c["time_domain.integrate.steps"])
        m["time_domain.integrate.us_per_step"] = ratio(
            m["time_domain.integrate.self_s"], m["time_domain.integrate.steps"], 1e6)
        m["time_domain.integrate.bytes_stored"] = int(c["time_domain.integrate.bytes_stored"])
        m["trace.spans"] = int(dur.size)
        return m
