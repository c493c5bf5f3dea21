"""Outside-in layer trace of the crosscavity package.

The package is not instrumented.  ``Tracer.install`` wraps each traced
function and replaces every module-level binding of it across the package,
because ``cli``, ``detect`` and ``distribution`` import names directly and
look them up in their own namespace.  Methods of ``QuadratureOracle`` are
replaced on the class.  ``Tracer.remove`` puts the originals back.

A span is ``(name, start, end, parent, op)``.  The parent is the innermost
open span of the calling thread; a worker thread with no open span of its
own takes the main thread's innermost span, which is the call that handed
it work (``w_grid --workers``).  Self time is a span's duration minus the
union of its children's intervals, so overlapping children in threads are
not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
from collections import defaultdict
from time import perf_counter

EXPORTS = ("grid_meta_to_json", "report_to_json", "spectrum_to_csv", "sweep_to_csv", "matrix_to_csv")
ESTIMATORS = ("window", "eq8", "exact")


def _file_bytes(position, key="bytes.export_other"):
    def note(tracer, args, kwargs, result, duration):
        path = args[position] if len(args) > position else kwargs.get("path")
        tracer.add(key, os.path.getsize(path) if path is not None else len(result))
    return note


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = -1
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._restore = []
        self._harmonic_keys = set()

    # -- recording -----------------------------------------------------

    def add(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (span_name, start, end, parent, tracer.op)
            if note is not None:
                note(tracer, args, kwargs, result, end - start)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self):
        import crosscavity

        # import_module: the package re-exports a function named ``detect``
        names = ("cli", "detect", "distribution", "io", "kernel", "quadrature", "rotation", "validation")
        cli, detect, distribution, io, kernel, quadrature, rotation, validation = modules = [
            importlib.import_module(f"crosscavity.{name}") for name in names
        ]
        modules.append(crosscavity)

        def harmonic_note(tracer, args, kwargs, result, duration):
            idx = args[0]
            key = (idx.total, idx.m, idx.n, idx.epsilon)
            if key not in tracer._harmonic_keys:
                tracer._harmonic_keys.add(key)
                tracer.add("harmonic.misses")
                tracer.add("harmonic.miss_ms", duration * 1e3)

        def channels_note(tracer, args, kwargs, result, duration):
            tracer.add("channels", len(result))
            tracer.add("harmonics", sum(ch.w_values.size for ch in result))

        def grid_note(tracer, args, kwargs, result, duration):
            tracer.add("grid_points", result.densities.size)

        def radial_note(tracer, args, kwargs, result, duration):
            tracer.add("radial_entries", result.size)

        def d_table_note(tracer, args, kwargs, result, duration):
            tracer.add("d_matrix_entries", result.size)

        def battery_note(tracer, args, kwargs, result, duration):
            tracer.add("battery_records", len(result.records))

        def estimator(args, kwargs):
            return "distribution.populations." + kwargs.get("estimator", args[3] if len(args) > 3 else "exact")

        functions = [
            (cli, "main", "cli.main", None, None),
            (io, "parse_state_spec", "io.parse_state_spec", None, None),
            (io, "grid_to_csv", "io.grid_to_csv", _file_bytes(1, "bytes.grid_to_csv"), None),
            (io, "grid_meta_to_json", "io.grid_meta_to_json", _file_bytes(1), None),
            (io, "report_to_json", "io.report_to_json", _file_bytes(1), None),
            (io, "spectrum_to_csv", "io.spectrum_to_csv", _file_bytes(1), None),
            (io, "sweep_to_csv", "io.sweep_to_csv", _file_bytes(2), None),
            (io, "matrix_to_csv", "io.matrix_to_csv", _file_bytes(1), None),
            (detect, "detect", "detect.detect", None, None),
            (distribution, "w_grid", "distribution.w_grid", grid_note, None),
            (distribution, "populations", None, None, estimator),
            (distribution, "channel_tables", "distribution.channel_tables", channels_note, None),
            (kernel, "harmonic_coefficients", "kernel.harmonic_coefficients", harmonic_note, None),
            (kernel, "mode_radial_table", "kernel.mode_radial_table", radial_note, None),
            (kernel, "fourier_analytic", "kernel.fourier_analytic", None, None),
            (rotation, "d_matrix_table", "rotation.d_matrix_table", d_table_note, None),
            (rotation, "d_coeff", "rotation.d_coeff", None, None),
            (validation, "kernel_battery", "validation.kernel_battery", battery_note, None),
        ]
        for home, attr, name, note, name_of in functions:
            original = getattr(home, attr)
            traced = self.wrap(name, original, note, name_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

        oracle = quadrature.QuadratureOracle
        for attr, name in (
            ("__init__", "quadrature.oracle_init"),
            ("fourier", "quadrature.fourier"),
            ("w_density", "quadrature.w_density"),
            ("_radial_transform", "quadrature.radial_transform"),
        ):
            original = vars(oracle)[attr]
            setattr(oracle, attr, self.wrap(name, original))
            self._restore.append((oracle, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the union of child intervals."""
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span is not None and span[3] >= 0:
                children[span[3]].append(index)
        out = []
        for index, span in enumerate(self.spans):
            if span is None:
                out.append(0.0)
                continue
            _, start, end, _, _ = span
            covered = 0.0
            cursor = start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children.get(index, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(end - start - covered)
        return out

    def totals(self):
        """``{name: [calls, total_s, self_s]}`` over all spans."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for span, own in zip(self.spans, self.self_times()):
            if span is None:
                continue
            entry = agg[span[0]]
            entry[0] += 1
            entry[1] += span[2] - span[1]
            entry[2] += own
        return agg

    def metrics(self):
        """Per-layer metric values, named as in BENCHMARK.json."""
        agg = self.totals()
        c = self.counts

        def calls(name):
            return agg[name][0] if name in agg else 0

        def ms(name):
            return agg[name][1] * 1e3 if name in agg else 0.0

        def self_ms(name):
            return agg[name][2] * 1e3 if name in agg else 0.0

        fourier_calls = calls("quadrature.fourier")
        radial_tables = calls("quadrature.radial_transform")
        values = {
            "io.grid_to_csv.ms": ms("io.grid_to_csv"),
            "io.grid_to_csv.bytes": c["bytes.grid_to_csv"],
            "io.export_other.ms": sum(ms("io." + e) for e in EXPORTS),
            "io.export_other.bytes": c["bytes.export_other"],
            "io.parse_state_spec.ms": ms("io.parse_state_spec"),
            "distribution.w_grid.self_ms": self_ms("distribution.w_grid"),
            "distribution.w_grid.points": c["grid_points"],
            "kernel.mode_radial_table.calls": calls("kernel.mode_radial_table"),
            "kernel.mode_radial_table.entries": c["radial_entries"],
            "kernel.mode_radial_table.ms": ms("kernel.mode_radial_table"),
            "rotation.d_matrix_table.calls": calls("rotation.d_matrix_table"),
            "rotation.d_matrix_table.entries": c["d_matrix_entries"],
            "rotation.d_matrix_table.ms": ms("rotation.d_matrix_table"),
            "distribution.channel_tables.ms": ms("distribution.channel_tables"),
            "distribution.channels": c["channels"],
            "distribution.harmonics": c["harmonics"],
            "kernel.harmonic_coefficients.calls": calls("kernel.harmonic_coefficients"),
            "kernel.harmonic_coefficients.misses": c["harmonic.misses"],
            "kernel.harmonic_coefficients.miss_ms": c["harmonic.miss_ms"],
            "detect.detect.calls": calls("detect.detect"),
            "detect.detect.self_ms": self_ms("detect.detect"),
            "cli.main.self_ms": self_ms("cli.main"),
            "cli.main.ms": ms("cli.main"),
            "quadrature.oracle_init.ms": ms("quadrature.oracle_init"),
            "quadrature.fourier.calls": fourier_calls,
            "quadrature.fourier.self_ms": self_ms("quadrature.fourier"),
            "quadrature.w_density.calls": calls("quadrature.w_density"),
            "quadrature.w_density.self_ms": self_ms("quadrature.w_density"),
            "quadrature.radial_tables": radial_tables,
            "quadrature.radial_transform.ms": ms("quadrature.radial_transform"),
            "quadrature.fourier_per_radial_table": fourier_calls / radial_tables if radial_tables else 0.0,
            "rotation.d_coeff.calls": calls("rotation.d_coeff"),
            "rotation.d_coeff.ms": ms("rotation.d_coeff"),
            "kernel.fourier_analytic.calls": calls("kernel.fourier_analytic"),
            "kernel.fourier_analytic.ms": ms("kernel.fourier_analytic"),
            "validation.kernel_battery.ms": ms("validation.kernel_battery"),
            "validation.kernel_battery.records": c["battery_records"],
        }
        for est in ESTIMATORS:
            values[f"distribution.populations.{est}.self_ms"] = self_ms(f"distribution.populations.{est}")
        return values

    def layer_shares(self):
        """Share of traced operation time spent in each module's own code."""
        agg = self.totals()
        whole = agg["cli.main"][1] if "cli.main" in agg else 0.0
        shares = defaultdict(float)
        for name, (_, _, own) in agg.items():
            shares[name.split(".")[0]] += own
        return {k: v / whole for k, v in sorted(shares.items())} if whole else {}

    def write(self, path):
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, op = span
                    fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
