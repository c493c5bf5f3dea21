"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` looks traced functions up by name, so renaming one
breaks the benchmark; this test runs its install/remove cycle against the
package, and replays each workload's self-check on one seeded round, so a
change that empties a layer a workload lists fails here first.
"""

import importlib
import json
import shutil
from pathlib import Path

import pytest

from crosscavity import AtomState, CouplingParams, GridSpec, cli, distribution, noon_state, validation
from crosscavity.quadrature import QuadratureOracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("cli", "detect", "distribution", "io", "kernel", "quadrature", "rotation", "validation")


def _bindings():
    modules = [importlib.import_module(f"crosscavity.{name}") for name in MODULES]
    modules.append(importlib.import_module("crosscavity"))
    out = {(mod.__name__, key): value for mod in modules for key, value in vars(mod).items()}
    out.update({("QuadratureOracle", key): value for key, value in vars(QuadratureOracle).items()})
    return out


def test_tracer_wraps_every_hook_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = _bindings()
    tracer = Tracer()
    try:
        tracer.install()  # getattr on every traced name
        assert tracer._restore
        for owner, attr, original in tracer._restore:
            assert getattr(owner, attr).__wrapped__ is original
        # through the module, whose bindings the tracer replaces
        distribution.w_grid(noon_state(2), AtomState.excited(), CouplingParams(20.0, 0.1), GridSpec(4, 8))
    finally:
        tracer.remove()
    names = {span[0] for span in tracer.spans}
    for name in (
        "distribution.w_grid",
        "distribution.channel_tables",
        "kernel.harmonic_coefficients",
        "kernel.mode_radial_table",
    ):
        assert name in names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_quick_battery_reaches_both_kernel_routes(monkeypatch):
    # the oracle workload requires these layers to be non-zero
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        summary = validation.kernel_battery(lams=(20.0,), kdrs=(0.1,), max_total=2, points=8)
    finally:
        tracer.remove()
    assert len(summary.records) == 288
    names = [span[0] for span in tracer.spans]
    assert names.count("validation.kernel_battery") == 1
    assert names.count("kernel.fourier_analytic") == 36
    assert names.count("kernel.mode_radial_table") == 36
    assert names.count("quadrature.fourier") == 2  # one per block


@pytest.mark.parametrize("name", ["render", "readout", "oracle"])
def test_workload_self_check_holds_on_one_round(monkeypatch, tmp_path, name):
    # the benchmark's self-check, replayed: the opening operation plus one
    # seeded round through cli.main under the tracer must reach every layer
    # the workload lists under exercises and none of those under bypasses
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer
    from workloads import WORKLOADS, argv, rounds, spec_document

    workload = WORKLOADS[name]
    spec, out = tmp_path / "state.json", tmp_path / "out"
    tracer = Tracer()
    try:
        tracer.install()
        for k, op in enumerate([workload.opening, *next(rounds(name, 1))]):
            tracer.op = k
            doc = spec_document(op)
            if doc is not None:
                spec.write_text(json.dumps(doc))
            assert cli.main(argv(op, str(spec), str(out))) == 0, op
            shutil.rmtree(out)
    finally:
        tracer.remove()
    values = tracer.metrics()
    assert [key for key in workload.exercises if values[key] == 0] == []
    assert [key for key in workload.bypasses if values[key] != 0] == []
