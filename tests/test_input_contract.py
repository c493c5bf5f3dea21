"""Seeded edge values through every verb: a documented exit code, or finite files.

Each case sets one field of a valid state spec to an edge value and runs a
verb in-process through ``cli.main``.  It must exit 2 (bad input), 3
(accuracy) or 4 (physics) with nothing written, or exit 0 with every file
finite: JSON that parses with no ``NaN`` or ``Infinity`` constant, CSV with
no ``nan`` or ``inf`` cell (except the sweep's documented ``nan`` pair for a
missing rotation readout), and an exact spectrum that sums to 1.
"""

import copy
import json
import math

import numpy as np
import pytest

from crosscavity import AtomState, InvalidStateError, distribution
from crosscavity.cli import main

ATOM = {"c_g": {"re": 0.6, "im": 0.0}, "c_e": {"re": 0.0, "im": 0.8}}
PARAMS = {"lambda": 20.0, "k_delta_r": 0.1}
AMPLITUDES = {
    "amplitudes": [{"m": 1, "n": 0, "re": 0.6, "im": 0.0}, {"m": 0, "n": 1, "re": 0.0, "im": 0.8}],
    "atom": ATOM,
    "params": PARAMS,
}
BUILDER = {"builder": {"name": "one_photon", "args": [0.3]}, "atom": ATOM, "params": PARAMS}

VERBS = {
    "simulate": ["simulate", "--grid", "r:4,phi:6"],
    "simulate-numeric": ["simulate", "--kernel", "numeric", "--grid", "r:2,phi:3"],
    "detect": ["detect"],
    "populations-exact": ["populations", "--estimator", "exact"],
    "populations-eq8": ["populations", "--estimator", "eq8"],
    "populations-window": ["populations", "--estimator", "window"],
    "sweep": ["sweep", "--sweep", "0:1:3"],
}

FIELDS = {
    "lambda": ("params", "lambda"),
    "k_delta_r": ("params", "k_delta_r"),
    "re": ("amplitudes", 0, "re"),
    "im": ("amplitudes", 1, "im"),
    "atom.c_g.re": ("atom", "c_g", "re"),
    "atom.c_e.im": ("atom", "c_e", "im"),
    "builder.args": ("builder", "args", 0),
}


def _edge_values():
    rng = np.random.default_rng(20240)
    values = [
        0, -0.0, -1.5, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
        math.nan, math.inf, -math.inf,  # written as JSON's bare NaN, Infinity and -Infinity tokens
        "nan", "inf", "1e400", "20", "0.3", True, False, None, [1.0], 10**400,
    ]
    values += [float(s * 10.0 ** int(e)) for s, e in zip(rng.uniform(-9.9, 9.9, 4), rng.integers(-300, 301, 4))]
    return values


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_files(out):
    files = sorted(out.iterdir())
    assert files
    for path in files:
        text = path.read_text()
        if path.suffix == ".json":
            doc = json.loads(text, parse_constant=_reject_constant)
            spectrum = doc.get("spectrum")
            if spectrum and spectrum["estimator"] == "exact":
                assert abs(math.fsum(e["p"] for e in spectrum["entries"]) - 1.0) <= 1e-9, path.name
            continue
        header, *rows = [line.split(",") for line in text.splitlines()]
        assert rows, path.name
        for row in rows:
            cells = dict(zip(header, row))
            estimator = cells.pop("estimator", None)
            if path.name == "sweep.csv" and cells["theta_m"] == cells["concurrence"] == "nan":
                del cells["theta_m"], cells["concurrence"]
            assert all(math.isfinite(float(v)) for v in cells.values()), (path.name, row)
        if estimator == "exact":
            assert abs(math.fsum(float(row[1]) for row in rows) - 1.0) <= 1e-9


def _run(tmp_path, name, doc, argv):
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(doc))  # float nan/inf become the bare NaN/Infinity tokens
    out = tmp_path / name
    with np.errstate(all="ignore"):
        code = main([argv[0], "--state", str(spec), "--out", str(out), *argv[1:]])
    return code, out


def _check_case(tmp_path, name, doc, argv):
    code, out = _run(tmp_path, name, doc, argv)
    assert code in (0, 2, 3, 4), (name, code)
    if code:
        assert not out.exists(), name
    else:
        _check_files(out)
    return code


@pytest.mark.parametrize("field", list(FIELDS))
def test_edge_values_exit_with_documented_code_or_write_finite_files(tmp_path, field):
    path = FIELDS[field]
    codes = set()
    for k, value in enumerate(_edge_values()):
        for verb, argv in VERBS.items():
            base = BUILDER if verb == "sweep" or path[0] == "builder" else AMPLITUDES
            if path[0] not in base:
                continue
            doc = copy.deepcopy(base)
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            codes.add(_check_case(tmp_path, f"{verb}-{k}", doc, argv))
    assert 0 in codes and 2 in codes


def test_large_builder_arguments(tmp_path):
    builders = [
        {"name": "noon", "args": [400]},
        {"name": "noon", "args": [10**12]},
        {"name": "family", "args": [10**6, 2]},
        {"name": "family", "args": [3, 10**12]},
        {"name": "one_photon", "args": [1e300]},
        {"name": "two_photon", "args": [-1e300]},
    ]
    for k, builder in enumerate(builders):
        for verb, argv in VERBS.items():
            _check_case(tmp_path, f"{verb}-{k}", {"builder": builder, "atom": ATOM, "params": PARAMS}, argv)


def test_non_finite_atom_and_non_number_fields_exit_2(tmp_path, capsys):
    nan_token = json.dumps({**AMPLITUDES, "atom": {"c_g": {"re": math.nan, "im": 0}}})
    assert "NaN" in nan_token
    cases = [
        {**AMPLITUDES, "atom": {"c_g": {"re": "nan", "im": 0}, "c_e": {"re": 1, "im": 0}}},
        json.loads(nan_token),
        {**AMPLITUDES, "atom": {"c_g": {"re": 1, "im": 0}, "c_e": {"re": math.inf, "im": 0}}},
        {**AMPLITUDES, "params": {"lambda": True, "k_delta_r": 0.1}},
        {**AMPLITUDES, "params": {"lambda": "20", "k_delta_r": 0.1}},
        {**AMPLITUDES, "params": {"lambda": 20, "k_delta_r": "0.1"}},
        {**AMPLITUDES, "amplitudes": [{"m": 1, "n": 0, "re": True, "im": 0}]},
        {**AMPLITUDES, "amplitudes": [{"m": 1, "n": 0, "re": 1, "im": "0"}]},
        {**BUILDER, "builder": {"name": "one_photon", "args": ["0.3"]}},
    ]
    for k, doc in enumerate(cases):
        for verb, argv in VERBS.items():
            code, out = _run(tmp_path, f"{verb}-{k}", doc, argv)
            assert code == 2, (k, verb)
            assert not out.exists()
            err = capsys.readouterr().err
            assert "non-numeric" in err or "must be finite" in err, err


def test_atom_state_refuses_non_finite_coefficients():
    for c_g, c_e in ((math.nan, 1.0), (1.0, complex(0.0, math.inf)), (-math.inf, 0.0)):
        with pytest.raises(InvalidStateError, match="finite"):
            AtomState(c_g, c_e)
        with pytest.raises(InvalidStateError, match="finite"):
            AtomState.normalized(c_g, c_e)


def test_exact_closure_failure_exits_3(tmp_path, monkeypatch, capsys):
    # doubled channel factors make the exact ring weights sum to 4
    dressed_totals = distribution.dressed_totals
    monkeypatch.setattr(
        distribution, "dressed_totals", lambda *args: [(n, 2 * a, 2 * b) for n, a, b in dressed_totals(*args)]
    )
    for verb in ("populations-exact", "detect"):
        code, out = _run(tmp_path, verb, AMPLITUDES, VERBS[verb])
        assert code == 3 and not out.exists()
        assert "exact ring weights sum to" in capsys.readouterr().err
