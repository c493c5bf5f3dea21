"""``sweep`` reads its whole mixing-angle family in one batched pass.

The reference is the per-angle loop: one ``detect`` call per angle, rows
written by ``sweep_to_csv``.  The batched pass must write the same bytes.
"""

import json
import math

import numpy as np
import pytest

import crosscavity.distribution as distribution
from crosscavity import (
    AtomState,
    CouplingParams,
    TwoModeState,
    detect,
    noon_state,
    one_photon_state,
    two_photon_state,
)
from crosscavity.cli import SWEEP_BLOCK, main
from crosscavity.detect import detect_stack
from crosscavity.io import sweep_to_csv

BUILDERS = {"one_photon": one_photon_state, "two_photon": two_photon_state}
ATOMS = {
    "excited": None,
    "superposed": {"c_g": {"re": 0.6, "im": 0.0}, "c_e": {"re": 0.0, "im": 0.8}},
}


def sweep_rows_reference(builder, atom, params, alphas):
    """The per-angle readout: ``detect`` once per mixing angle."""
    rows = []
    n_max = 0
    for alpha in alphas:
        report = detect(builder(float(alpha)), atom, params)
        pops = report.spectrum.as_dict()
        n_max = max(n_max, max(pops))
        rows.append(
            {
                "alpha": float(alpha),
                "theta_m": report.theta_m if report.theta_m is not None else math.nan,
                "concurrence": report.concurrence if report.concurrence is not None else math.nan,
                "populations": pops,
            }
        )
    return rows, n_max


def run_sweep(tmp_path, name, lam, atom, sweep):
    doc = {"builder": {"name": name, "args": [0.0]}, "params": {"lambda": lam, "k_delta_r": 0.1}}
    if atom is not None:
        doc["atom"] = atom
    spec = tmp_path / "state.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["sweep", "--state", str(spec), f"--sweep={sweep}", "--out", str(out)]) == 0
    return (out / "sweep.csv").read_bytes()


def atom_of(doc):
    if doc is None:
        return AtomState.excited()
    return AtomState.normalized(
        complex(doc["c_g"]["re"], doc["c_g"]["im"]), complex(doc["c_e"]["re"], doc["c_e"]["im"])
    )


CASES = [
    (name, lam, atom, f"0:{math.pi / 2!r}:33")
    for name in BUILDERS
    for lam in (20.0, 100.0)
    for atom in ATOMS
]
# more angles than one block, so the pass runs in several blocks
CASES += [("one_photon", 20.0, "superposed", f"-0.2:3.4:{SWEEP_BLOCK + 7}")]
CASES += [("two_photon", 100.0, "excited", f"0:{math.pi!r}:{2 * SWEEP_BLOCK + 1}")]


@pytest.mark.parametrize("name, lam, atom, sweep", CASES)
def test_sweep_csv_matches_per_angle_detect(tmp_path, name, lam, atom, sweep):
    got = run_sweep(tmp_path, name, lam, ATOMS[atom], sweep)
    start, stop, count = sweep.split(":")
    alphas = np.linspace(float(start), float(stop), int(count))
    rows, n_max = sweep_rows_reference(BUILDERS[name], atom_of(ATOMS[atom]), CouplingParams(lam, 0.1), alphas)
    sweep_to_csv(rows, n_max, tmp_path / "reference.csv")
    assert got == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("atom", sorted(ATOMS))
def test_detect_stack_matches_detect_per_state(name, atom):
    params = CouplingParams(20.0, 0.1)
    states = [BUILDERS[name](float(a)) for a in np.linspace(0.0, math.pi / 2, 33)]
    reports = detect_stack(states, atom_of(ATOMS[atom]), params)
    assert len(reports) == len(states)
    for state, got in zip(states, reports):
        ref = detect(state, atom_of(ATOMS[atom]), params)
        assert got.theta_m == ref.theta_m
        assert got.theta_m_raw == ref.theta_m_raw
        assert got.concurrence == ref.concurrence
        assert got.spectrum.as_dict().keys() == ref.spectrum.as_dict().keys()
        for n, p in ref.spectrum.as_dict().items():
            assert abs(got.spectrum.as_dict()[n] - p) <= 2.3e-16, n
        assert [f.n for f in got.missing_rings if f.flagged] == [f.n for f in ref.missing_rings if f.flagged]
        assert got.predicted_missing == ref.predicted_missing
        assert got.warnings == ref.warnings


def test_detect_stack_refuses_states_on_different_blocks():
    mixed = [one_photon_state(0.3), noon_state(2)]
    with pytest.raises(ValueError, match="same photon blocks"):
        detect_stack(mixed, AtomState.excited(), CouplingParams(20.0, 0.1))
    with pytest.raises(ValueError, match="at least one state"):
        detect_stack([], AtomState.excited(), CouplingParams(20.0, 0.1))


def test_stack_matches_each_state_alone_where_harmonics_differ():
    # NOON-2 empties two channels and keeps only w = 0; the others keep w = +-2
    states = [noon_state(2), two_photon_state(0.4), TwoModeState({(1, 1): 1.0})]
    atom = AtomState.normalized(0.6, 0.8j)
    params = CouplingParams(20.0, 0.1)
    stacked = distribution.channel_tables(states, atom)
    p = np.linspace(0.0, 60.0, 25)
    dens = distribution._density_table(stacked, p, 64, params)
    spectra = distribution.exact_populations(states, atom)
    for s, state in enumerate(states):
        alone = distribution.channel_tables(state, atom)
        for ch, one in zip(stacked, alone):
            full = dict(zip(ch.w_values.tolist(), ch.chi[s]))
            assert {w: c for w, c in full.items() if c != 0} == dict(zip(one.w_values.tolist(), one.chi[0]))
        assert np.array_equal(dens[s], distribution._density_table(alone, p, 64, params)[0])
        ref = distribution.populations(state, atom, params).as_dict()
        assert spectra[s].as_dict().keys() == ref.keys()
        assert all(abs(spectra[s].as_dict()[n] - v) <= 2.3e-16 for n, v in ref.items())
