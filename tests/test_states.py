import math

import numpy as np
import pytest

from crosscavity import (
    AtomState,
    CouplingParams,
    InvalidStateError,
    TwoModeState,
    family_state,
    mode_swap,
    noon_state,
    normalize,
    one_photon_state,
    two_photon_state,
)
from crosscavity.states import dressed_totals

SQ2 = 1.0 / math.sqrt(2.0)


def test_normalize_single_component():
    s = normalize(TwoModeState({(1, 0): 2.0}))
    assert s.amplitudes[(1, 0)] == pytest.approx(1.0)


def test_normalize_symmetric_pair():
    s = normalize(TwoModeState({(0, 1): 1.0, (1, 0): 1.0}))
    assert s.amplitudes[(0, 1)] == pytest.approx(SQ2)
    assert s.amplitudes[(1, 0)] == pytest.approx(SQ2)


def test_normalize_three_four_five():
    s = normalize(TwoModeState({(0, 2): 3.0, (2, 0): 4.0}))
    assert s.amplitudes[(0, 2)] == pytest.approx(0.6)
    assert s.amplitudes[(2, 0)] == pytest.approx(0.8)


def test_normalize_preserves_phases():
    s = normalize(TwoModeState({(0, 1): 2j, (3, 0): -2.0}))
    assert s.amplitudes[(0, 1)] == pytest.approx(1j * SQ2)
    assert s.amplitudes[(3, 0)] == pytest.approx(-SQ2)


def test_normalize_rejects_zero_state():
    with pytest.raises(InvalidStateError):
        normalize(TwoModeState({(1, 1): 0.0}))


def test_normalize_huge_amplitudes():
    # |c|^2 = 1e400 overflows a float, the norm 1e200 does not
    s = normalize(TwoModeState({(1, 0): 1e200}))
    assert s.amplitudes == {(1, 0): 1.0}
    s = normalize(TwoModeState({(0, 1): 3e200, (1, 0): -4e200j}))
    assert s.amplitudes[(0, 1)] == pytest.approx(0.6, rel=1e-15)
    assert s.amplitudes[(1, 0)] == pytest.approx(-0.8j, rel=1e-15)
    assert TwoModeState({(1, 0): 1e200}).norm_squared() == math.inf
    assert TwoModeState({(1, 0): 1e200}).norm() == 1e200
    # only a norm past the float range itself is refused
    with pytest.raises(InvalidStateError, match="overflows"):
        normalize(TwoModeState({(1, 0): 1.5e308, (0, 1): 1.5e308}))
    # as is one amplitude whose modulus is, though both its parts are finite
    with pytest.raises(InvalidStateError, match="overflows"):
        TwoModeState({(1, 0): complex(1.7e308, 1.7e308)})


def test_normalize_tiny_amplitudes():
    # |c|^2 = 1e-400 underflows to 0, the norm 1e-200 does not (pruning off)
    s = normalize(TwoModeState({(1, 0): 1e-200}, prune=0.0))
    assert s.amplitudes == {(1, 0): 1.0}
    s = normalize(TwoModeState({(0, 1): 3e-200j, (1, 0): 4e-200}, prune=0.0))
    assert s.amplitudes[(0, 1)] == pytest.approx(0.6j, rel=1e-15)
    assert s.amplitudes[(1, 0)] == pytest.approx(0.8, rel=1e-15)
    with pytest.raises(InvalidStateError, match="no nonzero amplitude"):
        normalize(TwoModeState({(1, 0): 0.0}, prune=0.0))


def test_norm_squared_is_the_correctly_rounded_sum_of_squares():
    rng = np.random.default_rng(3)
    for _ in range(50):
        amps = {(m, 0): complex(*rng.normal(size=2)) * 10.0 ** rng.integers(-5, 5) for m in range(6)}
        state = TwoModeState(amps)
        assert state.norm_squared() == math.fsum(abs(c) ** 2 for c in state.amplitudes.values())
        assert state.norm() == math.sqrt(state.norm_squared())


def test_normalize_idempotent_exactly():
    for raw in (
        {(0, 2): 3.0, (2, 0): 4.0},
        {(0, 1): 0.3 + 0.4j, (5, 2): -1.1},
        {(1, 0): 1.0},
    ):
        once = normalize(TwoModeState(raw))
        twice = normalize(once)
        assert dict(once.amplitudes) == dict(twice.amplitudes)



def normalize_two_pass(state):
    """``normalize`` with separate ``norm`` and ``norm_squared`` passes."""
    norm = state.norm()
    if norm == 0.0:
        raise InvalidStateError("cannot normalize a state with no nonzero amplitude")
    if norm == math.inf:
        raise InvalidStateError("state norm overflows a float")
    if abs(state.norm_squared() - 1.0) < 1e-14:
        return state
    factor = 1.0 / norm
    if not math.isfinite(factor):  # norm below ~5.6e-309: an exact power-of-two rescale first
        scaled = TwoModeState({key: c * 2.0**600 for key, c in state.amplitudes.items()}, prune=0.0)
        return normalize_two_pass(scaled)
    return TwoModeState({key: c * factor for key, c in state.amplitudes.items()}, tags=state.tags)


def _outcome(fn, state):
    try:
        out = fn(state)
    except InvalidStateError as exc:
        return ("refused", str(exc))
    return ("ok", out is state, dict(out.amplitudes), out.tags)


def test_normalize_equals_the_two_pass_version():
    rng = np.random.default_rng(1607)
    cases = []
    for modulus in (1e-300, 5e-324, 1e154, 1e200, 1e307):
        cases.append({(1, 0): modulus})
        cases.append({(0, 1): 3 * modulus, (1, 0): -4j * modulus})
        cases.append({(m, 2): complex(*rng.normal(size=2)) * modulus for m in range(5)})
    for _ in range(40):  # mixed magnitudes, many decades apart
        cases.append({(m, 0): complex(*rng.normal(size=2)) * 10.0 ** rng.integers(-320, 308) for m in range(4)})
    cases += [
        {(1, 0): 1.5e308, (0, 1): 1.5e308},  # norm overflows
        {(1, 1): 0.0},  # zero norm
        {(0, 1): math.sqrt(0.5), (1, 0): math.sqrt(0.5)},  # already normalized
        dict(normalize(TwoModeState({(0, 1): 0.3 + 0.4j, (5, 2): -1.1})).amplitudes),
    ]
    seen = set()
    for amps in cases:
        state = TwoModeState(amps, prune=0.0)
        got, want = _outcome(normalize, state), _outcome(normalize_two_pass, state)
        assert got == want
        seen.add(got[:2])
    assert {("ok", False), ("ok", True), ("refused", "state norm overflows a float"),
            ("refused", "cannot normalize a state with no nonzero amplitude")} <= seen


def test_normalize_accepts_subnormal_norms():
    # 1 / norm overflows below ~5.6e-309; the result equals that of the same
    # state scaled up by an exact power of two, and has unit norm
    rng = np.random.default_rng(1811)
    cases = [
        {(1, 0): 5e-324},
        {(1, 0): 1e-310},
        {(0, 1): 3e-320, (1, 0): -4e-320j},
        {(m, 1): complex(*rng.normal(size=2)) * 10.0 ** rng.integers(-323, -308) for m in range(4)},
        {(0, 2): 1e-300 * 1e-15, (2, 0): 5e-324, (1, 1): 2.5e-310j},
    ]
    for amps in cases:
        state = TwoModeState(amps, prune=0.0)
        scaled = TwoModeState({key: c * 2.0**600 for key, c in amps.items()}, prune=0.0)
        out = normalize(state)
        assert dict(out.amplitudes) == dict(normalize(scaled).amplitudes)
        assert abs(out.norm() - 1.0) <= 1e-15
    assert dict(normalize(TwoModeState({(1, 0): 5e-324}, prune=0.0)).amplitudes) == {(1, 0): 1.0}


def test_normalize_makes_one_norm_pass(monkeypatch):
    passes = []
    original = TwoModeState._scaled_norm_squared

    def counting(self):
        passes.append(self)
        return original(self)

    monkeypatch.setattr(TwoModeState, "_scaled_norm_squared", counting)
    state = TwoModeState({(0, 1): 2.0, (1, 0): 1.0j})
    normalize(state)
    assert passes == [state]
    passes.clear()
    unit = TwoModeState({(1, 0): 1.0})
    assert normalize(unit) is unit
    assert passes == [unit]


def test_builders_are_normalized():
    for state in (
        one_photon_state(0.3),
        two_photon_state(1.2),
        noon_state(4),
        family_state(2, 2),
    ):
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_one_photon_endpoints():
    assert dict(one_photon_state(0.0).amplitudes) == {(1, 0): pytest.approx(1.0)}
    s = one_photon_state(math.pi / 4)
    assert s.amplitudes[(0, 1)] == pytest.approx(SQ2)
    assert s.amplitudes[(1, 0)] == pytest.approx(SQ2)
    assert dict(one_photon_state(math.pi / 2).amplitudes) == {(0, 1): pytest.approx(1.0)}


def test_two_photon_endpoints():
    assert dict(two_photon_state(0.0).amplitudes) == {(2, 0): pytest.approx(1.0)}
    mid = two_photon_state(math.pi / 4)
    assert mid.amplitudes[(2, 0)] == pytest.approx(SQ2)
    assert mid.amplitudes[(0, 2)] == pytest.approx(SQ2)
    assert dict(two_photon_state(math.pi / 2).amplitudes) == {(0, 2): pytest.approx(1.0)}


def test_noon_state():
    s = noon_state(2)
    assert s.amplitudes[(2, 0)] == pytest.approx(SQ2)
    assert s.amplitudes[(0, 2)] == pytest.approx(SQ2)
    assert s.max_total == 2
    s6 = noon_state(6)
    assert s6.amplitudes[(6, 0)] == pytest.approx(SQ2)
    assert s6.max_total == 6


def test_noon_rejects_vacuum():
    with pytest.raises(ValueError):
        noon_state(0)


def test_noon_one_equals_balanced_one_photon():
    a = noon_state(1)
    b = one_photon_state(math.pi / 4)
    for key in ((0, 1), (1, 0)):
        assert a.amplitudes[key] == pytest.approx(b.amplitudes[key], abs=1e-15)


@pytest.mark.parametrize(
    "j,q,kets,n_total,missing",
    [
        (0, 1, ((0, 2), (2, 0)), 2, 2),
        (1, 1, ((1, 3), (3, 1)), 4, 3),
        (2, 1, ((2, 4), (4, 2)), 6, 4),
    ],
)
def test_family_state_table(j, q, kets, n_total, missing):
    s = family_state(j, q)
    assert set(s.amplitudes) == set(kets)
    assert s.max_total == n_total
    assert s.tags["missing_ring"] == missing
    for key in kets:
        assert s.amplitudes[key] == pytest.approx(SQ2)


def test_family_reduces_to_noon_at_j0():
    for q in (1, 2, 3):
        assert family_state(0, q) == noon_state(4 * q - 2)


def test_mode_swap_basics():
    assert dict(mode_swap(TwoModeState({(1, 0): 1.0})).amplitudes) == {(0, 1): pytest.approx(1.0)}
    for n in (1, 2, 5):
        assert mode_swap(noon_state(n)) == noon_state(n)
    a = mode_swap(one_photon_state(0.3))
    b = one_photon_state(math.pi / 2 - 0.3)
    for key in ((0, 1), (1, 0)):
        assert a.amplitudes[key] == pytest.approx(b.amplitudes[key], abs=1e-15)


def test_mode_swap_involution():
    rng = np.random.default_rng(3)
    amps = {
        (int(rng.integers(0, 5)), int(rng.integers(0, 5))): complex(rng.normal(), rng.normal())
        for _ in range(6)
    }
    s = normalize(TwoModeState(amps))
    assert mode_swap(mode_swap(s)) == s


def test_support_cap_enforced():
    with pytest.raises(InvalidStateError):
        TwoModeState({(20, 20): 1.0})
    TwoModeState({(20, 20): 1.0}, cap=40)  # explicit cap widens the limit


def test_pruning_drops_tiny_amplitudes():
    s = TwoModeState({(0, 1): 1.0, (4, 4): 1e-16})
    assert (4, 4) not in s.amplitudes


def test_state_immutable():
    s = noon_state(2)
    with pytest.raises(AttributeError):
        s.max_total = 5
    with pytest.raises(TypeError):
        s.amplitudes[(0, 0)] = 1.0


def test_atom_state_validation():
    AtomState.excited()
    AtomState.ground()
    with pytest.raises(InvalidStateError):
        AtomState(1.0, 1.0)
    a = AtomState.normalized(1.0, 1.0)
    assert abs(a.c_g) ** 2 + abs(a.c_e) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_coupling_params_validation():
    CouplingParams(20.0, 0.1)
    with pytest.raises(ValueError):
        CouplingParams(-1.0, 0.1)
    with pytest.raises(ValueError):
        CouplingParams(20.0, 0.0)
    with pytest.raises(ValueError):
        CouplingParams(math.inf, 0.1)


def test_blocks_grouping():
    s = normalize(TwoModeState({(0, 1): 1.0, (1, 0): 1.0, (2, 1): 1.0}))
    blocks = s.blocks()
    assert set(blocks) == {1, 3}
    assert set(blocks[1]) == {0, 1}
    assert set(blocks[3]) == {2}


def test_state_rejects_bool_photon_indices():
    for key in ((True, 0), (0, False)):
        with pytest.raises(InvalidStateError):
            TwoModeState({key: 1.0})


def test_dressed_totals_vacuum_with_ground_atom():
    vacuum = TwoModeState({(0, 0): 1.0})
    assert dressed_totals(vacuum, AtomState.ground()) == [(0, 1 + 0j, 0j)]
    assert dressed_totals(vacuum, AtomState.excited()) == [(1, 0j, 1 + 0j)]


def test_dressed_totals_excited_atom_shifts_every_block():
    state = normalize(TwoModeState({(1, 0): 1.0, (2, 1): 1.0}))
    assert dressed_totals(state, AtomState.excited()) == [(2, 0j, 1 + 0j), (4, 0j, 1 + 0j)]


def test_dressed_totals_superposed_atom_on_multiblock_state():
    state = normalize(TwoModeState({(0, 0): 1.0, (1, 0): 1.0, (2, 1): 1.0}))
    atom = AtomState.normalized(0.6, 0.8j)
    c_g, c_e = atom.c_g, atom.c_e
    # blocks 0, 1, 3: ground totals 0, 1, 3; excited totals 1, 2, 4
    assert dressed_totals(state, atom) == [
        (0, c_g, 0j),
        (1, c_g, c_e),
        (2, 0j, c_e),
        (3, c_g, 0j),
        (4, 0j, c_e),
    ]
