import math

import numpy as np
import pytest

from crosscavity import (
    AtomState,
    CouplingParams,
    GridSpec,
    KernelIndices,
    MomentumPoint,
    TwoModeState,
    family_state,
    fourier_analytic,
    harmonic_coefficients,
    mode_swap,
    noon_state,
    normalize,
    one_photon_state,
    populations,
    spectrum_consistency,
    total_probability,
    two_photon_state,
    w_grid,
    w_point,
)
from crosscavity import distribution
from crosscavity.distribution import _angular_mean, _density_table, channel_tables, default_p_max
from crosscavity.kernel import gamma, mode_radial_table
from crosscavity.quadrature import AccuracyError, _panel_rule
from crosscavity.rotation import d_matrix_table

PARAMS = CouplingParams(20.0, 0.1)
EXCITED = AtomState.excited()


def eq4_direct(state, point, params):
    """Main-text form of the density for an excited atom, built term by term."""
    blocks = state.blocks()
    total_sum = 0.0
    for n_field, block in blocks.items():
        total = n_field + 1
        for n in range(1, total + 1):
            for branch in (1, -1):
                amp = 0j
                for m_field, coeff in block.items():
                    idx = KernelIndices(total, m_field + 1, n, "e", branch)
                    amp += coeff * fourier_analytic(idx, point, params)
                total_sum += 0.5 * abs(amp) ** 2
    return total_sum


def exact_populations_brute(state, thetas=4096):
    """Ring weights via the monomial-map rotation oracle (excited atom)."""
    from test_rotation import monomial_map_matrix

    grid = np.arange(thetas) * (2 * math.pi / thetas)
    blocks = state.blocks()
    out = {}
    for n_field, block in blocks.items():
        mats = np.array([monomial_map_matrix(n_field, t) for t in grid])  # (T, N+1, N+1)
        for n in range(1, n_field + 2):
            amp = np.zeros(thetas, dtype=complex)
            for m_field, coeff in block.items():
                amp += coeff * mats[:, m_field, n - 1]
            out[n] = out.get(n, 0.0) + float(np.mean(np.abs(amp) ** 2))
    return out


def test_w_point_matches_eq4_reduction():
    rng = np.random.default_rng(23)
    states = [
        one_photon_state(0.7),
        noon_state(2),
        normalize(TwoModeState({(0, 0): 0.5, (1, 1): 1.0, (2, 0): -0.25j})),
    ]
    for state in states:
        for _ in range(8):
            pt = MomentumPoint(float(rng.uniform(0, 60)), float(rng.uniform(0, 2 * math.pi)))
            direct = eq4_direct(state, pt, PARAMS)
            assembled = w_point(state, EXCITED, pt, PARAMS)
            assert abs(assembled - direct) <= 1e-12 * max(1.0, direct)


def test_w_point_nonnegative():
    rng = np.random.default_rng(8)
    atom = AtomState.normalized(0.6, 0.8j)
    state = normalize(TwoModeState({(0, 1): 1.0, (2, 1): 0.5j, (0, 0): 0.3}))
    for _ in range(50):
        pt = MomentumPoint(float(rng.uniform(0, 80)), float(rng.uniform(0, 2 * math.pi)))
        assert w_point(state, atom, pt, PARAMS) >= -1e-14


def test_far_tail_is_small():
    # at three ring radii out the density has fallen by close to three
    # decades relative to the pattern peak (measured: ratio 3.2e-3; the
    # slit-diffraction tails decay polynomially, not exponentially)
    state = TwoModeState({(1, 0): 1.0})
    grid = w_grid(state, EXCITED, PARAMS, GridSpec(radial_points=800, angular_points=180))
    pattern_peak = grid.densities.max()
    far = max(
        w_point(state, EXCITED, MomentumPoint(3 * PARAMS.lam, phi), PARAMS)
        for phi in np.linspace(0, 2 * math.pi, 48)
    )
    assert far <= 5e-3 * pattern_peak


def test_ground_atom_vacuum_field_is_diffraction_spot():
    state = TwoModeState({(0, 0): 1.0})
    atom = AtomState.ground()
    center = w_point(state, atom, MomentumPoint(0.0, 0.0), PARAMS)
    away = w_point(state, atom, MomentumPoint(30.0, 0.0), PARAMS)
    assert center > 0
    assert away < 1e-3 * center


def test_one_photon_pattern_peaks_off_axis():
    state = one_photon_state(math.pi / 4)
    ring = math.sqrt(2) * PARAMS.lam
    vals = {
        phi: w_point(state, EXCITED, MomentumPoint(ring, phi), PARAMS)
        for phi in (0.0, math.pi / 4, math.pi / 2)
    }
    assert vals[math.pi / 4] > vals[0.0]
    assert vals[math.pi / 4] > vals[math.pi / 2]


def test_vacuum_excited_single_ring():
    state = TwoModeState({(0, 0): 1.0})
    grid = w_grid(state, EXCITED, PARAMS, GridSpec(radial_points=300, angular_points=90))
    profile = grid.densities.mean(axis=1)
    peak = grid.radial_values[int(np.argmax(profile * grid.radial_values))]
    assert abs(peak - PARAMS.lam) < 1.0


def test_single_mode_photon_grid_has_two_ridges():
    state = TwoModeState({(1, 0): 1.0})
    grid = w_grid(state, EXCITED, PARAMS, GridSpec(radial_points=400, angular_points=180))
    radial_mass = grid.densities.mean(axis=1) * grid.radial_values
    # local maxima of the angular-averaged radial profile
    interior = (radial_mass[1:-1] > radial_mass[:-2]) & (radial_mass[1:-1] > radial_mass[2:])
    peaks = grid.radial_values[1:-1][interior]
    strong = peaks[radial_mass[1:-1][interior] > 0.1 * radial_mass.max()]
    assert len(strong) == 2
    assert abs(strong[0] - PARAMS.lam) < 1.0
    assert abs(strong[1] - math.sqrt(2) * PARAMS.lam) < 1.0


def test_noon2_grid_ring_geometry():
    # rings at lam and sqrt(3) lam, with the sqrt(2) lam ring suppressed
    grid = w_grid(noon_state(2), EXCITED, PARAMS, GridSpec(radial_points=600, angular_points=120))
    radial_mass = grid.densities.mean(axis=1) * grid.radial_values
    interior = (radial_mass[1:-1] > radial_mass[:-2]) & (radial_mass[1:-1] > radial_mass[2:])
    peaks = grid.radial_values[1:-1][interior]
    strong = peaks[radial_mass[1:-1][interior] > 0.2 * radial_mass.max()]
    assert len(strong) == 2
    assert abs(strong[0] - PARAMS.lam) < 1.0
    assert abs(strong[1] - math.sqrt(3) * PARAMS.lam) < 1.0
    # the would-be middle ring reads below both neighbors
    at = lambda r: radial_mass[int(np.argmin(np.abs(grid.radial_values - r)))]
    assert at(math.sqrt(2) * PARAMS.lam) < 0.5 * min(at(strong[0]), at(strong[1]))


def test_grid_meta_and_warning():
    state = noon_state(2)
    grid = w_grid(state, EXCITED, PARAMS, GridSpec(radial_points=12, angular_points=90))
    assert grid.meta["warnings"], "coarse grid must be flagged"
    fine = w_grid(state, EXCITED, PARAMS, GridSpec(radial_points=400, angular_points=90))
    assert not fine.meta["warnings"]
    assert fine.meta["kernel"] == "analytic"
    assert fine.meta["lambda"] == PARAMS.lam


def test_default_p_max_formula():
    state = noon_state(2)
    assert default_p_max(state, PARAMS) == pytest.approx(
        math.sqrt(3) * PARAMS.lam + 10.0 / PARAMS.k_delta_r
    )


def test_total_probability_one_photon():
    grid = w_grid(one_photon_state(0.9), EXCITED, PARAMS)
    assert total_probability(grid) == pytest.approx(1.0, abs=2e-2)


def test_total_probability_tail_behavior():
    # theta-independent dressed amplitudes (NOON-2) have fast tails and the
    # default reach contains them; angular harmonics leave a polynomial
    # (slit-diffraction) tail of a few 1e-3 at lam = 20
    noon = noon_state(2)
    base = total_probability(w_grid(noon, EXCITED, PARAMS))
    doubled = total_probability(
        w_grid(
            noon,
            EXCITED,
            PARAMS,
            GridSpec(radial_points=800, angular_points=720, p_max=2 * default_p_max(noon, PARAMS)),
        )
    )
    assert abs(doubled - base) < 1e-3

    photon = one_photon_state(0.9)
    base = total_probability(w_grid(photon, EXCITED, PARAMS))
    doubled = total_probability(
        w_grid(
            photon,
            EXCITED,
            PARAMS,
            GridSpec(radial_points=800, angular_points=720, p_max=2 * default_p_max(photon, PARAMS)),
        )
    )
    assert 1e-4 < abs(doubled - base) < 5e-3


def test_numeric_kernel_grid_matches_analytic():
    state = one_photon_state(0.3)
    spec = GridSpec(radial_points=5, angular_points=8, p_max=40.0)
    a = w_grid(state, EXCITED, PARAMS, spec)
    b = w_grid(state, EXCITED, PARAMS, spec, kernel="numeric")
    assert np.max(np.abs(a.densities - b.densities)) <= 1e-6 * a.densities.max()


# ---------------------------------------------------------------------------
# angular assembly
# ---------------------------------------------------------------------------

SUPERPOSED = AtomState.normalized(0.6, 0.8j)


def density_table_loop(channels, p, phi, params):
    """Reference assembly: each channel's amplitude summed harmonic by harmonic."""
    dens = np.zeros((p.size, phi.size))
    for ch in channels:
        if ch.w_values.size == 0:
            continue
        g = gamma(ch.n, params, ch.branch)
        radial = mode_radial_table(np.abs(ch.w_values), p, g, params.k_delta_r)
        amp = np.zeros((p.size, phi.size), dtype=complex)
        for k, w in enumerate(ch.w_values):
            amp += (ch.chi[0, k] * radial[k])[:, None] * np.exp(1j * w * phi)[None, :]
        dens += ch.weight * (amp.real**2 + amp.imag**2)
    return dens


def channel_tables_reference(state, atom):
    """The channel enumeration written out per atomic side, excited tables included."""
    blocks = state.blocks()
    channels = []
    c_g, c_e = atom.c_g, atom.c_e
    if abs(c_g) > 0:
        for n_field, block in blocks.items():
            chi = np.zeros(2 * n_field + 1, dtype=complex)
            for m, coeff in block.items():
                w_vals, kap = harmonic_coefficients(KernelIndices(n_field, m, 0, "g", 1))
                chi[w_vals + n_field] += coeff * kap
            chi *= c_g
            keep = chi != 0
            channels.append((0, 1, 1.0, np.arange(-n_field, n_field + 1)[keep], chi[keep]))
    totals = set()
    if abs(c_g) > 0:
        totals |= {n for n in blocks if n >= 1}
    if abs(c_e) > 0:
        totals |= {n + 1 for n in blocks}
    for total in sorted(totals):
        for n in range(1, total + 1):
            chi_g = np.zeros(2 * total + 1, dtype=complex)
            chi_e = np.zeros(2 * total + 1, dtype=complex)
            if abs(c_g) > 0 and total in blocks:
                for m, coeff in blocks[total].items():
                    w_vals, kap = harmonic_coefficients(KernelIndices(total, m, n, "g", 1))
                    chi_g[w_vals + total] += coeff * kap
            if abs(c_e) > 0 and (total - 1) in blocks:
                for m, coeff in blocks[total - 1].items():
                    w_vals, kap = harmonic_coefficients(KernelIndices(total, m + 1, n, "e", 1))
                    chi_e[w_vals + total] += coeff * kap
            for branch in (1, -1):
                chi = c_g * chi_g + branch * c_e * chi_e
                keep = chi != 0
                channels.append((n, branch, 0.5, np.arange(-total, total + 1)[keep], chi[keep]))
    return channels


@pytest.mark.parametrize(
    "atom",
    [AtomState.ground(), EXCITED, AtomState.normalized(0.6, 0.8j)],
    ids=["ground", "excited", "superposed"],
)
def test_channel_tables_match_reference_enumeration(atom):
    state = normalize(TwoModeState({(0, 0): 0.3, (1, 0): 0.5, (0, 1): -0.4j, (2, 1): 0.6, (0, 3): 0.2}))
    channels = channel_tables(state, atom)
    reference = channel_tables_reference(state, atom)
    assert len(channels) == len(reference)
    for ch, (n, branch, weight, w_values, chi) in zip(channels, reference):
        assert (ch.n, ch.branch, ch.weight) == (n, branch, weight)
        assert np.array_equal(ch.w_values, w_values)
        assert ch.chi.shape == (1, chi.size)
        assert np.array_equal(ch.chi[0], chi)


@pytest.mark.parametrize(
    "state", [noon_state(12), family_state(3, 2), noon_state(32)], ids=["noon12", "family32", "noon32"]
)
@pytest.mark.parametrize("angular_points", [4, 7, 20, 720])
def test_density_table_matches_harmonic_loop(state, angular_points):
    # 4, 7 and 20 angles are fewer than the 4M+1 Fourier coefficients of a
    # top harmonic M >= 13, so several coefficients share one column
    channels = channel_tables(state, SUPERPOSED)
    p = np.linspace(0.0, default_p_max(state, PARAMS), 40)
    phi = np.arange(angular_points) * (2 * math.pi / angular_points)
    ref = density_table_loop(channels, p, phi, PARAMS)
    got = _density_table(channels, p, angular_points, PARAMS)
    assert got.shape == (1,) + ref.shape
    assert np.max(np.abs(got[0] - ref)) <= 1e-13 * ref.max()


def test_render_states_density_nonnegative():
    # the states of one render round of the benchmark: superposed-atom one-
    # and two-photon states, NOON-2/6/12 and every family member of total
    # 4, 8 and 12, at both couplings, on the default grid
    atom_1 = AtomState.normalized(math.cos(0.5), math.sin(0.5) * complex(math.cos(2.0), math.sin(2.0)))
    atom_2 = AtomState.normalized(math.cos(1.1), math.sin(1.1) * complex(math.cos(5.0), math.sin(5.0)))
    cases = [(one_photon_state(0.4), atom_1), (two_photon_state(1.2), atom_2)]
    cases += [(noon_state(n), EXCITED) for n in (2, 6, 12)]
    cases += [(family_state(j, q), EXCITED) for j, q in ((1, 1), (3, 1), (1, 2), (5, 1), (3, 2), (1, 3))]
    for lam in (20.0, 100.0):
        params = CouplingParams(lam, 0.1)
        for state, atom in cases:
            dens = w_grid(state, atom, params).densities
            assert dens.min() >= 0.0, (lam, dict(state.amplitudes), dens.min())


def test_w_point_equals_grid_node():
    state = family_state(1, 1)
    grid = w_grid(state, SUPERPOSED, PARAMS, GridSpec(radial_points=50, angular_points=36))
    tol = 1e-13 * grid.densities.max()
    for i, j in ((0, 0), (17, 5), (30, 18), (49, 35)):
        point = MomentumPoint(grid.radial_values[i], grid.angular_values[j])
        assert abs(w_point(state, SUPERPOSED, point, PARAMS) - grid.densities[i, j]) <= tol


def test_w_point_refuses_an_array_point():
    # an array point read as one would give a number, and a wrong one, when
    # its size equals the count of harmonic differences; every size is refused
    state = family_state(1, 1)
    for size in range(1, 20):
        point = MomentumPoint(np.full(size, 20.0), np.linspace(0.0, 3.0, size))
        with pytest.raises(ValueError, match="array point"):
            w_point(state, SUPERPOSED, point, PARAMS)


# ---------------------------------------------------------------------------
# ring populations
# ---------------------------------------------------------------------------


def test_exact_populations_frozen_values():
    cases = [
        (one_photon_state(0.0), {1: 0.5, 2: 0.5}),
        (one_photon_state(1.1), {1: 0.5, 2: 0.5}),
        (TwoModeState({(2, 0): 1.0}), {1: 3 / 8, 2: 1 / 4, 3: 3 / 8}),
        (noon_state(2), {1: 0.5, 2: 0.0, 3: 0.5}),
    ]
    for state, expected in cases:
        got = populations(state, EXCITED, PARAMS, estimator="exact").as_dict()
        for n, value in expected.items():
            assert got[n] == pytest.approx(value, abs=1e-10)


def test_exact_populations_match_independent_oracle():
    for state in (one_photon_state(0.4), noon_state(3), two_photon_state(0.8)):
        brute = exact_populations_brute(state)
        got = populations(state, EXCITED, PARAMS, estimator="exact").as_dict()
        for n, value in brute.items():
            assert got[n] == pytest.approx(value, abs=1e-10)


def test_exact_closure_with_atom_superposition():
    atom = AtomState.normalized(0.8, 0.6j)
    state = normalize(TwoModeState({(0, 0): 1.0, (1, 1): -0.7, (0, 2): 0.4j}))
    spectrum = populations(state, atom, PARAMS, estimator="exact")
    assert math.fsum(e.p for e in spectrum.entries) == pytest.approx(1.0, abs=1e-10)
    assert spectrum.entries[0].n == 0  # ground channel present for c_g != 0


def test_ground_channel_weight_is_block_incoherent():
    # blocks of different total photon number cannot interfere after tracing
    # out the field, so the undeflected weight adds per block
    atom = AtomState.ground()
    state = normalize(TwoModeState({(0, 0): 1.0, (2, 0): 1.0}))
    spectrum = populations(state, atom, PARAMS, estimator="exact").as_dict()
    thetas = np.arange(2048) * (2 * math.pi / 2048)
    d2 = d_matrix_table(2, thetas)
    expected0 = 0.5 * 1.0 + 0.5 * float(np.mean(d2[0, 0] ** 2))
    assert spectrum[0] == pytest.approx(expected0, abs=1e-12)
    assert math.fsum(populations(state, atom, PARAMS, estimator="exact").as_dict().values()) == pytest.approx(1.0, abs=1e-10)


def test_multiblock_ground_state_density_normalized():
    # undeflected channels of different photon blocks add incoherently;
    # the density then integrates to one even for multi-block states
    state = normalize(TwoModeState({(0, 0): 1.0, (2, 0): 1.0}))
    atom = AtomState.ground()
    grid = w_grid(state, atom, PARAMS, GridSpec(radial_points=500, angular_points=180, p_max=120.0))
    assert total_probability(grid) == pytest.approx(1.0, abs=2e-2)
    # and the pointwise density still matches the quadrature-oracle assembly
    from crosscavity import w_numeric

    pt = MomentumPoint(3.0, 0.7)
    assert w_point(state, atom, pt, PARAMS) == pytest.approx(
        w_numeric(state, atom, pt, PARAMS), rel=1e-6
    )


def test_eq8_normalization_factor_tracks_slit_width():
    # raw ring line integrals undercount by ~k_delta_r; the spectrum is
    # reported normalized with the scale factor preserved
    state = TwoModeState({(0, 0): 1.0})
    for lam, kdr in ((100.0, 0.1), (200.0, 0.05)):
        spectrum = populations(state, EXCITED, CouplingParams(lam, kdr), estimator="eq8")
        assert spectrum.norm_factor == pytest.approx(1.0 / kdr, rel=0.05)
        assert spectrum.as_dict()[1] == pytest.approx(1.0)


def test_window_populations_sum_to_one():
    params = CouplingParams(100.0, 0.1)
    for state in (noon_state(2), one_photon_state(0.5)):
        spectrum = populations(state, EXCITED, params, estimator="window")
        assert math.fsum(e.p for e in spectrum.entries) == pytest.approx(1.0, abs=2e-2)


def test_noon2_empty_ring_band_mass():
    # at the well-resolved operating point the empty ring's band holds under
    # 2% of the pattern; at lam = 20 the neighbor tails leak in (~19%) and
    # only a relative dip survives
    resolved = populations(noon_state(2), EXCITED, CouplingParams(100.0, 0.1), "window").as_dict()
    assert resolved[2] / sum(resolved.values()) < 0.02
    packed = populations(noon_state(2), EXCITED, PARAMS, estimator="window").as_dict()
    assert packed[2] < packed[1]
    assert packed[2] < packed[3]
    assert packed[2] / sum(packed.values()) > 0.1


def test_overlap_warning_attached():
    params = CouplingParams(20.0, 0.1)  # ring gap 8.3 < 4/kdr = 40
    spectrum = populations(noon_state(2), EXCITED, params, estimator="eq8")
    assert any("overlap" in w for w in spectrum.warnings)
    resolved = populations(one_photon_state(0.3), EXCITED, CouplingParams(150.0, 0.3), "eq8")
    assert not any("overlap" in w for w in resolved.warnings)


def test_spectrum_consistency_requires_large_coupling():
    with pytest.raises(ValueError):
        spectrum_consistency(noon_state(2), EXCITED, PARAMS)


def test_spectrum_consistency_noon2():
    params = CouplingParams(100.0, 0.1)
    report = spectrum_consistency(noon_state(2), EXCITED, params)
    exact = report.spectra["exact"].as_dict()
    assert exact[1] == pytest.approx(0.5, abs=1e-10)
    assert exact[2] == pytest.approx(0.0, abs=1e-10)
    assert report.max_discrepancy < 0.03


def test_spectrum_consistency_family11():
    params = CouplingParams(100.0, 0.1)
    report = spectrum_consistency(family_state(1, 1), EXCITED, params)
    for spectrum in report.spectra.values():
        assert spectrum.as_dict()[3] < 0.02
    assert report.spectra["exact"].as_dict()[1] == pytest.approx(0.25, abs=1e-10)


def test_one_photon_consistency_all_estimators():
    params = CouplingParams(100.0, 0.1)
    report = spectrum_consistency(one_photon_state(0.6), EXCITED, params)
    for name, spectrum in report.spectra.items():
        vals = spectrum.as_dict()
        assert vals[1] == pytest.approx(0.5, abs=0.03), name
        assert vals[2] == pytest.approx(0.5, abs=0.03), name


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def test_mirror_symmetry_under_mode_swap():
    rng = np.random.default_rng(31)
    state = normalize(
        TwoModeState({(0, 1): 0.9 + 0.2j, (2, 0): -0.6, (1, 1): 0.3j, (0, 0): 0.2})
    )
    swapped = mode_swap(state)
    atom = AtomState.normalized(0.5, math.sqrt(0.75) * 1j)
    for _ in range(60):
        p = float(rng.uniform(0, 70))
        phi = float(rng.uniform(0, 2 * math.pi))
        lhs = w_point(swapped, atom, MomentumPoint(p, phi), PARAMS)
        rhs = w_point(state, atom, MomentumPoint(p, (math.pi / 2 - phi) % (2 * math.pi)), PARAMS)
        assert abs(lhs - rhs) <= 1e-9


def test_one_photon_rotation_covariance():
    rng = np.random.default_rng(32)
    base = one_photon_state(0.0)
    for alpha in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
        rotated = one_photon_state(alpha)
        for _ in range(25):
            p = float(rng.uniform(0, 50))
            phi = float(rng.uniform(0, 2 * math.pi))
            lhs = w_point(rotated, EXCITED, MomentumPoint(p, phi), PARAMS)
            rhs = w_point(base, EXCITED, MomentumPoint(p, (phi - alpha) % (2 * math.pi)), PARAMS)
            assert abs(lhs - rhs) <= 1e-9


# ---------------------------------------------------------------------------
# exact populations through the rotation tables
# ---------------------------------------------------------------------------


def exact_populations_d_coeff(state, atom):
    """Reference exact estimator on the 1024-angle grid, from tables filled
    by one ``d_coeff`` call per element."""
    from test_rotation import d_coeff_table

    blocks = state.blocks()
    c_g, c_e = atom.c_g, atom.c_e
    tables = {n_field: d_coeff_table(n_field) for n_field in blocks}
    n_max = state.max_total + (1 if abs(c_e) > 0 else 0)
    out = {n: 0.0 for n in range(1, n_max + 1)}
    if abs(c_g) > 0:
        out[0] = 0.0
        for n_field, block in blocks.items():
            amp = sum(coeff * tables[n_field][m, 0] for m, coeff in block.items())
            out[0] += abs(c_g) ** 2 * float(np.mean(np.abs(amp) ** 2))
    totals = set()
    if abs(c_g) > 0:
        totals |= {n for n in blocks if n >= 1}
    if abs(c_e) > 0:
        totals |= {n + 1 for n in blocks}
    for total in sorted(totals):
        for n in range(1, total + 1):
            a_amp = np.zeros(1024, dtype=complex)
            b_amp = np.zeros(1024, dtype=complex)
            if abs(c_g) > 0 and total in blocks:
                for m, coeff in blocks[total].items():
                    a_amp += coeff * tables[total][m, n]
            if abs(c_e) > 0 and (total - 1) in blocks:
                for m, coeff in blocks[total - 1].items():
                    b_amp += coeff * tables[total - 1][m, n - 1]
            plus = np.mean(np.abs(c_g * a_amp + c_e * b_amp) ** 2)
            minus = np.mean(np.abs(c_g * a_amp - c_e * b_amp) ** 2)
            out[n] += 0.5 * float(plus) + 0.5 * float(minus)
    return out


@pytest.mark.parametrize(
    "state, atom, hole",
    [
        (noon_state(32), EXCITED, None),
        (family_state(4, 6), EXCITED, 16),  # total 30
        (noon_state(3), SUPERPOSED, None),
    ],
    ids=["noon32", "family46", "noon3-superposed"],
)
def test_exact_populations_match_d_coeff_reference(state, atom, hole):
    ref = exact_populations_d_coeff(state, atom)
    got = populations(state, atom, PARAMS, estimator="exact").as_dict()
    assert got.keys() == ref.keys()
    for n, value in ref.items():
        assert abs(got[n] - value) <= 1e-12, n
    if hole is not None:
        assert got[hole] <= 1e-10


def test_exact_populations_refuse_too_few_angles():
    # NOON-6 amplitudes have angular degree 6, their squares degree 12
    state = noon_state(6)
    for theta_points in (8, 12):
        with pytest.raises(ValueError, match="theta_points"):
            populations(state, EXCITED, PARAMS, estimator="exact", theta_points=theta_points)
    # 13 angles already integrate every weight exactly
    fine = populations(state, EXCITED, PARAMS, estimator="exact").as_dict()
    coarse = populations(state, EXCITED, PARAMS, estimator="exact", theta_points=13).as_dict()
    for n, value in fine.items():
        assert coarse[n] == pytest.approx(value, abs=1e-13)


READOUT_STATES = {
    **{f"noon{n}": noon_state(n) for n in (2, 3, 4, 5, 18, 32)},
    "family2_5": family_state(2, 5),  # total 22
    "family4_6": family_state(4, 6),  # total 30
    **{f"one{alpha:.3f}": one_photon_state(alpha) for alpha in (0.0, 0.3, math.pi / 4, math.pi / 2)},
    **{f"two{alpha:.3f}": two_photon_state(alpha) for alpha in (0.0, 0.3, math.pi / 4, math.pi / 2)},
}


@pytest.mark.parametrize("atom", [AtomState.ground(), EXCITED, SUPERPOSED], ids=["g", "e", "s"])
@pytest.mark.parametrize("name", sorted(READOUT_STATES))
def test_exact_default_grid_matches_1024_angles(name, atom):
    state = READOUT_STATES[name]
    ref = populations(state, atom, PARAMS, estimator="exact", theta_points=1024).as_dict()
    got = populations(state, atom, PARAMS, estimator="exact").as_dict()
    assert got.keys() == ref.keys()
    for n, value in ref.items():
        assert abs(got[n] - value) <= 1e-13, n
    hole = state.tags.get("missing_ring")
    if hole is not None and atom is EXCITED:
        assert got[hole] <= 1e-10


def test_exact_grid_is_smallest_exact_or_the_override(monkeypatch):
    import crosscavity.distribution as distribution

    sizes = []

    def recording(total, thetas):
        sizes.append(thetas.size)
        return d_matrix_table(total, thetas)

    monkeypatch.setattr(distribution, "d_matrix_table", recording)
    for state, top in ((noon_state(32), 32), (family_state(2, 5), 22), (one_photon_state(0.3), 1)):
        sizes.clear()
        populations(state, SUPERPOSED, PARAMS, estimator="exact")
        assert sizes and set(sizes) == {2 * top + 1}
        sizes.clear()
        populations(state, SUPERPOSED, PARAMS, estimator="exact", theta_points=100)
        assert sizes and set(sizes) == {100}


@pytest.mark.parametrize("angular_points", ["4M+1", 720])
def test_angular_mean_equals_density_table_mean(angular_points):
    # B_Delta has |Delta| <= 2M for the largest channel harmonic M, so
    # 4M + 1 angles (and 720) alias nothing onto Delta = 0
    channels = channel_tables(family_state(3, 2), SUPERPOSED)
    if angular_points == "4M+1":
        angular_points = 4 * max(int(np.abs(ch.w_values).max()) for ch in channels if ch.w_values.size) + 1
    p = np.linspace(0.0, default_p_max(family_state(3, 2), PARAMS), 40)
    ref = _density_table(channels, p, angular_points, PARAMS)[0].mean(axis=1)
    got = _angular_mean(channels, p, PARAMS)[0]
    assert np.max(np.abs(got - ref)) <= 1e-14 * ref.max()


WINDOW_STATES = [
    noon_state(2), noon_state(3), noon_state(4), noon_state(6),
    family_state(1, 1), family_state(2, 1), one_photon_state(0.3),
]


@pytest.mark.parametrize("lam", [20.0, 100.0, 200.0])
def test_window_matches_fine_gauss_legendre(lam):
    # each band against 256 panels x 32 nodes on the same B_0
    for k_delta_r in (0.05, 0.1, 0.3):
        params = CouplingParams(lam, k_delta_r)
        for state in WINDOW_STATES:
            for atom in (EXCITED, SUPERPOSED):
                channels = channel_tables(state, atom)
                for n, got in populations(state, atom, params, estimator="window").as_dict().items():
                    lo, hi = distribution._band_edges(n, params)
                    nodes, weights = _panel_rule(hi - lo, 256, 32)
                    nodes += lo
                    ref = weights @ (nodes * _angular_mean(channels, nodes, params)[0]) * 2 * math.pi
                    assert abs(got - ref) <= 1e-13, (k_delta_r, state.tags, atom, n)


def test_ringline_and_window_read_the_angular_mean_only(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eq8 and window read B_0 only")

    monkeypatch.setattr(distribution, "_autocorrelation", refuse)
    monkeypatch.setattr(distribution, "_density_table", refuse)
    params = CouplingParams(100.0, 0.1)
    for estimator in ("eq8", "window"):
        for atom in (EXCITED, SUPERPOSED):
            assert populations(family_state(2, 1), atom, params, estimator=estimator).entries


def test_window_radii_follow_the_ring_width(monkeypatch):
    # NOON-6 at lam 100, k_delta_r 0.1: bands 1..7 take 8, 4, 3, 3, 3, 3 and 2
    # panels of 24 nodes, 624 radii, in one radial table per channel
    sizes = []

    def recording(w_abs, p, gamma_val, k_delta_r):
        sizes.append(np.size(p))
        return mode_radial_table(w_abs, p, gamma_val, k_delta_r)

    monkeypatch.setattr(distribution, "mode_radial_table", recording)
    populations(noon_state(6), EXCITED, CouplingParams(100.0, 0.1), estimator="window")
    assert sizes and set(sizes) == {624}


def test_band_rule_panel_clamp():
    nodes, weights = distribution._band_rule(3.0, 3.001, 0.1)  # 1e-4 ring widths
    assert nodes.size == 2 * 24
    assert 3.0 < nodes.min() < nodes.max() < 3.001
    assert math.fsum(weights) == pytest.approx(0.001, rel=1e-14)
    assert distribution._band_rule(0.0, 36.6, 0.1)[0].size == 4 * 24
    assert distribution._band_rule(0.0, 1e3, 0.1)[0].size == 64 * 24
    with np.errstate(all="ignore"):
        # an overflowing count or width, or a NaN one, takes the largest rule
        for lo, hi, k_delta_r in ((0.0, 10.0, 1.8e308), (0.0, math.inf, 0.1), (0.0, math.nan, 0.1)):
            assert distribution._band_rule(lo, hi, k_delta_r)[0].size == 64 * 24


@pytest.mark.parametrize("estimator", ["eq8", "window"])
def test_populations_refuse_non_finite_values(estimator):
    # lambda = 1e300 overflows the radial factors
    with np.errstate(all="ignore"), pytest.raises(AccuracyError):
        populations(noon_state(2), EXCITED, CouplingParams(1e300, 0.1), estimator=estimator)
