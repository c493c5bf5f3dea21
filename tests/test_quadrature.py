import math

import numpy as np
import pytest

from crosscavity import (
    AtomState,
    CouplingParams,
    KernelIndices,
    MomentumPoint,
    QuadratureOracle,
    QuadratureSpec,
    SlitProfile,
    fourier_analytic,
    fourier_numeric,
    noon_state,
    one_photon_state,
    w_numeric,
    w_point,
)

PARAMS = CouplingParams(20.0, 0.1)


def test_exponential_profile_normalized():
    for kdr in (0.1, 0.3, 1.0):
        assert SlitProfile.exponential(kdr).norm_defect() < 1e-8


def test_tabulated_profile_normalized():
    rho = np.linspace(0.0, 10.0, 3000)
    profile = SlitProfile.tabulated(rho, 3.7 * np.exp(-rho / 0.2))
    assert profile.norm_defect() < 1e-8


def test_profile_validation():
    with pytest.raises(ValueError):
        SlitProfile.exponential(-0.1)
    with pytest.raises(ValueError):
        SlitProfile.tabulated([0, 1, 2], [1, 1, 1])  # too few samples
    with pytest.raises(ValueError):
        SlitProfile.tabulated([0, 1, 0.5, 2], [1, 1, 1, 1])  # not increasing


def test_quadrature_spec_validation():
    QuadratureSpec()
    with pytest.raises(ValueError):
        QuadratureSpec(radial_rel_tol=1e-18)
    with pytest.raises(ValueError):
        QuadratureSpec(radial_cutoff=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_radial_refinements=-1)


def test_phi_structure_of_ground_kernel():
    # D = cos(theta) for this index: F(p, phi) = cos(phi) * K(p)
    idx = KernelIndices(1, 1, 1, "g", 1)
    oracle = QuadratureOracle(PARAMS)
    p = 23.0
    base = oracle.fourier(idx, MomentumPoint(p, 0.0))
    for phi in (0.4, 1.2, 2.9):
        val = oracle.fourier(idx, MomentumPoint(p, phi))
        assert val == pytest.approx(base * math.cos(phi), abs=1e-12 * max(1.0, abs(base)))


def test_phi_independence_of_flat_kernel():
    # D = 1 for the lowest excited index: no angular structure at all
    idx = KernelIndices(1, 1, 1, "e", 1)
    oracle = QuadratureOracle(PARAMS)
    vals = [oracle.fourier(idx, MomentumPoint(17.0, phi)) for phi in (0.0, 1.0, 4.4)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)


def test_zero_momentum_kills_zero_mean_kernels():
    idx = KernelIndices(1, 1, 1, "g", 1)
    val = fourier_numeric(idx, MomentumPoint(0.0, 0.3), PARAMS)
    assert abs(val) < 1e-14


def test_numeric_matches_analytic_sample():
    rng = np.random.default_rng(19)
    oracle = QuadratureOracle(PARAMS)
    for _ in range(25):
        total = int(rng.integers(1, 5))
        eps = str(rng.choice(["g", "e"]))
        d = 1 if eps == "e" else 0
        m = int(rng.integers(d, total + 1))
        n = int(rng.integers(1 if eps == "e" else 0, total + 1))
        branch = int(rng.choice([1, -1]))
        idx = KernelIndices(total, m, n, eps, branch)
        pt = MomentumPoint(
            float(rng.uniform(0, 2 * math.sqrt(total) * PARAMS.lam)),
            float(rng.uniform(0, 2 * math.pi)),
        )
        fa = fourier_analytic(idx, pt, PARAMS)
        fn = oracle.fourier(idx, pt)
        assert abs(fa - fn) <= 1e-6 * max(abs(fn), 1e-12)


def test_w_numeric_nonnegative_and_matches_analytic():
    atom = AtomState.excited()
    state = one_photon_state(0.6)
    rng = np.random.default_rng(4)
    oracle = QuadratureOracle(PARAMS)
    peak = w_point(state, atom, MomentumPoint(PARAMS.lam, 0.6), PARAMS)
    for _ in range(6):
        pt = MomentumPoint(float(rng.uniform(0, 50)), float(rng.uniform(0, 2 * math.pi)))
        wn = oracle.w_density(state, atom, pt)
        wa = w_point(state, atom, pt, PARAMS)
        assert wn >= 0.0
        assert abs(wn - wa) <= 1e-6 * max(peak, wa)


def test_w_numeric_with_atom_superposition():
    atom = AtomState.normalized(1.0, 1.0j)
    state = noon_state(2)
    pt = MomentumPoint(20.0, 1.1)
    wn = w_numeric(state, atom, pt, PARAMS)
    wa = w_point(state, atom, pt, PARAMS)
    assert wn == pytest.approx(wa, rel=1e-6)


def test_tabulated_profile_converges_to_exponential():
    # a finely sampled exponential slit reproduces the closed-form kernel;
    # interpolation noise puts a floor under the radial tolerance, so the
    # oracle runs with a budget matched to the 1e-4 comparison
    rho = np.linspace(0.0, 9.0, 8000)
    tab = SlitProfile.tabulated(rho, np.exp(-rho / (2 * PARAMS.k_delta_r)))
    quad = QuadratureSpec(radial_rel_tol=1e-7)
    oracle = QuadratureOracle(PARAMS, profile=tab, quad=quad)
    idx = KernelIndices(1, 1, 1, "e", 1)
    for p in (5.0, 20.0, 31.0):
        pt = MomentumPoint(p, 0.8)
        f_tab = oracle.fourier(idx, pt)
        f_exp = fourier_analytic(idx, pt, PARAMS)
        assert abs(f_tab - f_exp) <= 1e-4 * max(abs(f_exp), 1e-10)


def test_peak_location_independent_of_profile_width():
    # the ring sits near sqrt(n) lam regardless of slit width; the slit only
    # shifts the maximum by O((2 k_delta_r)^-2 / lam), inside one grid step
    idx = KernelIndices(1, 1, 1, "e", 1)
    radii = np.linspace(10.0, 30.0, 21)
    step = radii[1] - radii[0]
    peaks = {}
    for kdr in (0.1, 0.2):
        params = CouplingParams(20.0, kdr)
        oracle = QuadratureOracle(params)
        mags = [abs(oracle.fourier(idx, MomentumPoint(float(p), 0.0))) for p in radii]
        peaks[kdr] = radii[int(np.argmax(mags))]
        assert abs(peaks[kdr] - params.lam) <= step
    assert abs(peaks[0.1] - peaks[0.2]) <= step


def test_quadrature_convergence_under_refinement():
    # tightening the radial tolerance (down to forcing panel doubling) moves
    # results by less than the coarse run's own error budget
    idx = KernelIndices(2, 1, 1, "e", -1)
    pts = [MomentumPoint(p, a) for p, a in [(3.0, 0.2), (20.0, 2.0), (28.3, 4.0), (45.0, 1.0)]]
    o_coarse = QuadratureOracle(PARAMS, quad=QuadratureSpec(radial_rel_tol=1e-9))
    for fine in (QuadratureSpec(radial_rel_tol=5e-10), QuadratureSpec(radial_rel_tol=1e-13)):
        o_fine = QuadratureOracle(PARAMS, quad=fine)
        for pt in pts:
            a = o_coarse.fourier(idx, pt)
            b = o_fine.fourier(idx, pt)
            _, radial_err = o_coarse._radial_transform(pt.p_mag, PARAMS.lam, 4)
            budget = max(radial_err, 1e-9 * o_coarse._mass)
            assert abs(a - b) <= budget


def test_radial_rule_failure_reports_estimate():
    # at p = 90 the initial panels leave an endpoint error ~2e-10 of the mass,
    # far above 1e-13, and no doubling is allowed
    from crosscavity.quadrature import AccuracyError

    params = CouplingParams(100.0, 0.3)
    brutal = QuadratureSpec(radial_rel_tol=1e-13, max_radial_refinements=0)
    oracle = QuadratureOracle(params, quad=brutal)
    idx = KernelIndices(1, 1, 1, "e", 1)
    with pytest.raises(AccuracyError) as err:
        oracle.fourier(idx, MomentumPoint(90.0, 0.0))
    exc = err.value
    assert math.isfinite(exc.error_bound) and exc.error_bound > 1e-13 * oracle._mass
    converged = QuadratureOracle(params)._radial_spectra([90.0], [(1, 1)], 4)[0, 0]
    assert exc.estimate.shape == converged.shape
    assert np.max(np.abs(exc.estimate - converged)) <= exc.error_bound


def _angle_count(oracle, p_mag):
    """Trapezoid nodes covering the angle bandwidth of ``exp(-i rho p cos theta)``.

    That bandwidth is negligible beyond harmonic ``rho p``, and the envelope
    kills radii beyond ~30 decay lengths.
    """
    reach = min(oracle._rho_max, 30.0 * oracle.profile.decay_scale())
    return max(512, int(math.ceil((1.05 * p_mag * reach + 64.0) / 2.0)) * 2)


def _direct_radial_tables(oracle, p_mag, shifts, n_panels, order=24):
    """Reference: one panel rule against the full node-by-angle matrix.

    Returns ``R(theta_t)`` on ``theta_t = 2 pi t / T`` for each shift.  One
    matrix, built in blocks of 384 nodes to keep memory small, serves every
    shift at the same momentum and panel count.
    """
    from crosscavity.quadrature import _panel_rule

    n_theta = _angle_count(oracle, p_mag)
    theta_half = np.arange(n_theta // 2 + 1) * (2 * math.pi / n_theta)
    c = p_mag * np.cos(theta_half)
    nodes, weights = _panel_rule(oracle._rho_max, n_panels, order)
    amp = weights * nodes * oracle.profile.density(nodes)
    coeff = amp * np.exp(1j * np.outer(shifts, nodes))
    half = np.zeros((len(shifts), c.size), dtype=complex)
    for lo in range(0, nodes.size, 384):
        block = slice(lo, lo + 384)
        half += coeff[:, block] @ np.exp(-1j * np.outer(nodes[block], c))
    return np.concatenate([half, half[:, -2:0:-1]], axis=1)


def _transform_with_panels(oracle, p_mag, shift, reach=4):
    """The oracle's transform of one table and the panel counts its rules used."""
    used = []
    rule = oracle._rule
    oracle._rule = lambda items, n_panels, r: used.append(n_panels) or rule(items, n_panels, r)
    try:
        spectrum, _ = oracle._radial_transform(p_mag, shift, reach)
    finally:
        del oracle._rule
    return spectrum, used


def _check_tables_against_direct(oracle, p_values):
    """Every ``(p, n, branch)`` table for n <= 4 against the direct reference.

    The harmonics ``|k| <= 4`` must equal ``fft(R) / T`` of the reference
    table at the panel count the oracle accepted; the reference sums the same
    terms in another order and over an angle grid, so the two agree to
    rounding of the summed amplitudes.  That rounding scales with the
    amplitude mass rather than with ``max|R|``: when the shift and ``p cos
    theta`` never cancel (lam = 100, k_delta_r = 0.3, p <= lam, n >= 3),
    ``max|R|`` is ~1e-4 of the mass.  At that panel count the order-12
    companion of the reference must also meet the radial tolerance at every
    angle: the oracle's check (at ``theta = 0`` and ``pi``, or on a half
    angle grid for a tabulated profile) accepts no coarser rule than the
    angle-maximum check of an angle-sampled transform.  Returns whether any
    table needed panel doubling.
    """
    tol = oracle.quad.radial_rel_tol * oracle._mass
    k = np.arange(-4, 5)
    doubled = False
    for p in p_values:
        groups = {}
        for n in range(5):
            shift = math.sqrt(n) * oracle.params.lam
            spectrum, used = _transform_with_panels(oracle, float(p), shift)
            doubled |= used[-1] != used[0]
            groups.setdefault(used[-1], []).append((shift, spectrum))
            if n:
                minus = oracle._radial_spectra([float(p)], [(n, -1)], 4)[0, 0]
                groups[used[-1]].append((-shift, minus))
        for n_panels, entries in groups.items():
            shifts = [shift for shift, _ in entries]
            refs = _direct_radial_tables(oracle, float(p), shifts, n_panels)
            companions = _direct_radial_tables(oracle, float(p), shifts, n_panels, order=12)
            assert np.max(np.abs(refs - companions)) <= tol, (p, n_panels)
            for (shift, spectrum), ref in zip(entries, refs):
                expected = np.fft.fft(ref)[k] / ref.size
                scale = max(float(np.max(np.abs(ref))), oracle._mass)
                assert spectrum.shape == (9,)
                assert np.max(np.abs(spectrum - expected)) <= 1e-13 * scale, (p, shift)
    return doubled


@pytest.mark.parametrize("lam", [5.0, 20.0, 100.0])
@pytest.mark.parametrize("kdr", [0.1, 0.3])
def test_factorized_radial_transform_matches_direct_reference(lam, kdr):
    oracle = QuadratureOracle(CouplingParams(lam, kdr))
    _check_tables_against_direct(oracle, [0.0, 0.7 * lam, 2.3 * lam, 4.0 * lam])


def test_factorized_radial_transform_tabulated_profile():
    rho = np.linspace(0.0, 6.0, 400)
    profile = SlitProfile.tabulated(rho, np.exp(-rho / 0.4) * (1.0 + 0.3 * np.cos(3.0 * rho)))
    oracle = QuadratureOracle(PARAMS, profile=profile, quad=QuadratureSpec(radial_rel_tol=1e-7))
    _check_tables_against_direct(oracle, [0.0, 14.0, 46.0, 80.0])


def test_factorized_radial_transform_through_panel_doubling():
    # a tight tolerance forces at least one doubling past the initial panel count
    quad = QuadratureSpec(radial_rel_tol=1e-13)
    oracle = QuadratureOracle(CouplingParams(20.0, 0.3), quad=quad)
    assert _check_tables_against_direct(oracle, [31.0])


def test_fourier_independent_of_evaluation_order():
    params = CouplingParams(20.0, 0.3)
    targets = [
        (KernelIndices(3, 2, 1, "g", 1), MomentumPoint(23.0, 1.3)),
        (KernelIndices(3, 2, 1, "g", -1), MomentumPoint(23.0, 1.3)),
        (KernelIndices(3, 3, 2, "e", -1), MomentumPoint(23.0, 1.3)),
        (KernelIndices(2, 1, 1, "g", 1), MomentumPoint(41.0, 1.3)),
        (KernelIndices(4, 0, 0, "g", 1), MomentumPoint(41.0, 5.0)),
    ]
    fresh = {}
    for idx, point in targets:
        fresh[idx, point] = QuadratureOracle(params).fourier(idx, point)
    warm = QuadratureOracle(params)
    # warm on other momenta, the same angle at another magnitude, the same
    # magnitude at another angle, and the targets' own indices elsewhere
    warmers = [MomentumPoint(23.0, 0.2), MomentumPoint(12.0, 1.3), MomentumPoint(41.0, 2.0)]
    for point in warmers:
        for total in (1, 2, 3, 4):
            for m in range(total + 1):
                for n in range(total + 1):
                    for branch in (1, -1):
                        warm.fourier(KernelIndices(total, m, n, "g", branch), point)
                        if m and n:
                            warm.fourier(KernelIndices(total, m, n, "e", branch), point)
    for idx, point in reversed(targets):
        assert warm.fourier(idx, point) == fresh[idx, point]
    for idx, point in targets:
        assert warm.fourier(idx, point) == fresh[idx, point]


def _shifted_grid_sum(table, total, m, n, p_ang):
    """Reference: the trapezoid sum of the rotation element on the shifted grid."""
    from crosscavity.rotation import d_coeff

    theta = np.arange(table.size) * (2 * math.pi / table.size) + p_ang
    return np.sum(d_coeff(total, m, n, theta) * table) / table.size


def _indices_up_to(max_total):
    for total in range(max_total + 1):
        for epsilon in ("g", "e"):
            lo = 1 if epsilon == "e" else 0
            for m in range(lo, total + 1):
                for n in range(lo, total + 1):
                    for branch in (1, -1):
                        yield KernelIndices(total, m, n, epsilon, branch)


@pytest.mark.parametrize("lam", [5.0, 20.0, 100.0])
@pytest.mark.parametrize("kdr", [0.1, 0.3])
def test_fourier_matches_shifted_grid_sum(lam, kdr):
    # the harmonic contraction equals the trapezoid sum of the rotation element
    # over the shifted angle grid, taken on the direct reference table at the
    # panel count the oracle accepted, for every index of total <= 4 in both
    # channels
    oracle = QuadratureOracle(CouplingParams(lam, kdr))
    indices = list(_indices_up_to(4))
    for p in (0.0, 3.0, lam, 2.0 * lam):
        groups = {}
        for n in range(5):
            _, used = _transform_with_panels(oracle, p, math.sqrt(n) * lam)
            groups.setdefault(used[-1], []).extend([(n, 1), (n, -1)])
        tables = {}
        for n_panels, keys in groups.items():
            shifts = [branch * math.sqrt(n) * lam for n, branch in keys]
            tables.update(zip(keys, _direct_radial_tables(oracle, p, shifts, n_panels)))
        for p_ang in (0.0, 0.9, 2.6, 5.1):
            point = MomentumPoint(p, p_ang)
            for idx in indices:
                d = idx.delta
                table = tables[idx.n, idx.branch]
                ref = _shifted_grid_sum(table, idx.total - d, idx.m - d, idx.n - d, p_ang)
                assert abs(oracle.fourier(idx, point) - ref) <= 1e-14 * oracle._mass, (idx, point)


def test_numeric_grid_cost_independent_of_angle_count(monkeypatch):
    # rotation harmonics are built once per index and radial transforms once
    # per (p, n, branch): neither count may grow with the number of angles
    import crosscavity.quadrature as quadrature
    from crosscavity import GridSpec, w_grid

    counts = {}
    d_coeff = quadrature.d_coeff
    transform = QuadratureOracle._radial_transform

    def counted_d_coeff(*args):
        counts["d_coeff"] += 1
        return d_coeff(*args)

    def counted_transform(self, *args):
        counts["radial_transform"] += 1
        return transform(self, *args)

    monkeypatch.setattr(quadrature, "d_coeff", counted_d_coeff)
    monkeypatch.setattr(QuadratureOracle, "_radial_transform", counted_transform)
    atom = AtomState.normalized(1.0, 0.5j)
    seen = []
    for angles in (5, 40):
        counts.update(d_coeff=0, radial_transform=0)
        grid = GridSpec(radial_points=4, angular_points=angles, p_max=60.0)
        w_grid(noon_state(3), atom, PARAMS, grid=grid, kernel="numeric")
        seen.append(dict(counts))
    assert seen[0]["d_coeff"] > 0 and seen[0]["radial_transform"] > 0
    assert seen[0] == seen[1]


def test_profile_and_spec_reject_non_finite_values():
    rho = np.linspace(0.0, 5.0, 50)
    values = np.exp(-rho)
    for bad in (math.nan, math.inf, -math.inf):
        bad_rho = rho.copy()
        bad_rho[-1] = bad
        bad_values = values.copy()
        bad_values[3] = bad
        with pytest.raises(ValueError):
            SlitProfile.tabulated(bad_rho, values)
        with pytest.raises(ValueError):
            SlitProfile.tabulated(rho, bad_values)
        for field in ("radial_rel_tol", "radial_cutoff", "max_radial_refinements"):
            with pytest.raises(ValueError):
                QuadratureSpec(**{field: bad})


def test_oversized_radial_rule_refused_before_allocation():
    # a transform holds, per node, reach + 1 Bessel rows and _NODE_WORK work
    # rows, per panel and check angle _ANGLE_WORK edge-factor entries, and the
    # Bessel chunk scratch; one panel past the limit is refused, and nothing
    # is built or kept on the way
    from crosscavity import quadrature
    from crosscavity.quadrature import MAX_RULE_ENTRIES, AccuracyError

    oracle = QuadratureOracle(PARAMS)
    state = dict(vars(oracle))
    per_panel = 24 * (4 + 1 + quadrature._NODE_WORK) + 2 * quadrature._ANGLE_WORK
    limit = (MAX_RULE_ENTRIES - quadrature._bessel_scratch(4, 1 << 40)) // per_panel
    with pytest.raises(AccuracyError, match="rule entries"):
        oracle._rule([(50.0, 0.0)], limit + 1, 4)
    with pytest.raises(AccuracyError, match="rule entries"):
        oracle._rule([(50.0, 0.0)], 1 << 40, 4)
    with pytest.raises(AccuracyError, match="rule entries"):
        oracle._rule([(50.0, 0.0)], 8, 1 << 40)
    assert vars(oracle) == state and not oracle._panel_cache
    edge, offsets = oracle._rule([(50.0, 0.0)], limit, 4)
    assert edge.shape == (limit, 2) and [o.shape for o in offsets] == [(12, 2), (24, 2)] and oracle._panel_cache


def test_accepted_radial_transforms_stay_within_rule_budget(monkeypatch):
    # every transform the guard lets through holds at most 8 MAX_RULE_ENTRIES
    # bytes at once (tracemalloc sees numpy's buffers), on shifts that run
    # from well inside a small budget to refused, for both profile kinds
    import tracemalloc

    from crosscavity import quadrature
    from crosscavity.quadrature import AccuracyError

    monkeypatch.setattr(quadrature, "MAX_RULE_ENTRIES", 1 << 21)
    budget = 8 * quadrature.MAX_RULE_ENTRIES
    rho = np.linspace(0.0, 5.0, 200)
    profiles = [SlitProfile.exponential(0.1), SlitProfile.tabulated(rho, np.exp(-rho / 0.2))]
    accepted, refused = [], 0
    for profile in profiles:
        for shift in (1e2, 1e3, 3e3):
            for p_mag, reach in ((0.0, 4), (40.0, 4), (40.0, 16)):
                oracle = QuadratureOracle(PARAMS, profile)
                tracemalloc.start()
                try:
                    oracle._radial_transform(p_mag, shift, reach)
                    refusal = False
                except AccuracyError as exc:
                    refusal = "rule entries" in str(exc)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                assert peak <= budget, (profile.kind, shift, p_mag, reach)
                if refusal:
                    refused += 1
                else:
                    accepted.append(peak)
    assert refused and accepted
    assert max(accepted) >= budget / 4  # the largest accepted rules come near the cap


def _per_index_density(oracle, state, atom, point):
    """Reference: the density as a sum of one ``fourier`` call per kernel index."""
    blocks = state.blocks()
    c_g, c_e = atom.c_g, atom.c_e
    contributions = []
    if abs(c_g) > 0:
        for n_field, block in blocks.items():
            amp = sum(
                coeff * oracle.fourier(KernelIndices(n_field, m, 0, "g", 1), point)
                for m, coeff in block.items()
            )
            contributions.append(abs(c_g * amp) ** 2)
    totals = set()
    if abs(c_g) > 0:
        totals |= {n for n in blocks if n >= 1}
    if abs(c_e) > 0:
        totals |= {n + 1 for n in blocks}
    for total in sorted(totals):
        for n in range(1, total + 1):
            for branch in (1, -1):
                g_part = 0j
                if abs(c_g) > 0 and total in blocks:
                    g_part = sum(
                        coeff * oracle.fourier(KernelIndices(total, m, n, "g", branch), point)
                        for m, coeff in blocks[total].items()
                    )
                e_part = 0j
                if abs(c_e) > 0 and (total - 1) in blocks:
                    e_part = sum(
                        coeff * oracle.fourier(KernelIndices(total, m + 1, n, "e", branch), point)
                        for m, coeff in blocks[total - 1].items()
                    )
                contributions.append(0.5 * abs(c_g * g_part + branch * c_e * e_part) ** 2)
    return math.fsum(contributions)


@pytest.mark.parametrize("lam", [5.0, 20.0, 100.0])
@pytest.mark.parametrize("kdr", [0.1, 0.3])
def test_w_density_matches_per_index_sum(lam, kdr):
    # the channel plan re-associates the per-index sum; one oracle serves every
    # (state, atom) pair in turn, so a stale plan would show
    from crosscavity import TwoModeState, family_state

    oracle = QuadratureOracle(CouplingParams(lam, kdr))
    mixed = TwoModeState({(0, 0): 0.5, (1, 0): 0.5, (1, 1): 0.5j, (0, 3): -0.5})
    cases = [
        (TwoModeState({(0, 0): 1.0}), AtomState.excited()),
        (mixed, AtomState.normalized(1.0, 0.7 - 0.2j)),
        (mixed, AtomState.ground()),
        (noon_state(4), AtomState.excited()),
        (noon_state(4), AtomState.normalized(0.4j, 1.0)),
        (family_state(1, 1), AtomState.ground()),
        (family_state(1, 1), AtomState.normalized(1.0, -0.6)),
    ]
    for state, atom in cases:
        points = [
            MomentumPoint(p, a) for p in (0.0, lam / 2, lam, 2.2 * lam) for a in (0.0, 1.3, 4.0)
        ]
        new = [oracle.w_density(state, atom, pt) for pt in points]
        ref = [_per_index_density(oracle, state, atom, pt) for pt in points]
        scale = max(ref)
        assert scale > 0
        for pt, a, b in zip(points, new, ref):
            assert abs(a - b) <= 1e-14 * scale, (state, atom, pt)


@pytest.mark.parametrize("lam", [5.0, 100.0])
@pytest.mark.parametrize("kdr", [0.1, 0.3])
def test_minus_branch_spectrum_matches_direct_table(lam, kdr):
    # Rf_-[k] = (-1)^k conj(Rf_+[k]) against the transform of the minus table
    # itself, which meets the same panel count (the companion errors at theta
    # = 0 and pi trade places)
    oracle = QuadratureOracle(CouplingParams(lam, kdr))
    for p in (0.0, 0.4 * lam, lam, 1.7 * lam, 3.1 * lam):
        for n in range(1, 6):
            derived = oracle._radial_spectra([p], [(n, -1)], 8)[0, 0]
            direct, _ = oracle._radial_transform(p, -math.sqrt(n) * lam, 8)
            assert derived.shape == direct.shape == (17,)
            assert np.max(np.abs(derived - direct)) <= 1e-14 * oracle._mass, (p, n)


def test_numeric_grid_transforms_plus_branch_only(monkeypatch):
    # every radial transform is of plus-branch (or n = 0) tables: the calls cover
    # K + 1 (table, magnitude) pairs per radius for the deflected totals up to
    # K = 4 of NOON-3 with a superposed atom
    from crosscavity import GridSpec, w_grid

    calls = []
    transform = QuadratureOracle._radial_transform

    def counted_transform(self, *args):
        calls.append(args)
        return transform(self, *args)

    monkeypatch.setattr(QuadratureOracle, "_radial_transform", counted_transform)
    grid = GridSpec(radial_points=4, angular_points=5, p_max=60.0)
    w_grid(noon_state(3), AtomState.normalized(1.0, 0.5j), PARAMS, grid=grid, kernel="numeric")
    assert sum(np.size(p_mag) * np.size(shift) for p_mag, shift, _ in calls) == (4 + 1) * grid.radial_points
    assert all(np.all(np.asarray(shift) >= 0.0) for _, shift, _ in calls)


def test_bessel_j_matches_scipy():
    special = pytest.importorskip("scipy.special")
    from crosscavity.quadrature import bessel_j

    rng = np.random.default_rng(7)
    x = np.concatenate(
        [
            [0.0, 1e-300, 1e-160, 9.76102312998167],  # the last one zeroes a Miller denominator
            np.linspace(0.0, 60.0, 6001),
            np.linspace(60.0, 2000.0, 4001),
            rng.uniform(0.0, 2000.0, 4000),
        ]
    )
    for kmax, tol in ((0, 1e-15), (1, 1e-15), (4, 1e-15), (12, 1e-15), (32, 1e-13)):
        got = bessel_j(kmax, x)
        ref = special.jv(np.arange(kmax + 1)[:, None], x)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= tol, kmax
    # values depend neither on argument order nor on where chunks split
    shuffled = rng.permutation(x)
    assert np.array_equal(bessel_j(12, shuffled)[:, np.argsort(shuffled)], bessel_j(12, np.sort(x)))


def test_bessel_j_neumann_sum():
    # 1 = J_0 + 2 sum_k J_2k, complete once the orders pass x by a wide margin
    from crosscavity.quadrature import bessel_j

    x = np.concatenate([[0.0, 1e-300], np.linspace(0.0, 20.0, 2001)])
    j = bessel_j(64, x)
    sums = [math.fsum([j[0, i], *(2.0 * j[2::2, i])]) for i in range(x.size)]
    assert max(abs(s - 1.0) for s in sums) <= 1e-15


def test_bessel_j_survives_a_zero_denominator(monkeypatch):
    # at this zero of J_3 the continued fraction's denominator 2k - x r_{k+1}
    # rounds to exactly 0 for k = 4; that argument is retried one ulp up
    import crosscavity.quadrature as quadrature

    zero = 9.76102312998167
    calls = []
    miller = quadrature._bessel_miller
    monkeypatch.setattr(quadrature, "_bessel_miller", lambda k, x: calls.append(x.tolist()) or miller(k, x))
    j = quadrature.bessel_j(4, np.array([zero, 1.0]))
    assert calls == [[zero, 1.0], [float(np.nextafter(zero, np.inf))]]
    assert np.isfinite(j).all()
    assert abs(j[3, 0]) <= 1e-15
    assert abs(j[2, 0] + j[4, 0]) <= 1e-15  # J_2 + J_4 = (6 / x) J_3 vanishes there


def test_fourier_independent_of_harmonic_reach():
    # a table first served at reach 8 (for a total-6 index) leaves the reach-4
    # values a total-3 index reads untouched; the two reaches agree to rounding
    params = CouplingParams(20.0, 0.3)
    point = MomentumPoint(23.0, 1.3)
    targets = [KernelIndices(3, 2, 1, "g", 1), KernelIndices(3, 2, 1, "g", -1)]
    fresh = [QuadratureOracle(params).fourier(idx, point) for idx in targets]
    warm = QuadratureOracle(params)
    for branch in (1, -1):
        warm.fourier(KernelIndices(6, 2, 1, "g", branch), point)
    assert [warm.fourier(idx, point) for idx in targets] == fresh
    for branch in (1, -1):
        low = warm._radial_spectra([23.0], [(1, branch)], 4)[0, 0]
        high = warm._radial_spectra([23.0], [(1, branch)], 8)[0, 0]
        assert np.max(np.abs(high[4:13] - low)) <= 1e-15 * warm._mass


def test_w_density_independent_of_evaluation_order():
    # the per-radius matrix belongs to one (state, atom) plan and one magnitude;
    # switching states at every point and revisiting radii gives the values of
    # fresh oracles exactly
    params = CouplingParams(20.0, 0.1)
    cases = [
        (noon_state(2), AtomState.excited()),
        (one_photon_state(0.4), AtomState.normalized(1.0, 0.5j)),
    ]
    points = [MomentumPoint(p, a) for p in (5.0, 20.0, 31.0) for a in (0.0, 2.1)]
    fresh = {(i, pt): QuadratureOracle(params).w_density(*cases[i], pt) for i in (0, 1) for pt in points}
    warm = QuadratureOracle(params)
    order = [(i, pt) for pt in points for i in (0, 1)]
    order += [(i, pt) for i in (1, 0) for pt in reversed(points)]
    for i, pt in order:
        assert warm.w_density(*cases[i], pt) == fresh[i, pt]


def test_bessel_j_values_depend_only_on_their_argument():
    # Miller's recurrence starts at the same order whatever the other
    # arguments of the call, so a concatenation equals separate calls,
    # including one whose arguments all lie below 1
    from crosscavity.quadrature import bessel_j

    rng = np.random.default_rng(18)
    parts = [
        rng.uniform(0.0, 1.0, 50),
        np.array([0.0, 1e-300, 9.76102312998167]),
        np.linspace(0.0, 30.0, 777),
        rng.uniform(0.0, 80.0, 5000),  # spans a chunk boundary of the concatenation
        rng.uniform(0.0, 8.0, 300),
    ]
    for kmax in (0, 4, 12, 32):
        whole = bessel_j(kmax, np.concatenate(parts))
        separate = np.concatenate([bessel_j(kmax, part) for part in parts], axis=1)
        assert np.array_equal(whole, separate), kmax


def _accepted_panels(oracle, mags, shifts, reach):
    """The batched transform of ``mags`` x ``shifts`` and, per item, the last panel count its rules were built at."""
    last = {}
    rule = oracle._rule

    def recording(items, n_panels, r):
        last.update((item, n_panels) for item in items)
        return rule(items, n_panels, r)

    oracle._rule = recording
    try:
        spectra, errs = oracle._radial_transform(np.array(mags), shifts, reach)
    finally:
        del oracle._rule
    return spectra, errs, [[last[p, shift] for shift in shifts] for p in mags]


@pytest.mark.parametrize("kind", ["exponential", "tabulated"])
@pytest.mark.parametrize("lam", [5.0, 20.0, 100.0])
def test_batched_radial_transform_matches_single_magnitudes(kind, lam):
    # a batch of magnitudes and shifts refines every (magnitude, table) item to
    # the panel count a one-item call accepts, with tables of every shift
    # mixed in one refinement, and gives the same spectra and error bounds bit
    # for bit, with 0 and repeated magnitudes; a tight tolerance makes some
    # items double more often than others, and with no doubling allowed the
    # estimates must agree too
    rho = np.linspace(0.0, 1.5, 300)
    tabulated = SlitProfile.tabulated(rho, np.exp(-rho / 0.2) * (1.2 + np.cos(9.0 * rho)))
    profile = None if kind == "exponential" else tabulated
    params = CouplingParams(lam, 0.3)
    mags = [0.0, 0.3 * lam, 1.1 * lam, 0.3 * lam, 2.6 * lam, 0.0, 3.7 * lam]
    shifts = [math.sqrt(n) * lam for n in (2, 0, 3, 1)]
    specs = [QuadratureSpec(), QuadratureSpec(radial_rel_tol=1e-13), QuadratureSpec(1e-13, max_radial_refinements=0)]
    doubled = False
    for quad in specs:
        for reach in (4, 16):
            spectra, errs, panels = _accepted_panels(QuadratureOracle(params, profile, quad), mags, shifts, reach)
            for p, p_spectra, p_errs, p_panels in zip(mags, spectra, errs, panels):
                for shift, spectrum, err, n_panels in zip(shifts, p_spectra, p_errs, p_panels):
                    single = QuadratureOracle(params, profile, quad)
                    want, want_err, want_panels = _accepted_panels(single, [p], [shift], reach)
                    assert want_panels == [[n_panels]], (p, shift, reach)
                    assert np.array_equal(spectrum, want[0, 0]), (p, shift, reach)
                    assert err == want_err[0, 0], (p, shift, reach)
                    doubled |= n_panels != single._panels_for(p + shift)
    assert doubled


def test_four_table_transform_builds_one_rule_per_panel_count_and_attempt():
    # the tables of a transform are refined together: in each attempt the
    # items at one panel count share one _rule call, which serves both
    # Gauss-Legendre orders, whatever their table
    lam = 20.0
    oracle = QuadratureOracle(CouplingParams(lam, 0.3), quad=QuadratureSpec(radial_rel_tol=1e-13))
    p, shifts = 31.0, [math.sqrt(n) * lam for n in range(4)]
    calls = []
    rule = oracle._rule

    def recording(items, n_panels, r):
        calls.append((n_panels, [shift for _, shift in items]))
        return rule(items, n_panels, r)

    oracle._rule = recording
    try:
        oracle._radial_transform(p, shifts, 4)
    finally:
        del oracle._rule
    # an item's attempt is the number of doublings from its initial panel count
    expected = {}
    for shift in shifts:
        start = oracle._panels_for(p + shift)
        for n_panels, members in calls:
            if shift in members:
                attempt = (n_panels // start).bit_length() - 1
                expected.setdefault((attempt, n_panels), []).append(shift)
    assert sorted(calls) == sorted((n_panels, members) for (_, n_panels), members in expected.items())
    assert any(len(members) > 1 for _, members in calls)


def test_numeric_grid_matches_pointwise_w_density():
    # one w_density call over the whole grid against one call per point
    from crosscavity import GridSpec, family_state, w_grid

    rho = np.linspace(0.0, 1.5, 300)
    tabulated = SlitProfile.tabulated(rho, np.exp(-rho / 0.2) * (1.0 + 0.3 * np.cos(5.0 * rho)))
    cases = [
        (noon_state(3), AtomState.normalized(1.0, 0.5j), None, None),
        (family_state(1, 1), AtomState.ground(), None, None),
        (one_photon_state(0.7), AtomState.normalized(0.3, 1.0), None, None),
        (noon_state(2), AtomState.ground(), tabulated, QuadratureSpec(radial_rel_tol=1e-7)),
    ]
    grid = GridSpec(radial_points=7, angular_points=9, p_max=70.0)
    for state, atom, profile, quad in cases:
        dens = w_grid(state, atom, PARAMS, grid=grid, kernel="numeric", profile=profile, quad=quad)
        oracle = QuadratureOracle(PARAMS, profile, quad)
        ref = np.array(
            [[oracle.w_density(state, atom, MomentumPoint(p, a)) for a in dens.angular_values]
             for p in dens.radial_values]
        )
        assert np.max(ref) > 0
        assert np.max(np.abs(dens.densities - ref)) <= 1e-15 * np.max(ref), (state, profile)


def _array_point(pairs):
    """One array point from ``(magnitude, angle)`` pairs, in order."""
    p_mag, p_ang = np.array(pairs, dtype=float).reshape(-1, 2).T
    return MomentumPoint(p_mag, p_ang)


def test_w_density_sequence_order_and_repeats():
    # any order of points, repeated magnitudes and repeated points give the
    # values of one-point calls, in the order asked
    oracle = QuadratureOracle(PARAMS)
    state, atom = noon_state(2), AtomState.normalized(1.0, -0.4j)
    pairs = [(31.0, 0.2), (0.0, 1.0), (31.0, 4.0), (12.5, 0.2), (31.0, 0.2), (0.0, 3.0)]
    got = oracle.w_density(state, atom, _array_point(pairs))
    want = [QuadratureOracle(PARAMS).w_density(state, atom, MomentumPoint(p, a)) for p, a in pairs]
    assert got.shape == (len(pairs),)
    assert np.max(np.abs(got - want)) <= 1e-15 * max(want)
    assert oracle.w_density(state, atom, _array_point([])).shape == (0,)


def test_w_density_refusal_names_first_failing_magnitude():
    # with no doubling allowed, some radii miss the tolerance: the sequence
    # call raises what the one-point call of the first failing point raises
    from crosscavity.quadrature import AccuracyError

    params = CouplingParams(100.0, 0.3)
    brutal = QuadratureSpec(radial_rel_tol=1e-13, max_radial_refinements=0)
    state, atom = noon_state(2), AtomState.normalized(1.0, 0.5)
    pairs = [(p, 0.4) for p in (3.0, 140.0, 90.0, 140.0, 60.0)]
    first = None
    for p, a in pairs:
        try:
            QuadratureOracle(params, quad=brutal).w_density(state, atom, MomentumPoint(p, a))
        except AccuracyError as exc:
            first = exc
            break
    assert first is not None and p != pairs[-1][0]
    with pytest.raises(AccuracyError) as err:
        QuadratureOracle(params, quad=brutal).w_density(state, atom, _array_point(pairs))
    assert str(err.value) == str(first)
    assert err.value.error_bound == first.error_bound
    assert np.array_equal(err.value.estimate, first.estimate)


def test_numeric_grid_builds_one_array_point(monkeypatch):
    # the grid's points are checked once, as one array point in row-major order
    from crosscavity import GridSpec, w_grid

    built = []
    post_init = MomentumPoint.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(MomentumPoint, "__post_init__", counted)
    grid = w_grid(noon_state(2), AtomState.normalized(1.0, 0.5j), PARAMS, GridSpec(10, 20), kernel="numeric")
    assert len(built) == 1
    assert built[0].p_mag.tolist() == np.repeat(grid.radial_values, 20).tolist()
    assert built[0].p_ang.tolist() == np.tile(grid.angular_values, 10).tolist()


def test_w_numeric_of_numpy_scalars_is_one_point():
    # the benchmark's render check passes numpy scalars read from the CSV:
    # that is one point, with float fields, and its density is a float
    radii, angles = np.linspace(0.0, 40.0, 9), np.linspace(0.0, 6.0, 5)
    point = MomentumPoint(radii[4], angles[3])
    assert type(point.p_mag) is float and type(point.p_ang) is float
    state, atom = noon_state(2), AtomState.normalized(1.0, 0.5j)
    value = w_numeric(state, atom, point, PARAMS)
    assert type(value) is float
    assert value == pytest.approx(w_point(state, atom, point, PARAMS), rel=1e-6)


def test_numeric_grid_over_many_radii_stays_within_rule_budget(monkeypatch):
    # one transform takes every radius, and its Bessel rows go in runs that fit
    # MAX_RULE_ENTRIES, each dropped before the next is built, so a grid whose
    # Bessel rows alone would take several budgets holds at most
    # 8 MAX_RULE_ENTRIES bytes at once
    import tracemalloc

    from crosscavity import GridSpec, w_grid
    from crosscavity import quadrature

    monkeypatch.setattr(quadrature, "MAX_RULE_ENTRIES", 1 << 21)
    batches = []
    transform = QuadratureOracle._radial_transform

    def counted_transform(self, p_mag, *args):
        batches.append(np.size(p_mag))
        return transform(self, p_mag, *args)

    monkeypatch.setattr(QuadratureOracle, "_radial_transform", counted_transform)
    runs = []
    bessel_j = quadrature.bessel_j
    monkeypatch.setattr(quadrature, "bessel_j", lambda kmax, x: runs.append(x.size) or bessel_j(kmax, x))
    grid = GridSpec(radial_points=240, angular_points=4, p_max=90.0)
    tracemalloc.start()
    try:
        w_grid(noon_state(4), AtomState.normalized(1.0, 0.5j), PARAMS, grid=grid, kernel="numeric")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * quadrature.MAX_RULE_ENTRIES
    assert batches == [grid.radial_points] and len(runs) > 1


@pytest.mark.parametrize("kind", ["exponential", "tabulated"])
def test_fourier_sequence_equals_one_point_calls(kind):
    # one call over a sequence gives each point's one-point value exactly:
    # totals up to 6 read reaches 4 and 8, both branches and both atom levels,
    # with magnitude 0 and repeated magnitudes among the points
    rho = np.linspace(0.0, 1.5, 300)
    tabulated = SlitProfile.tabulated(rho, np.exp(-rho / 0.2) * (1.2 + np.cos(9.0 * rho)))
    profile, quad = (None, None) if kind == "exponential" else (tabulated, QuadratureSpec(radial_rel_tol=1e-7))
    params = CouplingParams(20.0, 0.3)
    pairs = [(31.0, 0.2), (0.0, 1.0), (12.5, 4.0), (31.0, 2.9), (0.0, 5.5), (47.0, 0.2), (12.5, 0.2)]
    points = _array_point(pairs)
    tuples = [(1, 0, 1, "g"), (1, 1, 1, "e"), (2, 2, 0, "g"), (3, 1, 2, "e"), (4, 3, 4, "g"), (5, 2, 5, "g"),
              (6, 4, 3, "e"), (6, 6, 6, "g")]
    oracle = QuadratureOracle(params, profile, quad)
    single = QuadratureOracle(params, profile, quad)
    for total, m, n, eps in tuples:
        for branch in (1, -1):
            idx = KernelIndices(total, m, n, eps, branch)
            got = oracle.fourier(idx, points)
            assert got.shape == (len(pairs),) and got.dtype == complex
            assert got.tolist() == [single.fourier(idx, MomentumPoint(p, a)) for p, a in pairs], idx


def test_fourier_one_point_and_empty_sequence():
    oracle = QuadratureOracle(PARAMS)
    idx = KernelIndices(2, 1, 2, "g", -1)
    point = MomentumPoint(17.0, 0.4)
    value = oracle.fourier(idx, point)
    assert type(value) is complex
    assert oracle.fourier(idx, _array_point([(17.0, 0.4)])).tolist() == [value]
    empty = oracle.fourier(idx, _array_point([]))
    assert empty.shape == (0,) and empty.dtype == complex


def test_fourier_over_many_magnitudes_stays_within_rule_budget(monkeypatch):
    # like the numeric grid, a long sequence goes to one transform whose
    # Bessel rows are built and dropped run by run
    import tracemalloc

    from crosscavity import quadrature

    monkeypatch.setattr(quadrature, "MAX_RULE_ENTRIES", 1 << 21)
    batches = []
    transform = QuadratureOracle._radial_transform

    def counted_transform(self, p_mag, *args):
        batches.append(np.size(p_mag))
        return transform(self, p_mag, *args)

    monkeypatch.setattr(QuadratureOracle, "_radial_transform", counted_transform)
    runs = []
    bessel_j = quadrature.bessel_j
    monkeypatch.setattr(quadrature, "bessel_j", lambda kmax, x: runs.append(x.size) or bessel_j(kmax, x))
    points = MomentumPoint(np.linspace(0.0, 90.0, 240), 0.3 * np.arange(240))
    oracle = QuadratureOracle(PARAMS)
    tracemalloc.start()
    try:
        values = oracle.fourier(KernelIndices(4, 2, 3, "g", 1), points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (points.p_mag.size,) and np.isfinite(values).all()
    assert peak <= 8 * quadrature.MAX_RULE_ENTRIES
    assert batches == [points.p_mag.size] and len(runs) > 1


@pytest.mark.parametrize("kind", ["exponential", "tabulated"])
def test_fourier_block_rows_equal_per_index_calls(kind):
    # one call over a block whose indices read reaches 4 and 8, both branches
    # and both atom levels gives, row by row, one call per index over the
    # same points, with magnitude 0 and repeated magnitudes among them
    rho = np.linspace(0.0, 1.5, 300)
    tabulated = SlitProfile.tabulated(rho, np.exp(-rho / 0.2) * (1.2 + np.cos(9.0 * rho)))
    profile, quad = (None, None) if kind == "exponential" else (tabulated, QuadratureSpec(radial_rel_tol=1e-7))
    params = CouplingParams(20.0, 0.3)
    pairs = [(31.0, 0.2), (0.0, 1.0), (12.5, 4.0), (31.0, 2.9), (0.0, 5.5), (47.0, 0.2)]
    points = _array_point(pairs)
    tuples = [(6, 4, 3, "e"), (1, 0, 1, "g"), (3, 1, 2, "e"), (5, 2, 5, "g"), (2, 2, 0, "g"), (6, 6, 6, "g")]
    block = [KernelIndices(*t, branch) for t in tuples for branch in (1, -1)]
    got = QuadratureOracle(params, profile, quad).fourier(block, points)
    assert got.shape == (len(block), len(pairs)) and got.dtype == complex
    single = QuadratureOracle(params, profile, quad)
    for row, idx in zip(got, block):
        assert row.tolist() == single.fourier(idx, points).tolist(), idx


def test_fourier_return_shapes_and_empty_sequences():
    oracle = QuadratureOracle(PARAMS)
    block = [KernelIndices(2, 1, 2, "g", -1), KernelIndices(1, 1, 1, "e", 1)]
    pairs = [(17.0, 0.4), (3.0, 2.0), (17.0, 5.0)]
    points, nothing = _array_point(pairs), _array_point([])
    table = oracle.fourier(block, points)
    assert table.shape == (2, 3) and table.dtype == complex
    value = oracle.fourier(block[0], MomentumPoint(*pairs[1]))
    assert type(value) is complex and value == table[0, 1]
    assert oracle.fourier(block[1], points).tolist() == table[1].tolist()
    assert oracle.fourier(block, MomentumPoint(*pairs[2])).tolist() == table[:, 2].tolist()
    empties = {
        (0,): [oracle.fourier([], MomentumPoint(*pairs[0])), oracle.fourier(block[0], nothing)],
        (0, 3): [oracle.fourier([], points)],
        (2, 0): [oracle.fourier(block, nothing)],
        (0, 0): [oracle.fourier([], nothing)],
    }
    for shape, values in empties.items():
        for empty in values:
            assert empty.shape == shape and empty.dtype == complex


def test_oracle_keeps_only_its_init_state():
    # nothing that depends on the momenta outlives a call: after fourier and
    # w_density calls the oracle holds exactly the attributes __init__ set
    oracle = QuadratureOracle(PARAMS)
    keys = set(vars(oracle))
    assert keys == {"params", "profile", "quad", "_rho_max", "_mass", "_panel_cache", "_harmonics"}
    points = MomentumPoint(np.array([0.0, 12.0, 31.0, 12.0]), np.full(4, 0.3))
    oracle.fourier(KernelIndices(2, 1, 2, "g", -1), MomentumPoint(12.0, 0.3))
    oracle.fourier([KernelIndices(6, 2, 1, "g", 1), KernelIndices(1, 1, 1, "e", -1)], points)
    oracle.w_density(noon_state(2), AtomState.normalized(1.0, 0.5j), points)
    oracle.w_density(noon_state(1), AtomState.ground(), MomentumPoint(0.0, 0.3))
    assert set(vars(oracle)) == keys
