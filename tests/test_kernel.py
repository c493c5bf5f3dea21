"""Closed-form kernel tests.

The residue triple sum over single ``(ell, s, t)`` terms (``r_factor`` times
``s_factor``, summed by ``fourier_analytic_direct``) lives here as the
reference of the grouped kernel path; ``harmonic_coefficients_reference`` is
the same sum grouped by harmonic in exact rational arithmetic.  Neither shares
code with the integer Laurent tables of ``kernel.harmonic_coefficients``.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from crosscavity import (
    CouplingParams,
    KernelIndices,
    MomentumPoint,
    UnsupportedProfileError,
    SlitProfile,
    fourier_analytic,
    gamma,
    harmonic_coefficients,
)
from crosscavity.kernel import mode_radial_table
from crosscavity.validation import _tuple_set
from crosscavity.rotation import d_coeff, dbar

PARAMS = CouplingParams(20.0, 0.1)


def upsilon(v_tilde: int) -> int:
    """1 for odd negative arguments, 0 otherwise."""
    return 1 if (v_tilde < 0 and v_tilde % 2 != 0) else 0


def _sum_ranges(idx: KernelIndices):
    d = idx.delta
    lo = max(0, idx.m + idx.n - idx.total - d)
    hi = min(idx.m - d, idx.n - d)
    return d, lo, hi


def r_factor(idx: KernelIndices, ell: int, s: int, t: int) -> complex:
    """Angle-independent coefficient of one (ell, s, t) term of the kernel sum."""
    d, lo, hi = _sum_ranges(idx)
    if not lo <= ell <= hi:
        raise ValueError(f"ell={ell} outside [{lo}, {hi}]")
    u = idx.m + idx.n - 2 * ell
    if not 0 <= s <= idx.total - u + d:
        raise ValueError(f"s={s} outside [0, {idx.total - u + d}]")
    if not 0 <= t <= u - 2 * d:
        raise ValueError(f"t={t} outside [0, {u - 2 * d}]")
    sign = -1.0 if (u - t) % 2 else 1.0
    denom = 2 ** (idx.total - d) * (1j) ** ((u - 2 * d) % 4)
    return (
        sign
        / denom
        * math.comb(idx.total - u + d, s)
        * math.comb(u - 2 * d, t)
        * dbar(idx.total - d, idx.m - d, idx.n - d, ell)
    )


def s_factor(idx: KernelIndices, s: int, t: int, p_mag: float, params: CouplingParams) -> complex:
    """Radial shape factor of one kernel term at momentum magnitude ``p_mag``."""
    d = idx.delta
    w = 2 * (s + t) - idx.total + d
    g = gamma(idx.n, params, idx.branch)
    sig = -complex(np.sqrt(g * g + p_mag**2 + 0j))  # the branch of the kernel module docstring
    ratio = 0.0j if p_mag == 0.0 else p_mag / (g + sig)
    ratio_pow = 1.0 + 0j if abs(w) == 0 else ratio ** abs(w)
    sign = -1.0 if upsilon(w) else 1.0
    return sign / (math.sqrt(2.0 * math.pi) * params.k_delta_r) * (abs(w) * sig + g) / sig**3 * ratio_pow


def fourier_analytic_direct(idx: KernelIndices, point: MomentumPoint, params: CouplingParams) -> complex:
    """Literal term-by-term triple sum; every (ell, s, t) term is evaluated.

    Reference twin of :func:`fourier_analytic`; no grouping, no caching,
    correctly rounded (``math.fsum``) accumulation of each component.
    """
    d, lo, hi = _sum_ranges(idx)
    terms = []
    for ell in range(lo, hi + 1):
        u = idx.m + idx.n - 2 * ell
        for s in range(0, idx.total - u + d + 1):
            for t in range(0, u - 2 * d + 1):
                w = 2 * (s + t) - idx.total + d
                prefactor = (1j * cmath.exp(1j * point.p_ang)) ** w
                terms.append(prefactor * r_factor(idx, ell, s, t) * s_factor(idx, s, t, point.p_mag, params))
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def harmonic_coefficients_reference(idx: KernelIndices):
    """The triple sum grouped by harmonic ``w = 2(s+t) - N + delta``, accumulated in ``Fraction``."""
    fact = math.factorial
    d = idx.delta
    N, m, n = idx.total, idx.m, idx.n
    mp, np_, Np = m - d, n - d, N - d
    acc = {}
    for ell in range(max(0, m + n - N - d), min(mp, np_) + 1):
        u = m + n - 2 * ell
        fr_ell = Fraction(1, fact(ell) * fact(mp - ell) * fact(np_ - ell) * fact(Np - mp - np_ + ell))
        for s in range(0, N - u + d + 1):
            comb_s = math.comb(N - u + d, s)
            for t in range(0, u - 2 * d + 1):
                w = 2 * (s + t) - N + d
                term = comb_s * math.comb(u - 2 * d, t) * fr_ell
                if (n + t + d) % 2:
                    term = -term
                acc[w] = acc.get(w, Fraction(0)) + term
    prefactor = math.sqrt(float(Fraction(fact(mp) * fact(np_) * fact(Np - mp) * fact(Np - np_))))
    phase = (1j) ** ((2 * d - m - n) % 4)
    scale = Fraction(1, 2 ** (N - d))
    w_values = np.array(sorted(acc), dtype=int)
    coeffs = np.array([phase * prefactor * float(acc[w] * scale) for w in w_values], dtype=complex)
    return w_values, coeffs


def brute_force_r(idx, ell, s, t):
    """The coefficient formula evaluated verbatim, independent of r_factor."""
    d = 1 if idx.epsilon == "e" else 0
    u = idx.m + idx.n - 2 * ell
    num = math.sqrt(
        math.factorial(idx.m - d)
        * math.factorial(idx.n - d)
        * math.factorial(idx.total - idx.m)
        * math.factorial(idx.total - idx.n)
    )
    den = (
        math.factorial(ell)
        * math.factorial(idx.m - d - ell)
        * math.factorial(idx.n - d - ell)
        * math.factorial(idx.total - d - (idx.m - d) - (idx.n - d) + ell)
    )
    dbar_val = (-1) ** (idx.m - d - ell) * num / den
    return (
        (-1) ** (u - t - 2 * d)
        / (2 ** (idx.total - d) * 1j ** (u - 2 * d))
        * math.comb(idx.total - u + d, s)
        * math.comb(u - 2 * d, t)
        * dbar_val
    )


def test_gamma_values():
    assert gamma(1, PARAMS, 1) == pytest.approx(-5 + 20j)
    assert gamma(2, PARAMS, -1) == pytest.approx(-5 - 20 * math.sqrt(2) * 1j)
    assert gamma(0, PARAMS, 1) == pytest.approx(-5 + 0j)
    with pytest.raises(ValueError):
        gamma(-1, PARAMS, 1)
    with pytest.raises(ValueError):
        gamma(1, PARAMS, 0)


def test_upsilon_case_table():
    assert upsilon(3) == 0
    assert upsilon(0) == 0
    assert upsilon(4) == 0
    assert upsilon(-2) == 0
    assert upsilon(-4) == 0
    assert upsilon(-3) == 1
    assert upsilon(-1) == 1


def test_kernel_indices_validation():
    KernelIndices(2, 0, 0, "g", 1)
    KernelIndices(2, 1, 1, "e", -1)
    with pytest.raises(ValueError):
        KernelIndices(2, 0, 1, "e", 1)  # excited channel needs m >= 1
    with pytest.raises(ValueError):
        KernelIndices(2, 3, 1, "g", 1)
    with pytest.raises(ValueError):
        KernelIndices(2, 1, 1, "x", 1)
    with pytest.raises(ValueError):
        KernelIndices(2, 1, 1, "e", 2)


def test_momentum_point_validation():
    p = MomentumPoint(3.0, 7.0)
    assert 0 <= p.p_ang < 2 * math.pi
    with pytest.raises(ValueError):
        MomentumPoint(-1.0, 0.0)


def test_momentum_point_rejects_non_finite_angle():
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle"):
            MomentumPoint(1.0, angle)


def _battery_angles(lams=(5.0, 20.0), kdrs=(0.1, 0.3), max_total=4, points=50, seed=20240):
    """The angles that ``kernel_battery`` draws with these settings (its defaults here)."""
    angles = []
    for lam in lams:
        for kdr in kdrs:
            rng = np.random.default_rng([seed, int(lam * 1000), int(kdr * 1000)])
            for total in range(1, max_total + 1):
                rng.uniform(0.0, 2.0 * math.sqrt(total) * lam, size=points)
                angles.append(rng.uniform(0.0, 2.0 * math.pi, size=points))
    return np.concatenate(angles)


def test_momentum_point_wrap_matches_python_modulo():
    # np.remainder gives, angle by angle, the double that Python's float %
    # gives: on both grids' angles, the full and quick batteries' draws,
    # random angles and edge values (signed zeros and subnormals included),
    # except where % rounds a tiny negative angle up to 2 pi, outside
    # [0, 2 pi): there the point holds 0.0, the nearest angle
    two_pi = 2.0 * math.pi
    rng = np.random.default_rng(2004)
    edges = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, two_pi, -two_pi, math.nextafter(two_pi, 0.0), -5e-324,
             -1e-17, -4e-16]
    angles = np.concatenate([
        np.arange(720) * (two_pi / 720),
        np.arange(20) * (two_pi / 20),
        _battery_angles(),
        _battery_angles(lams=(20.0,), kdrs=(0.1,), max_total=2, points=8),
        rng.uniform(0.0, two_pi, 100_000),
        rng.uniform(-50.0, 50.0, 100_000),
        edges,
    ])
    want = np.array([a % two_pi if a % two_pi != two_pi else 0.0 for a in angles.tolist()])
    assert np.count_nonzero(np.array(edges) % two_pi == two_pi) == 4  # -1e-300, -5e-324, -1e-17, -4e-16
    assert MomentumPoint(np.zeros(angles.size), angles).p_ang.tobytes() == want.tobytes()
    for a, expected in zip(edges + angles[::251].tolist(), want[-len(edges):].tolist() + want[::251].tolist()):
        wrapped = MomentumPoint(0.0, a).p_ang
        assert type(wrapped) is float and math.copysign(1.0, wrapped) == math.copysign(1.0, expected)
        assert wrapped == expected and 0.0 <= wrapped < two_pi


def test_momentum_point_refusals_name_the_first_bad_entry():
    # one point shows its value as a plain float, as before; an array point
    # names its first bad entry and that entry's index
    cases = [
        ((-1.0, 0.0), "momentum magnitude must be >= 0, got -1.0"),
        ((np.float64(-1.0), 0.0), "momentum magnitude must be >= 0, got -1.0"),
        ((math.nan, 0.0), "momentum magnitude must be >= 0, got nan"),
        ((math.inf, math.nan), "momentum magnitude must be >= 0, got inf"),
        ((1.0, -math.inf), "momentum angle must be finite, got -inf"),
        ((np.array([1.0, -2.0, math.nan]), np.zeros(3)), "momentum magnitude must be >= 0, got -2.0 at index 1"),
        ((np.ones(3), np.array([0.0, 1.0, math.nan])), "momentum angle must be finite, got nan at index 2"),
    ]
    for args, text in cases:
        with pytest.raises(ValueError) as err:
            MomentumPoint(*args)
        assert str(err.value) == text


def test_momentum_point_value_equality_and_hash():
    # array points compare by value and hash alike when equal; scalar points as before
    a = MomentumPoint(np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    b = MomentumPoint(np.array([-0.0, 2.0]), np.array([1.0, 3.0]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != MomentumPoint(np.array([0.0, 2.0]), np.array([1.0, 3.5]))
    assert a != MomentumPoint(np.array([0.0, 2.0, 4.0]), np.array([1.0, 3.0, 5.0]))
    assert MomentumPoint(np.array([2.0]), np.array([3.0])) != MomentumPoint(2.0, 3.0)
    assert MomentumPoint(np.zeros(0), np.zeros(0)) == MomentumPoint(np.zeros(0), np.zeros(0))
    assert a != (a.p_mag, a.p_ang)
    scalar = MomentumPoint(2.0, 3.0)
    assert scalar == MomentumPoint(2.0, 3.0) and scalar != MomentumPoint(2.0, 3.5)
    assert MomentumPoint(0.0, 1.0) == MomentumPoint(-0.0, 1.0)
    assert hash(scalar) == hash((2.0, 3.0))


def test_momentum_point_shapes_and_read_only_copies():
    for p_mag, p_ang in [
        (np.ones((2, 2)), np.ones((2, 2))),
        (np.ones(3), np.ones(2)),
        (1.0, np.ones(2)),
        (np.ones(2), 0.5),
    ]:
        with pytest.raises(ValueError, match="two scalars or two 1-d arrays"):
            MomentumPoint(p_mag, p_ang)
    p_mag, p_ang = np.array([1.0, 2.0]), np.array([0.5, 7.0])
    point = MomentumPoint(p_mag, p_ang)
    for field in (point.p_mag, point.p_ang):
        assert field.dtype == float and not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 3.0
    p_mag[0] = p_ang[0] = 9.0  # the caller's arrays change, the point does not
    assert point.p_mag.tolist() == [1.0, 2.0]
    assert point.p_ang.tolist() == [0.5, 7.0 % (2.0 * math.pi)]
    one = MomentumPoint(np.float64(3.0), np.array(7.0))
    assert type(one.p_mag) is float and type(one.p_ang) is float


def test_r_factor_hand_value():
    idx = KernelIndices(1, 1, 1, "e", 1)
    assert r_factor(idx, 0, 0, 0) == pytest.approx(1.0)


def test_r_factor_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(60):
        total = int(rng.integers(1, 6))
        eps = str(rng.choice(["g", "e"]))
        d = 1 if eps == "e" else 0
        m = int(rng.integers(d, total + 1))
        n = int(rng.integers(max(d, 0), total + 1))
        if eps == "e":
            n = max(n, 1)
        idx = KernelIndices(total, m, n, eps, 1)
        lo = max(0, m + n - total - d)
        hi = min(m - d, n - d)
        if hi < lo:
            continue
        for ell in range(lo, hi + 1):
            u = m + n - 2 * ell
            for s in range(0, total - u + d + 1):
                for t in range(0, u - 2 * d + 1):
                    assert r_factor(idx, ell, s, t) == pytest.approx(
                        brute_force_r(idx, ell, s, t), abs=1e-12
                    )


def test_r_factor_modulus_structure():
    # sign and i-power have unit modulus, so |R| is binom * binom * |dbar| / 2^N
    from crosscavity.rotation import dbar

    idx = KernelIndices(3, 2, 2, "g", 1)
    for ell in range(1, 3):  # admissible range for this index set
        u = 4 - 2 * ell
        for s in range(0, 3 - u + 1):
            for t in range(0, u + 1):
                expected = (
                    math.comb(3 - u, s) * math.comb(u, t) * abs(dbar(3, 2, 2, ell)) / 2**3
                )
                assert abs(r_factor(idx, ell, s, t)) == pytest.approx(expected)


def test_r_factor_range_errors():
    idx = KernelIndices(2, 1, 1, "e", 1)
    with pytest.raises(ValueError):
        r_factor(idx, 1, 0, 0)
    with pytest.raises(ValueError):
        r_factor(idx, 0, 99, 0)
    with pytest.raises(ValueError):
        r_factor(idx, 0, 0, 99)


def test_s_factor_zero_momentum_zero_harmonic():
    # with p = 0 and harmonic index 0 the angle integral collapses to 1/gamma^2
    idx = KernelIndices(2, 1, 1, "g", 1)
    val = s_factor(idx, 1, 0, 0.0, PARAMS)  # w = 2*(1+0) - 2 = 0
    g1 = gamma(1, PARAMS, 1)
    assert val == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * PARAMS.k_delta_r) / g1**2)


def test_s_factor_decays_at_large_momentum():
    idx = KernelIndices(1, 1, 1, "e", 1)
    small = abs(s_factor(idx, 0, 0, 5.0, PARAMS))
    large = abs(s_factor(idx, 0, 0, 4000.0, PARAMS))
    assert large < 1e-4 * small


def test_fourier_direct_equals_grouped():
    rng = np.random.default_rng(5)
    for _ in range(40):
        total = int(rng.integers(1, 5))
        eps = str(rng.choice(["g", "e"]))
        d = 1 if eps == "e" else 0
        m = int(rng.integers(d, total + 1))
        n = int(rng.integers(1 if eps == "e" else 0, total + 1))
        branch = int(rng.choice([1, -1]))
        idx = KernelIndices(total, m, n, eps, branch)
        pt = MomentumPoint(float(rng.uniform(0, 80)), float(rng.uniform(0, 2 * math.pi)))
        a = fourier_analytic(idx, pt, PARAMS)
        b = fourier_analytic_direct(idx, pt, PARAMS)
        assert a == pytest.approx(b, abs=1e-13 + 1e-10 * abs(b))


def test_harmonics_match_fft_of_rotation_element():
    # grouped coefficients are the Fourier series of the attached D element;
    # the last three have odd m' = m - delta, where the (-1)^m' sign shows
    cases = [(1, 1, 1, "e"), (3, 2, 1, "g"), (4, 3, 2, "e"), (2, 2, 1, "g")]
    cases += [(2, 1, 0, "g"), (3, 1, 2, "g"), (3, 2, 2, "e")]
    for total, m, n, eps in cases:
        idx = KernelIndices(total, m, n, eps, 1)
        w_vals, coeffs = harmonic_coefficients(idx)
        d = idx.delta
        size = 64
        theta = np.arange(size) * (2 * math.pi / size)
        series = np.fft.fft(d_coeff(total - d, m - d, n - d, theta)) / size
        for w, kap in zip(w_vals, coeffs):
            assert kap == pytest.approx(series[w % size], abs=1e-12)
        # harmonics absent from the table really are absent from the series
        present = set(int(w) for w in w_vals)
        for w in range(-(total - d), total - d + 1):
            if w not in present:
                assert abs(series[w % size]) < 1e-12


def test_excited_harmonics_equal_ground_harmonics_of_lower_block():
    # (N, m, n, "e") shifts every block index down by one: its triple sum is
    # term for term that of (N - 1, m - 1, n - 1, "g"), so the tables agree bit for bit
    for total in range(1, 9):
        for m in range(1, total + 1):
            for n in range(1, total + 1):
                w_e, kap_e = harmonic_coefficients(KernelIndices(total, m, n, "e", 1))
                w_g, kap_g = harmonic_coefficients(KernelIndices(total - 1, m - 1, n - 1, "g", 1))
                assert w_e.tobytes() == w_g.tobytes()
                assert kap_e.tobytes() == kap_g.tobytes()


def _table_indices():
    """Every ground index with N <= 10, plus 12 random indices at each of N = 16, 24 and 32."""
    out = [KernelIndices(N, m, n, "g", 1) for N in range(11) for m in range(N + 1) for n in range(N + 1)]
    rng = random.Random(13)
    for total in (16, 24, 32):
        for _ in range(12):
            eps = rng.choice("ge")
            d = 1 if eps == "e" else 0
            out.append(KernelIndices(total, rng.randint(d, total), rng.randint(d, total), eps, 1))
    return out


def test_integer_tables_match_fraction_reference():
    # same harmonics, same exact zeros, values to rounding
    indices = _table_indices()
    assert len(indices) == 542
    for idx in indices:
        w_vals, kap = harmonic_coefficients(idx)
        w_ref, kap_ref = harmonic_coefficients_reference(idx)
        assert np.array_equal(w_vals, w_ref)
        assert np.array_equal(kap == 0, kap_ref == 0)
        assert np.abs(kap - kap_ref).max() <= 1e-15 * np.abs(kap_ref).max()


def test_fourier_phase_periodicity():
    idx = KernelIndices(2, 1, 1, "e", 1)
    pt1 = MomentumPoint(25.0, 0.4)
    pt2 = MomentumPoint(25.0, 0.4 + 2 * math.pi)
    assert fourier_analytic(idx, pt1, PARAMS) == pytest.approx(
        fourier_analytic(idx, pt2, PARAMS), abs=1e-15
    )


def test_fourier_peak_concentration_on_ring():
    # vacuum-excited kernel peaks at the ring radius, far above the far tail
    idx = KernelIndices(1, 1, 1, "e", 1)
    on_ring = abs(fourier_analytic(idx, MomentumPoint(PARAMS.lam, 1.0), PARAMS))
    off_ring = abs(
        fourier_analytic(idx, MomentumPoint(PARAMS.lam + 5.0 / PARAMS.k_delta_r, 1.0), PARAMS)
    )
    assert on_ring >= 10.0 * off_ring


def test_fourier_analytic_rejects_foreign_profile():
    idx = KernelIndices(1, 1, 1, "e", 1)
    pt = MomentumPoint(3.0, 0.0)
    rho = np.linspace(0.0, 8.0, 200)
    tab = SlitProfile.tabulated(rho, np.exp(-rho / 0.2))
    with pytest.raises(UnsupportedProfileError):
        fourier_analytic(idx, pt, PARAMS, profile=tab)
    with pytest.raises(UnsupportedProfileError):
        fourier_analytic(idx, pt, PARAMS, profile=SlitProfile.exponential(0.2))
    ok = fourier_analytic(idx, pt, PARAMS, profile=SlitProfile.exponential(0.1))
    assert ok == pytest.approx(fourier_analytic(idx, pt, PARAMS))


def test_ground_channel_kernel_at_zero_momentum():
    # D = cos(theta) has zero angular mean, so the amplitude vanishes at p = 0
    idx = KernelIndices(1, 1, 1, "g", 1)
    val = fourier_analytic(idx, MomentumPoint(0.0, 0.9), PARAMS)
    assert abs(val) < 1e-15


def fourier_analytic_one_point(idx: KernelIndices, point: MomentumPoint, params: CouplingParams) -> complex:
    """The one-point evaluation as a one-dimensional sum over the harmonics."""
    w_values, coeffs = harmonic_coefficients(idx)
    g = gamma(idx.n, params, idx.branch)
    radial = mode_radial_table(np.abs(w_values), np.array([point.p_mag]), g, params.k_delta_r)[:, 0]
    phases = np.exp(1j * w_values * point.p_ang)
    return complex(np.sum(coeffs * phases * radial))


def _seeded_indices_and_points():
    rng = np.random.default_rng(1606)
    indices = [KernelIndices(0, 0, 0, "g", b) for b in (1, -1)] + [KernelIndices(*t) for t in _tuple_set(4)]
    p_vals = np.concatenate([[0.0, 0.0], rng.uniform(0.0, 4.0 * PARAMS.lam, size=14)])
    a_vals = np.concatenate([[0.0, 1.3], rng.uniform(0.0, 2.0 * math.pi, size=14)])
    return indices, p_vals, a_vals


def test_fourier_analytic_sequence_equals_one_point_calls():
    indices, p_vals, a_vals = _seeded_indices_and_points()
    points = MomentumPoint(p_vals, a_vals)
    one_points = [MomentumPoint(float(p), float(a)) for p, a in zip(p_vals, a_vals)]
    assert {idx.epsilon for idx in indices} == {"g", "e"}
    assert {idx.branch for idx in indices} == {1, -1}
    for params in (PARAMS, CouplingParams(5.0, 0.3)):
        for idx in indices:
            values = fourier_analytic(idx, points, params)
            assert isinstance(values, np.ndarray) and values.shape == (len(one_points),)
            one_point = [fourier_analytic(idx, pt, params) for pt in one_points]
            assert all(type(v) is complex for v in one_point)
            assert values.tolist() == one_point
            assert one_point == [fourier_analytic_one_point(idx, pt, params) for pt in one_points]
            # an array slice works as well as the whole arrays
            assert fourier_analytic(idx, MomentumPoint(p_vals[:3], a_vals[:3]), params).tolist() == one_point[:3]


def test_fourier_analytic_empty_sequence_and_profile_check():
    idx = KernelIndices(2, 1, 2, "g", -1)
    nothing = MomentumPoint(np.array([]), np.array([]))
    empty = fourier_analytic(idx, nothing, PARAMS)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == complex
    rho = np.linspace(0.0, 8.0, 200)
    tab = SlitProfile.tabulated(rho, np.exp(-rho / 0.2))
    for profile in (tab, SlitProfile.exponential(0.2)):
        with pytest.raises(UnsupportedProfileError):
            fourier_analytic(idx, MomentumPoint(np.array([3.0, 1.0]), np.array([0.0, 2.0])), PARAMS, profile=profile)
        with pytest.raises(UnsupportedProfileError):
            fourier_analytic(idx, nothing, PARAMS, profile=profile)
