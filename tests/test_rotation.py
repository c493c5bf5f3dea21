import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from crosscavity import d_coeff, d_matrix, d_matrix_table, dbar
from crosscavity.rotation import _monomial_coefficients
from crosscavity.states import SUPPORT_CAP

THETA_GRID = np.arange(1024) * (2 * math.pi / 1024)


def monomial_map_matrix(total, theta):
    """Independent oracle: matrix of the induced map on symmetric monomials.

    Expands (cos t x - sin t y)^m (sin t x + cos t y)^(total-m) and reads the
    coefficient of x^n y^(total-n), rescaled by the Fock normalization.
    """
    c, s = math.cos(theta), math.sin(theta)
    out = np.zeros((total + 1, total + 1))
    for m in range(total + 1):
        poly = np.array([1.0])
        for _ in range(m):
            poly = np.convolve(poly, [c, -s])  # coefficients in descending x power
        for _ in range(total - m):
            poly = np.convolve(poly, [s, c])
        # poly[k] multiplies x^(total-k) y^k; we want x^n y^(total-n)
        for n in range(total + 1):
            coeff = poly[total - n]
            scale = math.sqrt(
                math.factorial(n)
                * math.factorial(total - n)
                / (math.factorial(m) * math.factorial(total - m))
            )
            out[m, n] = coeff * scale
    return out


def test_dbar_hand_values():
    assert dbar(1, 1, 1, 1) == pytest.approx(1.0)
    assert dbar(1, 1, 0, 0) == pytest.approx(-1.0)
    assert dbar(2, 0, 1, 0) == pytest.approx(math.sqrt(2.0))


def dbar_from_factorials(total, m, n, q):
    """Reference ``dbar``: the exact factorial ratio, one square root."""
    f = math.factorial
    num = f(m) * f(n) * f(total - m) * f(total - n)
    den = f(q) * f(m - q) * f(n - q) * f(total - m - n + q)
    value = math.sqrt(float(Fraction(num, den * den)))
    return -value if (m - q) % 2 else value


def test_dbar_equals_factorial_ratio():
    # both square roots take the same correctly rounded float of the same integer
    for total in range(SUPPORT_CAP + 2):
        for m in range(total + 1):
            for n in range(total + 1):
                for q in range(max(0, m + n - total), min(m, n) + 1):
                    assert dbar(total, m, n, q) == dbar_from_factorials(total, m, n, q), (
                        total, m, n, q,
                    )


def test_dbar_range_checks():
    with pytest.raises(ValueError):
        dbar(2, 1, 1, 2)  # q > min(m, n)
    with pytest.raises(ValueError):
        dbar(2, 2, 2, 1)  # q < m + n - total
    with pytest.raises(ValueError):
        dbar(2, 3, 0, 0)  # m outside block


def test_d_coeff_identity_at_zero():
    for total in range(0, 7):
        for m in range(total + 1):
            for n in range(total + 1):
                expected = 1.0 if m == n else 0.0
                assert d_coeff(total, m, n, 0.0) == pytest.approx(expected, abs=1e-14)


def test_d_coeff_one_photon_block():
    for theta in np.linspace(0.0, 2 * math.pi, 9):
        assert d_coeff(1, 1, 0, theta) == pytest.approx(-math.sin(theta), abs=1e-14)
        assert d_coeff(1, 1, 1, theta) == pytest.approx(math.cos(theta), abs=1e-14)
        assert d_coeff(2, 0, 1, theta) == pytest.approx(
            math.sqrt(2.0) * math.cos(theta) * math.sin(theta), abs=1e-14
        )


def test_d_matrix_one_photon():
    theta = 0.37
    expected = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    assert np.allclose(d_matrix(1, theta), expected, atol=1e-15)
    sixth = d_matrix(1, math.pi / 6)
    assert np.allclose(
        sixth, [[math.sqrt(3) / 2, 0.5], [-0.5, math.sqrt(3) / 2]], atol=1e-15
    )


def test_d_matrix_vacuum_block():
    assert np.allclose(d_matrix(0, 1.234), [[1.0]])


def test_d_matrix_quarter_turn_antidiagonal():
    for total in range(1, 7):
        mat = np.abs(d_matrix(total, math.pi / 2))
        expected = np.fliplr(np.eye(total + 1))
        assert np.allclose(mat, expected, atol=1e-12)


def test_d_matrix_orthogonality():
    thetas = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    for total in range(0, 13):
        for theta in thetas:
            mat = d_matrix(total, float(theta))
            gram = mat @ mat.T
            assert np.max(np.abs(gram - np.eye(total + 1))) < 1e-10


def test_d_matrix_composition_one_photon():
    t1, t2 = 0.4, 1.1
    lhs = d_matrix(1, t1) @ d_matrix(1, t2)
    rhs = d_matrix(1, t1 + t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_d_matrix_against_monomial_map():
    thetas = [0.0, 0.3, math.pi / 4, 1.9, math.pi, 5.0]
    for total in range(0, 9):
        for theta in thetas:
            assert np.max(np.abs(d_matrix(total, theta) - monomial_map_matrix(total, theta))) < 1e-10


def test_d_matrix_table_matches_scalar():
    thetas = np.array([0.1, 0.7, 2.0])
    table = d_matrix_table(2, thetas)
    for k, theta in enumerate(thetas):
        assert np.allclose(table[:, :, k], d_matrix(2, float(theta)), atol=1e-15)


@functools.lru_cache(maxsize=None)
def d_coeff_table(total):
    """Reference table on ``THETA_GRID``: one ``d_coeff`` call per element."""
    ref = np.empty((total + 1, total + 1, THETA_GRID.size))
    for m in range(total + 1):
        for n in range(total + 1):
            ref[m, n] = d_coeff(total, m, n, THETA_GRID)
    ref.flags.writeable = False
    return ref


def orthogonality_error(table):
    """``max |D^T D - I|`` over every angle of an (N+1, N+1, T) table."""
    gram = np.einsum("mnt,mkt->tnk", table, table)
    return float(np.max(np.abs(gram - np.eye(table.shape[0]))))


def test_d_matrix_table_matches_d_coeff_up_to_support_cap():
    for total in range(SUPPORT_CAP + 1):
        diff = np.max(np.abs(d_matrix_table(total, THETA_GRID) - d_coeff_table(total)))
        assert diff <= 5e-12, (total, diff)


def test_rotation_orthogonality_bound_up_to_support_cap():
    # pinned drift bound; the worst cases measured are 1.4e-12 for the table
    # and 1.7e-12 for d_coeff, both near N = 32
    for total in range(SUPPORT_CAP + 1):
        assert orthogonality_error(d_matrix_table(total, THETA_GRID)) <= 5e-12, total
        assert orthogonality_error(d_coeff_table(total)) <= 5e-12, total


def test_monomial_coefficients_hold_dbar():
    total = 5
    coef = _monomial_coefficients(total)
    assert coef is _monomial_coefficients(total)
    assert not coef.flags.writeable
    for m in range(total + 1):
        for n in range(total + 1):
            qs = range(max(0, m + n - total), min(m, n) + 1)
            expected = np.zeros(total + 1)
            for q in qs:
                expected[m + n - 2 * q] = dbar(total, m, n, q)
            assert np.array_equal(coef[m, n], expected)


def test_d_matrix_exact_identity_at_zero():
    for total in range(SUPPORT_CAP + 1):
        assert np.array_equal(d_matrix(total, 0.0), np.eye(total + 1))
