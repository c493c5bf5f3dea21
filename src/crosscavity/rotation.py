"""Rotation coefficients on fixed-total-photon Fock blocks.

A linear recombination of two bosonic modes, ``c = cos(t) a + sin(t) b`` and
``d = -sin(t) a + cos(t) b``, acts on the (N+1)-dimensional block of total
photon number N as a real orthogonal matrix.  ``d_coeff(N, m, n, t)`` is the
matrix element connecting ``|m, N-m>`` in the original modes to ``|n, N-n>``
in the rotated ones; ``dbar`` is the angle-independent amplitude of one term
of its expansion in ``cos^j sin^k`` monomials.

Every element of the block uses only the N+1 monomials ``cos^(N-k) sin^k``
with ``k = m + n - 2q``, so ``d_matrix_table`` evaluates a whole angle table
as one matrix product of the cached ``dbar`` coefficients
(``_monomial_coefficients``) with the sampled monomials, and ``d_matrix`` is
its one-angle case.  ``d_coeff`` sums the same terms one element at a time;
it is the scalar route the quadrature oracle uses, independent of the table.

The square of each ``dbar`` is a product of four binomial coefficients,
an exact integer, so one correctly rounded square root gives the
coefficient to rounding even when the factorials behind it are
astronomically large.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _check_block_indices(total: int, m: int, n: int) -> None:
    if total < 0:
        raise ValueError(f"block size must be non-negative, got {total}")
    if not (0 <= m <= total and 0 <= n <= total):
        raise ValueError(f"indices (m={m}, n={n}) outside block [0, {total}]")


def dbar(total: int, m: int, n: int, q: int) -> float:
    """Amplitude of the q-th monomial of ``d_coeff``; exact up to rounding."""
    _check_block_indices(total, m, n)
    if not (max(0, m + n - total) <= q <= min(m, n)):
        raise ValueError(
            f"q={q} outside admissible range [{max(0, m + n - total)}, {min(m, n)}]"
        )
    # m! n! (N-m)! (N-n)! / (q! (m-q)! (n-q)! (N-m-n+q)!)^2
    square = (
        math.comb(m, q) * math.comb(n, q) * math.comb(total - m, n - q) * math.comb(total - n, m - q)
    )
    value = math.sqrt(square)
    return -value if (m - q) % 2 else value


def d_coeff(total: int, m: int, n: int, theta):
    """Rotation matrix element; ``theta`` may be a scalar or an ndarray."""
    _check_block_indices(total, m, n)
    c, s = np.cos(theta), np.sin(theta)
    out = 0.0
    for q in range(max(0, m + n - total), min(m, n) + 1):
        out = out + dbar(total, m, n, q) * c ** (total - m - n + 2 * q) * s ** (m + n - 2 * q)
    return out


@lru_cache(maxsize=None)
def _monomial_coefficients(total: int) -> np.ndarray:
    """Read-only ``coef[m, n, k]``: the ``dbar`` multiplying ``cos^(N-k) sin^k``.

    ``k = m + n - 2q`` is distinct for each admissible ``q``, so every entry
    holds at most one ``dbar`` and the rest are zero.
    """
    coef = np.zeros((total + 1, total + 1, total + 1))
    for m in range(total + 1):
        for n in range(total + 1):
            for q in range(max(0, m + n - total), min(m, n) + 1):
                coef[m, n, m + n - 2 * q] = dbar(total, m, n, q)
    coef.flags.writeable = False
    return coef


def d_matrix(total: int, theta: float) -> np.ndarray:
    """Full (N+1)x(N+1) block-rotation matrix at one angle, rows m, columns n."""
    return d_matrix_table(total, [theta])[:, :, 0]


def d_matrix_table(total: int, thetas: np.ndarray) -> np.ndarray:
    """Rotation matrices sampled on an angle grid, shape (N+1, N+1, len(thetas)).

    One flat matrix product of the monomial coefficients with
    ``mono[k, t] = cos(theta_t)^(N-k) sin(theta_t)^k``.
    """
    if total < 0:
        raise ValueError(f"block size must be non-negative, got {total}")
    thetas = np.asarray(thetas, dtype=float).ravel()
    powers = np.arange(total + 1)[:, None]
    mono = np.cos(thetas) ** (total - powers) * np.sin(thetas) ** powers
    coef = _monomial_coefficients(total)
    return (coef.reshape(-1, total + 1) @ mono).reshape(total + 1, total + 1, thetas.size)
