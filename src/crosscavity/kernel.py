"""Closed-form momentum-space kernel for an exponential slit profile.

Each dressed channel of the deflected atom contributes a two-dimensional
Fourier amplitude

    F(p, phi) = (1/2pi) Int dtheta Int drho  rho g(rho) D(theta)
                exp(-i rho [p cos(theta - phi) -+ sqrt(n) lam])

with ``g`` the dimensionless slit density, ``D`` a block-rotation matrix
element (a trigonometric polynomial in theta) and the -+ sign selecting the
dressed branch.  For the exponential profile the radial integral is a
rational function of ``cos(theta)`` and the angular integral closes by
residues, so ``F = sum_w kappa_w R_|w|(p) e^{i w phi}``: the exact integer
harmonic table of ``D`` (``harmonic_coefficients``, once per kernel index)
times one radial factor (``mode_radial_table``).  The residue triple sum
term by term is the independent reference in ``tests/test_kernel.py``.

Branch convention
-----------------
The square root ``(p^2 + gamma^2)^(1/2)`` in the radial factor must be taken
as ``sigma = -sqrt_principal(gamma^2 + p^2)``.  With ``Re gamma < 0``
this is the branch reached by continuity in ``p`` starting from
``sigma = gamma`` at ``p = 0``; it is also the unique choice that keeps the
geometric ratio ``p / (gamma + sigma)`` inside the unit disk, which the
residue derivation requires.  The principal branch flips the sign of odd
powers of sigma and grows the ratio past 1; the quadrature oracle battery
confirms the convention used here on both branches and all channels.

``0**0`` in the ratio power (p = 0 with harmonic index 0) is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .states import CouplingParams

_TWO_PI_SQRT = math.sqrt(2.0 * math.pi)


class UnsupportedProfileError(ValueError):
    """Closed-form kernel asked to handle a non-exponential slit profile."""


@dataclass(frozen=True)
class KernelIndices:
    """Index bundle of one kernel amplitude.

    ``total`` is the combined atom+field excitation N, ``m`` the source Fock
    index, ``n`` the dressed ladder index, ``epsilon`` the atomic channel
    ('g' or 'e') and ``branch`` the dressed branch (+1 or -1).
    """

    total: int
    m: int
    n: int
    epsilon: str
    branch: int

    def __post_init__(self):
        if self.epsilon not in ("g", "e"):
            raise ValueError(f"epsilon must be 'g' or 'e', got {self.epsilon!r}")
        if self.branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch!r}")
        if self.total < 0:
            raise ValueError(f"total excitation must be non-negative, got {self.total}")
        lo = self.delta
        if not (lo <= self.m <= self.total and lo <= self.n <= self.total):
            raise ValueError(
                f"(m={self.m}, n={self.n}) outside [{lo}, {self.total}] for epsilon={self.epsilon}"
            )

    @property
    def delta(self) -> int:
        """Kronecker delta selecting the excited channel (shifts all block indices)."""
        return 1 if self.epsilon == "e" else 0


@dataclass(frozen=True)
class MomentumPoint:
    """Dimensionless momentum magnitudes >= 0 and angles wrapped to [0, 2pi).

    Two scalars give one point with ``float`` fields; two 1-d arrays of one
    length give that many points, as read-only copies.  Checked once, here:
    magnitudes finite and >= 0, angles finite, then wrapped by
    ``np.remainder``, which gives the double of Python's ``phi % (2 pi)``,
    except that a wrap which rounds to ``2 pi`` (an angle within half an ulp
    of ``2 pi`` below 0) gives 0.0, the nearest angle in [0, 2 pi).
    """

    p_mag: Union[float, np.ndarray]
    p_ang: Union[float, np.ndarray]

    def __post_init__(self):
        p, phi = np.array(self.p_mag, dtype=float), np.array(self.p_ang, dtype=float)
        if p.ndim > 1 or p.shape != phi.shape:
            raise ValueError(f"momentum point: two scalars or two 1-d arrays of one size, got {p.shape}, {phi.shape}")
        for values, bad, message in (
            (p, ~(np.isfinite(p) & (p >= 0.0)), "momentum magnitude must be >= 0, got"),
            (phi, ~np.isfinite(phi), "momentum angle must be finite, got"),
        ):
            if bad.any():
                i = int(np.argmax(bad))
                at = f" at index {i}" if values.ndim else ""
                raise ValueError(f"{message} {float(values.flat[i])!r}{at}")
        np.remainder(phi, 2.0 * math.pi, out=phi)
        phi[phi == 2.0 * math.pi] = 0.0
        p.flags.writeable = phi.flags.writeable = False
        if p.ndim == 0:
            p, phi = float(p), float(phi)
        object.__setattr__(self, "p_mag", p)
        object.__setattr__(self, "p_ang", phi)

    def __eq__(self, other):
        """Value equality: the same shape, then equal magnitudes and equal angles."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            np.shape(self.p_mag) == np.shape(other.p_mag)
            and np.array_equal(self.p_mag, other.p_mag)
            and np.array_equal(self.p_ang, other.p_ang)
        )

    def __hash__(self):
        # tolist() gives Python floats, which hash 0.0 and -0.0 alike, as == needs
        if np.ndim(self.p_mag):
            return hash((tuple(self.p_mag.tolist()), tuple(self.p_ang.tolist())))
        return hash((self.p_mag, self.p_ang))


def gamma(n: int, params: CouplingParams, branch: int) -> complex:
    """Complex pole ``-1/(2 k_delta_r) +- i sqrt(n) lam`` of the radial integral."""
    if n < 0:
        raise ValueError(f"ladder index must be >= 0, got {n}")
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    if params.k_delta_r <= 0.0:
        raise ValueError("k_delta_r must be positive")
    return complex(-0.5 / params.k_delta_r, branch * math.sqrt(n) * params.lam)


@lru_cache(maxsize=None)
def _laurent(total: int, k: int) -> Tuple[int, ...]:
    """Integer coefficients of ``(z + 1/z)^(total - k) (z - 1/z)^k`` on ``z^-total..z^total``, step 2."""
    out = [0] * (total + 1)
    for i in range(total - k + 1):
        for j in range(k + 1):
            out[i + j] += (-1) ** (k - j) * math.comb(total - k, i) * math.comb(k, j)
    return tuple(out)


@lru_cache(maxsize=None)
def _ground_harmonics(total: int, m: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Harmonic table of ground block ``(total, m, n)``; see :func:`harmonic_coefficients`."""
    sums = [0] * (total + 1)
    for q in range(max(0, m + n - total), min(m, n) + 1):
        weight = math.comb(m, q) * math.comb(total - m, n - q)
        for j, c in enumerate(_laurent(total, m + n - 2 * q)):
            sums[j] += weight * c
    # s * sqrt(C(N, m) / C(N, n)) / 2^N from its exact square
    num, den = math.comb(total, m), math.comb(total, n) << (2 * total)
    values = np.array([math.copysign(math.sqrt(s * s * num / den), s) for s in sums])
    w_values = np.arange(-total, total + 1, 2)
    coeffs = values * (1j) ** ((m - n) % 4)  # (-1)^m i^-(m+n) = i^(m-n)
    w_values.flags.writeable = False
    coeffs.flags.writeable = False
    return w_values, coeffs


def harmonic_coefficients(idx: KernelIndices) -> Tuple[np.ndarray, np.ndarray]:
    """Angular harmonics ``(w_values, coeffs)`` of the rotation element of ``idx``.

    ``coeffs[k] = (1/2pi) Int D(theta) exp(-i w theta) dtheta`` at
    ``w = w_values[k] = -N'..N'`` in steps of 2 (read-only, shared arrays),
    with ``(N', m', n') = (N - d, m - d, n - d)`` and ``d = 1`` for ``"e"``:
    an excited table is the ground table of the lower block.  With
    ``z = e^{i theta}``, ``2^N' i^k cos^(N'-k) sin^k`` is the integer Laurent
    polynomial ``L_k = (z + 1/z)^(N'-k) (z - 1/z)^k``, so the table is

        (-1)^m' i^-(m'+n') sqrt(C(N',m') / C(N',n')) 2^-N'
            sum_q C(m',q) C(N'-m',n'-q) L_{m'+n'-2q},

    the Fourier series of the Wigner d-matrix (Risbo, J. Geodesy 70, 383
    (1996); Feng et al., PRE 92, 043307 (2015)).  The sum is exact in
    integers; each entry is then one rounded division and one rounded square
    root, so no alternating terms cancel in floating point and zeros are exact.
    """
    d = idx.delta
    return _ground_harmonics(idx.total - d, idx.m - d, idx.n - d)


def mode_radial_table(w_abs: np.ndarray, p: np.ndarray, gamma_val: complex, k_delta_r: float) -> np.ndarray:
    """Radial factor ``R_|w|(p)`` (slit prefactor and i-power included) for each |w|, each p.

    Entry ``[k, j]`` is ``R_w`` of the module docstring at ``p[j]`` for
    ``w = w_abs[k]``; shape (len(w_abs), len(p)).
    """
    p = np.asarray(p, dtype=float)
    w_abs = np.asarray(w_abs, dtype=int)
    sig = -np.sqrt(gamma_val * gamma_val + p**2 + 0j)  # the branch of the module docstring
    ratio = np.zeros_like(sig)
    nonzero = p != 0.0
    ratio[nonzero] = 1j * p[nonzero] / (gamma_val + sig[nonzero])
    base = 1.0 / (_TWO_PI_SQRT * k_delta_r) / sig**3
    out = np.empty((w_abs.size, p.size), dtype=complex)
    for k, wa in enumerate(w_abs):
        out[k] = base * (wa * sig + gamma_val) * ratio**wa
    return out


def _check_profile(profile, params: CouplingParams) -> None:
    if profile is None:
        return
    kind = getattr(profile, "kind", None)
    if kind != "exponential" or abs(profile.k_delta_r - params.k_delta_r) > 1e-12 * params.k_delta_r:
        raise UnsupportedProfileError(
            "closed-form kernel is only valid for the exponential slit profile "
            "matching params.k_delta_r; use the quadrature path instead"
        )


def fourier_analytic(
    idx: KernelIndices,
    point: MomentumPoint,
    params: CouplingParams,
    profile=None,
) -> Union[complex, np.ndarray]:
    """Closed-form kernel amplitude at one momentum point or at each point of an array point.

    One point gives a ``complex``; an array point gives a complex array, one
    entry per point, from one ``mode_radial_table`` over all the radii and a
    ``(points, harmonics)`` phase table.  Each entry is summed over the
    contiguous harmonic axis, so it equals the one-point value bit for bit.
    """
    _check_profile(profile, params)
    p_mag, p_ang = np.atleast_1d(point.p_mag, point.p_ang)
    w_values, coeffs = harmonic_coefficients(idx)
    g = gamma(idx.n, params, idx.branch)
    radial = mode_radial_table(np.abs(w_values), p_mag, g, params.k_delta_r)
    phases = np.exp(1j * np.outer(p_ang, w_values))
    values = (coeffs * phases * radial.T).sum(axis=-1)
    return complex(values[0]) if np.ndim(point.p_mag) == 0 else values
