"""Closed-form momentum-space kernel for an exponential slit profile.

Each dressed channel of the deflected atom contributes a two-dimensional
Fourier amplitude

    F(p, phi) = (1/2pi) Int dtheta Int drho  rho g(rho) D(theta)
                exp(-i rho [p cos(theta - phi) -+ sqrt(n) lam])

with ``g`` the dimensionless slit density, ``D`` a block-rotation matrix
element (a trigonometric polynomial in theta) and the -+ sign selecting the
dressed branch.  For the exponential profile the radial integral is a
rational function of ``cos(theta)`` and the angular integral closes by
residues, giving the finite triple sum evaluated here: a per-harmonic
coefficient (``r_factor``, angle-independent) times a radial shape factor
(``s_factor``) times the phase ``(i e^{i phi})^w``.

Branch convention
-----------------
The square root ``(p^2 + gamma^2)^(1/2)`` appearing in ``s_factor`` must be
taken as ``sigma = -sqrt_principal(gamma^2 + p^2)``.  With ``Re gamma < 0``
this is the branch reached by continuity in ``p`` starting from
``sigma = gamma`` at ``p = 0``; it is also the unique choice that keeps the
geometric ratio ``p / (gamma + sigma)`` inside the unit disk, which the
residue derivation requires.  The principal branch flips the sign of odd
powers of sigma and grows the ratio past 1; the quadrature oracle battery
confirms the convention used here on both branches and all channels.

``0**0`` in the final ratio power (p = 0 with harmonic index 0) is 1.

The production path groups the triple sum by angular harmonic once per
kernel index (exact rational accumulation, so the alternating binomial sums
cost no precision even for large blocks) and reuses the resulting table for
every grid point; only ``s_factor`` and the phase depend on the point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .rotation import dbar
from .states import SUPPORT_CAP, CouplingParams

_TWO_PI_SQRT = math.sqrt(2.0 * math.pi)
_FACT = [math.factorial(k) for k in range(2 * SUPPORT_CAP + 4)]


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
    """Dimensionless momentum magnitude >= 0 and angle wrapped to [0, 2pi)."""

    p_mag: float
    p_ang: float

    def __post_init__(self):
        p = float(self.p_mag)
        if not (math.isfinite(p) and p >= 0.0):
            raise ValueError(f"momentum magnitude must be >= 0, got {self.p_mag!r}")
        phi = float(self.p_ang)
        if not math.isfinite(phi):
            raise ValueError(f"momentum angle must be finite, got {self.p_ang!r}")
        object.__setattr__(self, "p_mag", p)
        object.__setattr__(self, "p_ang", phi % (2.0 * math.pi))


def gamma(n: int, params: CouplingParams, branch: int) -> complex:
    """Complex pole ``-1/(2 k_delta_r) +- i sqrt(n) lam`` of the radial integral."""
    if n < 0:
        raise ValueError(f"ladder index must be >= 0, got {n}")
    if branch not in (1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    if params.k_delta_r <= 0.0:
        raise ValueError("k_delta_r must be positive")
    return complex(-0.5 / params.k_delta_r, branch * math.sqrt(n) * params.lam)


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


def _sigma(gamma_val: complex, p):
    """Square-root branch used throughout: -principal sqrt(gamma^2 + p^2)."""
    return -np.sqrt(gamma_val * gamma_val + np.asarray(p, dtype=float) ** 2 + 0j)


def s_factor(idx: KernelIndices, s: int, t: int, p_mag: float, params: CouplingParams) -> complex:
    """Radial shape factor of one kernel term at momentum magnitude ``p_mag``."""
    d = idx.delta
    w = 2 * (s + t) - idx.total + d
    g = gamma(idx.n, params, idx.branch)
    sig = complex(_sigma(g, p_mag))
    ratio = 0.0j if p_mag == 0.0 else p_mag / (g + sig)
    ratio_pow = 1.0 + 0j if abs(w) == 0 else ratio ** abs(w)
    sign = -1.0 if upsilon(w) else 1.0
    return sign / (_TWO_PI_SQRT * params.k_delta_r) * (abs(w) * sig + g) / sig**3 * ratio_pow


_HARMONIC_CACHE: Dict[Tuple[int, int, int, str], Tuple[np.ndarray, np.ndarray]] = {}


def harmonic_coefficients(idx: KernelIndices) -> Tuple[np.ndarray, np.ndarray]:
    """Triple sum grouped by angular harmonic w = 2(s+t) - N + delta.

    Returns ``(w_values, coefficients)`` where ``coefficients[k]`` is the sum
    of all ``r_factor`` terms whose phase index equals ``w_values[k]``.  The
    rational part of every term is accumulated exactly (Fraction arithmetic);
    a single irrational prefactor and the i-power are applied at the end, so
    no cancellation between alternating binomial terms is ever committed to
    floating point.  Results are equivalently ``(1/2pi) Int D(theta)
    exp(-i w theta) dtheta``, the Fourier coefficients of the rotation
    element attached to ``idx``.
    """
    key = (idx.total, idx.m, idx.n, idx.epsilon)
    hit = _HARMONIC_CACHE.get(key)
    if hit is not None:
        return hit

    d = idx.delta
    N, m, n = idx.total, idx.m, idx.n
    mp, np_, Np = m - d, n - d, N - d
    acc: Dict[int, Fraction] = {}
    for ell in range(max(0, m + n - N - d), min(mp, np_) + 1):
        u = m + n - 2 * ell
        fr_ell = Fraction(
            1, _FACT[ell] * _FACT[mp - ell] * _FACT[np_ - ell] * _FACT[Np - mp - np_ + ell]
        )
        for s in range(0, N - u + d + 1):
            comb_s = math.comb(N - u + d, s)
            for t in range(0, u - 2 * d + 1):
                w = 2 * (s + t) - N + d
                term = comb_s * math.comb(u - 2 * d, t) * fr_ell
                if (n + t + d) % 2:
                    term = -term
                acc[w] = acc.get(w, Fraction(0)) + term

    prefactor = math.sqrt(float(Fraction(_FACT[mp] * _FACT[np_] * _FACT[Np - mp] * _FACT[Np - np_])))
    phase = (1j) ** ((2 * d - m - n) % 4)
    scale = Fraction(1, 2 ** (N - d))
    w_values = np.array(sorted(acc), dtype=int)
    coeffs = np.array(
        [phase * prefactor * float(acc[w] * scale) for w in w_values], dtype=complex
    )
    result = (w_values, coeffs)
    result[0].flags.writeable = False
    result[1].flags.writeable = False
    _HARMONIC_CACHE[key] = result
    return result


def mode_radial_table(w_abs: np.ndarray, p: np.ndarray, gamma_val: complex, k_delta_r: float) -> np.ndarray:
    """Radial factor (including slit prefactor and i-power) for each |w|, each p.

    Entry ``[k, j]`` equals ``(i e^{i phi})^w S`` at ``p[j]`` stripped of the
    ``e^{i w phi}`` angle factor, for ``w_abs[k]``; shape (len(w_abs), len(p)).
    """
    p = np.asarray(p, dtype=float)
    w_abs = np.asarray(w_abs, dtype=int)
    sig = _sigma(gamma_val, p)
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
    idx: KernelIndices, point: MomentumPoint, params: CouplingParams, profile=None
) -> complex:
    """Closed-form kernel amplitude at one momentum point (cached-harmonic path)."""
    _check_profile(profile, params)
    w_values, coeffs = harmonic_coefficients(idx)
    g = gamma(idx.n, params, idx.branch)
    radial = mode_radial_table(np.abs(w_values), np.array([point.p_mag]), g, params.k_delta_r)[:, 0]
    phases = np.exp(1j * w_values * point.p_ang)
    return complex(np.sum(coeffs * phases * radial))


def fourier_analytic_direct(
    idx: KernelIndices, point: MomentumPoint, params: CouplingParams
) -> complex:
    """Literal term-by-term triple sum; every (ell, s, t) term is evaluated.

    Validation-mode twin of :func:`fourier_analytic`; no grouping, no caching,
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
