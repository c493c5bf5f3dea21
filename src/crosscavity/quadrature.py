"""Direct 2D quadrature of the momentum-space kernel (validation oracle).

Evaluates the defining polar integral of each kernel amplitude with no use
of the closed form.  The inner integrand factorizes as
``exp(i rho s) exp(-i rho p cos theta)`` with ``s = branch sqrt(n) lam``, and
the Jacobi-Anger expansion ``exp(-i z cos theta) = sum_k (-i)^k J_k(z)
exp(i k theta)`` turns the angle integral into Bessel functions: harmonic
``k`` of the radial table ``R(theta) = Int rho g exp(i rho s) exp(-i rho p cos
theta) drho`` is

    Rf[k] = (-i)^k Int rho g(rho) exp(i rho s) J_k(rho p) drho,

with ``Rf[-k] = Rf[k]`` because ``J_{-k} = (-1)^k J_k``.  Only the harmonics
``|k| <= K`` that a rotation element of degree ``K`` reads are computed, by
Gauss-Legendre panels sized to put >= 8 nodes per oscillation period (Guizar-
Sicairos and Gutierrez-Vega, JOSA A 21, 53 (2004), use the same expansion for
Hankel transforms).  Works for arbitrary slit profiles, not just the
exponential one the closed form requires.

:func:`bessel_j` gives ``J_0..J_K`` with numpy alone: Hankel's asymptotic
P/Q series for ``J_0`` and ``J_1`` plus forward recurrence for ``x >=
max(25, K)`` (Abramowitz and Stegun 9.2.5), Miller's backward recurrence below
(A&S 9.12), written as the continued fraction ``r_k = J_k / J_{k-1} = x / (2k -
x r_{k+1})`` so that nothing overflows, and normalized by ``J_0 + 2 sum_k
J_{2k} = 1``.  The recurrence always starts from the order that serves
``max(25, K)``, whatever the other arguments of the call, so each value
depends on its own argument alone and a batch of rules may share one call.
Arguments are taken in fixed-size chunks, so the recurrence's ratio rows stay
a few MiB whatever the size of the rule.

Each panel count and Gauss-Legendre order keeps its nodes and amplitudes
``w rho g(rho)``.  The error estimate compares the order-24 rule with its
order-12 companion at a few check angles, where ``exp(-i rho c)`` with ``c =
p cos theta - s`` is an edge factor ``exp(-i e_j c)``, which both orders
share, times an offset factor ``exp(-i o_l c)``; each (magnitude, table)
item's panel count doubles until it meets the radial tolerance.  A transform
takes a batch of magnitudes and one or more shifts, one table each, and
refines all its items together: in each attempt the items at one panel count
share their check factors, and each check column is a matrix-vector product
that reads no other column.  The accepted order-24 rule gives the spectrum as
the Bessel rows ``J_k(rho p)`` times ``amp exp(i rho s)``: the distinct
(magnitude, panel count) pairs go in runs, one :func:`bessel_j` call per run,
whose rows serve every table accepted there and are dropped before the next
run is built.  Every item is refined, bounded and evaluated exactly as it
would be alone, so a batch changes no value; the check groups and the Bessel
runs are cut to fit ``MAX_RULE_ENTRIES``.
For the exponential profile the check angles are ``theta = 0`` and ``pi``,
where ``|p cos theta - s|`` is largest and the integrand oscillates fastest;
a tabulated profile, whose kinks leave errors that need not grow with that
frequency, is checked on a half angle grid that resolves its bandwidth.  The
estimate never looks at the harmonics, so the accepted rule does not depend
on how many of them a caller reads.  Harmonics are computed to a reach of
``4 2^j >= K``, and nothing that depends on the momenta outlives a call, so
a value depends only on the call signature, never on evaluation order.

The angle integral of a kernel amplitude is ``(1/2 pi) Int d(theta + phi)
R(theta) dtheta`` with rotation element ``d``, a trigonometric polynomial of
degree ``N = total``; with ``d(theta) = sum_{|k|<=N} dhat_k exp(i k theta)`` it
equals ``sum_k dhat_k exp(i k phi) Rf[-k]``.  :class:`QuadratureOracle` keeps
the ``2N+1`` coefficients ``dhat`` per rotation index, sampled from
``d_coeff`` on ``2N+1`` angles, and each amplitude is one short contraction
with the spectrum of its radial table, which makes full validation batteries
tractable.  Both evaluations take array points and transform each table
they read once over all their distinct magnitudes: ``fourier`` for one
kernel index or a block of them (the validation battery asks once per block
over the block's points), and ``w_density`` for a whole grid, contracting
every angle of a radius in one product.

Two more exact identities serve the density.  Every channel amplitude of
``w_density`` is a fixed linear combination of kernel amplitudes on one
radial table, so its harmonic coefficients combine once per ``(state,
atom)`` into one row of a channel plan; multiplied by the spectra at one
momentum magnitude, the plan gives a channel x harmonic matrix that every
angle of that radius reuses.  And since ``g`` is real and ``cos(theta + pi)
= -cos(theta)``, the minus-branch table is ``R_-(theta) = conj(R_+(theta +
pi))``, whose spectrum is ``Rf_-[k] = (-1)^k conj(Rf_+[k])``, so only
plus-branch tables are transformed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .kernel import KernelIndices, MomentumPoint
from .rotation import d_coeff
from .states import AtomState, CouplingParams, TwoModeState, dressed_channels

_TWO_PI = 2.0 * math.pi

# Largest radial transform, in float64 entries of the arrays it holds at once:
# per node, the Bessel rows J_0..J_reach and _NODE_WORK rows of nodes,
# amplitudes and phases (kept for every panel count tried); per panel and
# check angle, _ANGLE_WORK for the complex edge factors; and the Bessel
# routine's chunk scratch.  2**24 entries take 128 MiB.
MAX_RULE_ENTRIES = 1 << 24
_NODE_WORK = 10
_ANGLE_WORK = 6

# Hankel's expansion serves x >= 25: eight terms of each series reach the
# double-precision floor there.
_HANKEL_X = 25.0
_HANKEL_TERMS = 8

# bessel_j takes its arguments this many at a time: Miller's recurrence keeps
# ~kmax + 60 rows per argument, a few MiB per chunk whatever the rule size.
_BESSEL_CHUNK = 1 << 12


class AccuracyError(RuntimeError):
    """Quadrature failed to meet its tolerance; carries the best estimate."""

    def __init__(self, message: str, estimate=None, error_bound: float = math.inf):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class SlitProfile:
    """Transverse slit density ``g(rho)`` in dimensionless radius ``rho = k r``.

    Normalized so that ``2 pi * Int rho |g|^2 drho = 1``.  ``exponential``
    realizes ``g = exp(-rho / (2 k_delta_r)) / (sqrt(2 pi) k_delta_r)``;
    ``tabulated`` interpolates user samples linearly (isotropic profile).
    """

    kind: str
    k_delta_r: Optional[float] = None
    samples: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None

    @classmethod
    def exponential(cls, k_delta_r: float) -> "SlitProfile":
        if not (math.isfinite(k_delta_r) and k_delta_r > 0):
            raise ValueError(f"k_delta_r must be positive, got {k_delta_r!r}")
        return cls(kind="exponential", k_delta_r=float(k_delta_r))

    @classmethod
    def tabulated(cls, rho, values) -> "SlitProfile":
        rho = np.asarray(rho, dtype=float)
        values = np.asarray(values, dtype=float)
        if rho.ndim != 1 or rho.size < 4 or rho.shape != values.shape:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        if not (np.isfinite(rho).all() and np.isfinite(values).all()):
            raise ValueError("radial and density samples must be finite")
        if rho[0] < 0 or np.any(np.diff(rho) <= 0):
            raise ValueError("radial samples must be non-negative and strictly increasing")
        if np.any(values < 0):
            raise ValueError("density samples must be non-negative")
        mass = _TWO_PI * _linear_profile_mass(rho, values)
        if mass <= 0:
            raise ValueError("tabulated profile carries no mass")
        values = values / math.sqrt(mass)
        return cls(kind="tabulated", samples=(tuple(rho), tuple(values)))

    def density(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.kind == "exponential":
            return np.exp(-rho / (2.0 * self.k_delta_r)) / (math.sqrt(_TWO_PI) * self.k_delta_r)
        grid, vals = self.samples
        return np.interp(rho, grid, vals, left=vals[0], right=0.0)

    def support(self, cutoff_decay_lengths: float) -> float:
        """Radial truncation point for quadrature."""
        if self.kind == "exponential":
            return cutoff_decay_lengths * 2.0 * self.k_delta_r
        return self.samples[0][-1]

    def decay_scale(self) -> float:
        if self.kind == "exponential":
            return 2.0 * self.k_delta_r
        return self.samples[0][-1] / 10.0

    def norm_defect(self, n_panels: int = 96) -> float:
        """|2 pi Int rho |g|^2 drho - 1|, computed numerically."""
        if self.kind == "tabulated":
            grid, vals = self.samples
            mass = _TWO_PI * _linear_profile_mass(np.asarray(grid), np.asarray(vals))
        else:
            nodes, weights = _panel_rule(self.support(60.0), n_panels, 24)
            mass = _TWO_PI * float(np.sum(weights * nodes * self.density(nodes) ** 2))
        return abs(mass - 1.0)

    def describe(self) -> dict:
        if self.kind == "exponential":
            return {"kind": "exponential", "k_delta_r": self.k_delta_r}
        return {"kind": "tabulated", "points": len(self.samples[0])}


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the oracle quadrature (defaults cover the test battery)."""

    radial_rel_tol: float = 1e-9
    radial_cutoff: float = 40.0
    max_radial_refinements: int = 6

    def __post_init__(self):
        for name in ("radial_rel_tol", "radial_cutoff", "max_radial_refinements"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.radial_rel_tol < 100 * np.finfo(float).eps:
            raise ValueError("radial tolerance below 100 * machine epsilon")
        if self.radial_cutoff <= 0 or self.max_radial_refinements < 0:
            raise ValueError("invalid radial rule")


def _linear_profile_mass(rho: np.ndarray, values: np.ndarray) -> float:
    """``Int rho g(rho)^2 drho`` for the linear interpolant of the samples.

    The integrand is piecewise cubic, so per-interval Simpson is exact.
    """
    mid_rho = 0.5 * (rho[:-1] + rho[1:])
    mid_val = 0.5 * (values[:-1] + values[1:])
    h = np.diff(rho)
    f0 = rho[:-1] * values[:-1] ** 2
    fm = mid_rho * mid_val**2
    f1 = rho[1:] * values[1:] ** 2
    return float(np.sum(h / 6.0 * (f0 + 4.0 * fm + f1)))


_GL_ORDERS = (12, 24)


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_parts(rho_max: float, n_panels: int, order: int):
    """Left panel edges, in-panel node offsets and per-panel weights."""
    edges = np.linspace(0.0, rho_max, n_panels + 1)
    h = edges[1] - edges[0]
    x, w = _gauss_nodes(order)
    return edges[:-1], (x + 1.0) * (0.5 * h), w * 0.5 * h


def _panel_rule(rho_max: float, n_panels: int, order: int):
    starts, offsets, w = _panel_parts(rho_max, n_panels, order)
    nodes = (starts[:, None] + offsets[None, :]).ravel()
    weights = np.tile(w, n_panels)
    return nodes, weights


def _hankel_series(nu: int):
    """Coefficients of Hankel's P and Q in powers of ``1/x^2`` (A&S 9.2.9, 9.2.10)."""
    mu = 4.0 * nu * nu
    a = [1.0]
    for k in range(1, 2 * _HANKEL_TERMS):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    return [[(-1) ** j * a[2 * j + odd] for j in range(_HANKEL_TERMS)] for odd in (0, 1)]


# (power of 1/x^2, series P_0 P_1 Q_0 Q_1, broadcast axis)
_HANKEL = np.array([_hankel_series(0), _hankel_series(1)]).transpose(2, 1, 0).reshape(_HANKEL_TERMS, 4, 1)


def _bessel_hankel(kmax: int, x: np.ndarray) -> np.ndarray:
    """``J_0..J_kmax`` for ``x >= max(25, kmax)``: Hankel's ``J_0``, ``J_1``, then forward recurrence.

    ``J_nu = (P cos chi - Q sin chi) sqrt(2 / (pi x))`` with ``chi = x - (2 nu +
    1) pi / 4`` (A&S 9.2.5); ``cos chi`` and ``sin chi`` are taken as sums of
    ``cos x`` and ``sin x`` so that no rounded phase enters.
    """
    inv = 1.0 / x
    y = inv * inv
    series = _HANKEL[-1] * y  # Horner in y for P_0, P_1, Q_0, Q_1 at once
    for coeff in _HANKEL[-2:0:-1]:
        series += coeff
        series *= y
    series += _HANKEL[0]
    p0, p1 = series[:2]
    q0, q1 = series[2:] * inv
    cos, sin = np.cos(x), np.sin(x)
    plus, minus = sin + cos, sin - cos
    scale = 1.0 / np.sqrt(math.pi * x)
    out = np.empty((kmax + 1, x.size))
    out[0] = scale * (p0 * plus - q0 * minus)
    if kmax:
        out[1] = scale * (p1 * minus + q1 * plus)
    for k in range(1, kmax):
        np.multiply(2.0 * k * inv, out[k], out=out[k + 1])
        out[k + 1] -= out[k - 1]
    return out


def _bessel_miller(kmax: int, x: np.ndarray) -> np.ndarray:
    """``J_0..J_kmax`` by Miller's backward recurrence of the ratios ``r_k = J_k / J_{k-1}``.

    ``r_k = x / (2k - x r_{k+1})`` runs down from ``r = 0`` at an order well
    past ``max(25, kmax)``, which bounds every argument this routine serves,
    as ``x r_k = x^2 / (2k - x r_{k+1})``; starting there whatever the
    arguments makes each value a function of its own argument alone.  The
    products ``r_1 ... r_k = J_k / J_0`` stay below ``1 / |J_0|``, and ``1 = J_0 (1 + 2
    sum_m J_{2m} / J_0)`` fixes ``J_0``.  A denominator that rounds to exactly
    zero (``x`` within an ulp of a zero of ``J_{k-1}``) leaves an infinite
    ratio; those ``x`` are moved by one ulp.
    """
    start = _miller_start(max(float(kmax), _HANKEL_X))
    ratios = np.zeros((start + 2, x.size))  # row k holds x r_k, then r_k; row start + 1 stays 0
    square = x * x
    den = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(start, 0, -1):
            np.subtract(2.0 * k, ratios[k + 1], out=den)
            np.divide(square, den, out=ratios[k])
        np.divide(ratios, x, out=ratios, where=x > 0.0)
        ratios[0] = 1.0
        np.cumprod(ratios, axis=0, out=ratios)
        norm = 1.0 + 2.0 * ratios[2::2].sum(axis=0)
    out = ratios[: kmax + 1] / norm
    bad = ~np.isfinite(norm)
    if bad.any():
        out[:, bad] = _bessel_miller(kmax, np.nextafter(x[bad], np.inf))
    return out


def bessel_j(kmax: int, x) -> np.ndarray:
    """Bessel functions ``J_0(x) .. J_kmax(x)`` of ``x >= 0``, shape ``(kmax + 1, x.size)``.

    Hankel's expansion with forward recurrence where ``x >= max(25, kmax)``,
    Miller's backward recurrence below (module docstring).  Arguments are
    taken ``_BESSEL_CHUNK`` at a time, so the work arrays besides the result
    never exceed :func:`_bessel_scratch` entries.  Absolute error against a
    reference implementation is below 1e-15 for ``kmax <= 12`` and ~1e-14 at
    ``kmax = 32`` (tested up to ``x = 2000``).
    """
    x = np.ravel(np.asarray(x, dtype=float))
    out = np.empty((kmax + 1, x.size))
    for lo in range(0, x.size, _BESSEL_CHUNK):
        part = x[lo : lo + _BESSEL_CHUNK]
        block = out[:, lo : lo + _BESSEL_CHUNK]
        near = part < max(_HANKEL_X, kmax)
        if near.any():
            block[:, near] = _bessel_miller(kmax, part[near])
        if not near.all():
            block[:, ~near] = _bessel_hankel(kmax, part[~near])
    return out


def _miller_start(top: float) -> int:
    """Even order, well past ``top``, from which Miller's recurrence runs down."""
    return 2 * int(0.5 * (top + 4.0 * math.sqrt(top) + 16.0)) + 2


def _bessel_scratch(kmax: int, size: int) -> int:
    """Most float64 entries that :func:`bessel_j` holds besides its result.

    Miller's ratio rows and result plus a few argument-sized rows, for the
    largest chunk (Hankel's work, ``kmax + 15`` rows, is smaller).
    """
    rows = _miller_start(max(_HANKEL_X, kmax)) + 2 + (kmax + 1) + 6
    return rows * min(size, _BESSEL_CHUNK)


def _reach(k: int) -> int:
    """Harmonic reach ``4 2^j >= k`` that serves a rotation degree ``k``."""
    reach = 4
    while reach < k:
        reach *= 2
    return reach


@lru_cache(maxsize=16)
def _minus_sign(reach: int) -> np.ndarray:
    """``(-1)^k`` on ``k = -reach..reach``: ``Rf_-[k] = (-1)^k conj(Rf_+[k])``."""
    sign = np.where(np.arange(-reach, reach + 1) % 2, -1.0, 1.0)
    sign.flags.writeable = False
    return sign


def _rule_entries(n_panels: int, order: int, reach: int, n_angles: int, count: int = 1) -> int:
    """Float64 entries that the radial rules of ``count`` items hold, besides the Bessel scratch.

    Per node of each item, the Bessel rows ``J_0..J_reach`` and
    ``_NODE_WORK`` work rows; per panel and check angle (``n_angles`` over all
    the items), ``_ANGLE_WORK`` for the complex edge factors.
    """
    return count * n_panels * order * (reach + 1 + _NODE_WORK) + n_panels * n_angles * _ANGLE_WORK


def _fitting_runs(entries, nodes, reach: int):
    """Split items into consecutive runs that fit ``MAX_RULE_ENTRIES``.

    A run holds its items' ``entries`` plus the Bessel scratch of their
    ``nodes``; an item that does not fit alone forms a run of its own (and is
    refused where its rule is built).
    """
    runs, start, held, count = [], 0, 0, 0
    for i, (size, n) in enumerate(zip(entries, nodes)):
        if i > start and held + size + _bessel_scratch(reach, count + n) > MAX_RULE_ENTRIES:
            runs.append(slice(start, i))
            start, held, count = i, 0, 0
        held += size
        count += n
    if len(entries):
        runs.append(slice(start, len(entries)))
    return runs


def _by_magnitude(p_mag: np.ndarray):
    """``(mags, members, counts)``: the distinct values of ``p_mag`` in order of first appearance.

    ``members`` lists the indices of the points at ``mags[0]``, then at
    ``mags[1]`` and so on, ``counts[j]`` of them at ``mags[j]``, each group in
    ascending order.
    """
    mags, first, inverse, counts = np.unique(p_mag, return_index=True, return_inverse=True, return_counts=True)
    ranked = np.argsort(first)
    members = np.argsort(np.argsort(ranked)[inverse], kind="stable")
    return mags[ranked].tolist(), members, counts[ranked]


class QuadratureOracle:
    """Batch evaluator for the direct-quadrature kernel.

    ``fourier`` and ``w_density`` take one point or an array point, and
    ``fourier`` one kernel index or a sequence of them.  Each call reads the
    spectra of its radial tables from one :meth:`_radial_spectra` call per
    harmonic reach, which transforms each plus-branch table once over the
    call's distinct magnitudes (the minus-branch spectrum is the plus-branch
    one conjugated, ``Rf_-[k] = (-1)^k conj(Rf_+[k])``).  Nothing that
    depends on the momenta outlives a call: the oracle keeps only the panel
    rules by (panel count, order) and the Fourier coefficients of each
    rotation element by (total, m, n).
    """

    def __init__(
        self,
        params: CouplingParams,
        profile: Optional[SlitProfile] = None,
        quad: Optional[QuadratureSpec] = None,
    ):
        self.params = params
        self.profile = profile if profile is not None else SlitProfile.exponential(params.k_delta_r)
        self.quad = quad if quad is not None else QuadratureSpec()
        self._rho_max = self.profile.support(self.quad.radial_cutoff)
        rho = np.linspace(0.0, self._rho_max, 4001)
        # absolute scale for radial tolerances: total amplitude mass
        self._mass = float(np.trapezoid(rho * self.profile.density(rho), rho))
        self._harmonics: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._panel_cache: Dict[Tuple[int, int], tuple] = {}

    # -- radial rules ----------------------------------------------------

    def _panels_for(self, c_max: float) -> int:
        base_len = min(
            2.0 * self.profile.decay_scale(),
            3.0 * _TWO_PI / max(c_max, 1e-12),
            self._rho_max,
        )
        needed = max(4, math.ceil(self._rho_max / base_len))
        return 1 << max(3, (needed - 1).bit_length())

    def _check_angles(self, p_mag: float) -> np.ndarray:
        """Angles at which the companion rules are compared.

        For the exponential profile, ``theta = 0`` and ``pi``: the error grows
        with the frequency ``|p cos theta - shift|``, largest there.  A
        tabulated profile is the linear interpolant of its samples, whose kinks
        leave panel errors that do not grow with the frequency and can add up
        in phase at any angle, so it is checked on the half of a uniform angle
        grid fine enough for the table's bandwidth (harmonics up to ``p
        rho``, for radii inside ~30 decay lengths).
        """
        if self.profile.kind == "exponential":
            return np.array([0.0, math.pi])
        reach = min(self._rho_max, 30.0 * self.profile.decay_scale())
        n_theta = max(512, int(math.ceil((1.05 * p_mag * reach + 64.0) / 2.0)) * 2)
        return np.arange(n_theta // 2 + 1) * (_TWO_PI / n_theta)

    def _panels(self, n_panels: int, order: int):
        """``(nodes, amp, starts, offsets)`` of one panel rule; ``amp = w rho g(rho)``.

        Each node is a panel start plus an in-panel offset, ``rho = e_j + o_l``.
        None of this depends on the momentum, so it is kept for every rule.
        """
        hit = self._panel_cache.get((n_panels, order))
        if hit is None:
            starts, offsets, _ = _panel_parts(self._rho_max, n_panels, order)
            nodes, weights = _panel_rule(self._rho_max, n_panels, order)
            amp = weights * nodes * self.profile.density(nodes)
            hit = self._panel_cache[n_panels, order] = (nodes, amp, starts, offsets)
        return hit

    def _rule(self, items, n_panels: int, reach: int):
        """``(edge, offsets)``: check factors of the radial rules of ``items = [(p, shift)]`` at one panel count.

        ``exp(-i rho c)`` at the check columns ``c = p cos theta - shift`` of
        every item, side by side in order, is the ``(P, columns)`` edge factor
        ``exp(-i e_j c)`` times an ``(L, columns)`` offset factor ``exp(-i o_l
        c)``, one per order of ``_GL_ORDERS``: the orders share the panel
        edges, so one edge factor serves both.  A group whose rules would hold
        more than ``MAX_RULE_ENTRIES`` entries (:func:`_rule_entries` plus the
        Bessel scratch, at the higher order) raises ``AccuracyError`` before
        anything is allocated.
        """
        order = _GL_ORDERS[-1]
        columns = np.concatenate([p * np.cos(self._check_angles(p)) - s for p, s in items])
        entries = _rule_entries(n_panels, order, reach, columns.size, len(items))
        entries += _bessel_scratch(reach, len(items) * n_panels * order)
        if entries > MAX_RULE_ENTRIES:
            raise AccuracyError(
                f"radial rule of {n_panels} panels x {order} nodes, {reach + 1} Bessel rows and "
                f"{columns.size} check angles at p = {items[0][0]:.6g} exceeds {MAX_RULE_ENTRIES} rule entries"
            )
        offsets = [np.exp(-1j * np.outer(self._panels(n_panels, o)[3], columns)) for o in _GL_ORDERS]
        return np.exp(-1j * np.outer(self._panels(n_panels, order)[2], columns)), offsets

    def _radial_transform(self, p_mag, shift, reach: int):
        """Harmonics ``k = -reach..reach`` of ``R(theta) = Int rho g exp(-i rho [p cos theta - shift]) drho``.

        ``p_mag`` is one magnitude or an array of them, and ``shift`` one
        shift or a sequence of them, one table each.  Returns the spectra and
        the companion-rule error bounds over the check angles
        (:meth:`_check_angles`): one row per magnitude, then, for a sequence
        of shifts, one per table.  :meth:`_refine` gives every (magnitude,
        table) item its panel count, and the order-24 rule of that count
        gives its spectrum, as the result or the estimate.  The distinct
        (magnitude, panel count) pairs go in consecutive runs that fit
        ``MAX_RULE_ENTRIES``, one :func:`bessel_j` call per run; a run's rows
        serve every table accepted at its pairs and are dropped before the
        next run is built.  Each value depends on its own argument alone.
        """
        mags = np.ravel(p_mag).tolist()
        shifts = np.ravel(shift).tolist()
        order = _GL_ORDERS[-1]
        panels, errs = self._refine(mags, shifts, reach)
        items: Dict[Tuple[float, int], list] = {}  # (magnitude, panel count): its (magnitude, table) items
        for (i, s), n_panels in np.ndenumerate(panels):
            items.setdefault((mags[i], int(n_panels)), []).append((i, s))
        need = list(items)
        counts = [n * order for _, n in need]
        spectra = np.empty((len(mags), len(shifts), 2 * reach + 1), dtype=complex)
        for run in _fitting_runs([_rule_entries(n, order, reach, 0) for _, n in need], counts, reach):
            found = bessel_j(reach, np.concatenate([p * self._panels(n, order)[0] for p, n in need[run]]))
            weighted = {}  # (panel count, table): amp exp(i rho s), as (real, imag) columns
            for (p, n_panels), rows in zip(need[run], np.split(found, np.cumsum(counts[run])[:-1], axis=1)):
                for i, s in items[p, n_panels]:
                    rule = weighted.get((n_panels, s))
                    if rule is None:
                        _, amp, starts, offsets = self._panels(n_panels, order)
                        # exp(i rho s) = exp(i e_j s) exp(i o_l s)
                        phase = np.exp(1j * shifts[s] * starts)[:, None] * np.exp(1j * shifts[s] * offsets)
                        rule = weighted[n_panels, s] = (amp.reshape(n_panels, order) * phase).view(float).reshape(-1, 2)
                    half = rows @ rule
                    spectra[i, s, reach:] = (half[:, 0] + 1j * half[:, 1]) * (-1j) ** np.arange(reach + 1)
        spectra[..., :reach] = spectra[..., : reach : -1]  # Rf[-k] = Rf[k]
        if np.ndim(shift) == 0:
            spectra, errs = spectra[:, 0], errs[:, 0]
        if np.ndim(p_mag) == 0:
            return spectra[0], errs[0]
        return spectra, errs

    def _refine(self, mags, shifts, reach: int):
        """``(panels, errs)``, each ``(magnitude, table)``: every item's accepted panel count and error bound.

        Each (magnitude, shift) item starts at the panel count for ``p +
        |shift|`` and doubles until its companion rules agree.  In each
        attempt the items at one panel count, whatever their table, share
        their check factors (:meth:`_rule`), in consecutive groups that fit
        ``MAX_RULE_ENTRIES``.  Per order, each check column is one
        matrix-vector product of the amplitudes ``w rho g(rho)`` with its
        offset factor, then a sum over the panel edges; no column reads
        another, so an item's bound is the one it gets alone.
        """
        tol = self.quad.radial_rel_tol * self._mass
        order = _GL_ORDERS[-1]
        n_angles = [self._check_angles(p).size for p in mags]
        panels = np.array([[self._panels_for(p + abs(s)) for s in shifts] for p in mags], dtype=int)
        panels = panels.reshape(len(mags), len(shifts))
        errs = np.full(panels.shape, math.inf)
        todo = list(np.ndindex(panels.shape))
        for attempt in range(self.quad.max_radial_refinements + 1):
            at_count: Dict[int, list] = {}
            for item in todo:
                if attempt:
                    panels[item] *= 2
                at_count.setdefault(int(panels[item]), []).append(item)
            for n_panels, members in at_count.items():
                sizes = [_rule_entries(n_panels, order, reach, n_angles[i]) for i, _ in members]
                for run in _fitting_runs(sizes, [n_panels * order] * len(members), reach):
                    group = members[run]
                    edge, offsets = self._rule([(mags[i], shifts[s]) for i, s in group], n_panels, reach)
                    amps = [self._panels(n_panels, o)[1].reshape(n_panels, o) for o in _GL_ORDERS]
                    low, high = (
                        np.einsum("jt,tj->t", edge, np.matmul(amp, offset.T[:, :, None])[..., 0])
                        for amp, offset in zip(amps, offsets)
                    )
                    firsts = np.cumsum([0] + [n_angles[i] for i, _ in group[:-1]])
                    errs[tuple(zip(*group))] = np.maximum.reduceat(np.abs(high - low), firsts)
            todo = [item for item in todo if not errs[item] <= tol]
            if not todo:
                break
        return panels, errs

    def _radial_spectra(self, p_mag, keys, reach: int) -> np.ndarray:
        """Spectra ``(magnitude, table, k = -reach..reach)`` of the radial tables ``keys = [(n, branch)]``.

        One :meth:`_radial_transform` call over the magnitudes and every
        plus-branch shift; the minus branch is ``(-1)^k conj(Rf_+[k])``
        (module docstring), with no transform of its own.  A table that
        misses the radial tolerance raises ``AccuracyError`` for the first
        failing magnitude in ``p_mag`` order (and its first failing table in
        ``keys`` order), carrying that plus-branch spectrum as the estimate.
        """
        tol = self.quad.radial_rel_tol * self._mass
        plus_n = list(dict.fromkeys(n for n, _ in keys))
        shifts = [math.sqrt(n) * self.params.lam for n in plus_n]
        plus, errs = self._radial_transform(list(p_mag), shifts, reach)
        failing = np.argwhere(errs > tol)
        if failing.size:
            i, s = failing[0]
            raise AccuracyError(
                f"radial quadrature stuck at error {errs[i, s]:.3e} (tolerance {tol:.3e})",
                estimate=plus[i, s],
                error_bound=float(errs[i, s]),
            )
        out = np.empty((len(plus), len(keys), 2 * reach + 1), dtype=complex)
        for t, (n, branch) in enumerate(keys):
            spectra = plus[:, plus_n.index(n)]
            out[:, t] = spectra if branch > 0 or n == 0 else _minus_sign(reach) * np.conj(spectra)
        return out

    def _rotation_harmonics(self, total: int, m: int, n: int):
        """``(k, dhat)``: Fourier coefficients of ``d_coeff`` for ``k = -total..total``.

        The element has angular degree <= total, so the DFT of ``2 total + 1``
        uniform samples gives its coefficients exactly.
        """
        key = (total, m, n)
        hit = self._harmonics.get(key)
        if hit is None:
            size = 2 * total + 1
            samples = d_coeff(total, m, n, np.arange(size) * (_TWO_PI / size))
            dhat = np.fft.fftshift(np.fft.fft(samples)) / size
            hit = self._harmonics[key] = (np.arange(-total, total + 1), dhat)
        return hit

    # -- public evaluations ---------------------------------------------

    def fourier(
        self,
        idx: Union[KernelIndices, Sequence[KernelIndices]],
        point: MomentumPoint,
    ) -> Union[complex, np.ndarray]:
        """Kernel amplitudes of one index or a block of them, at one momentum point or at each of an array point.

        One :class:`KernelIndices` and one point give a ``complex``; one index
        and an array point give a complex array in point order, a sequence of
        indices and one point one in index order, and a sequence of indices
        and an array point an ``(index, point)`` array.  The radial tables
        the indices read are grouped per harmonic reach, in order of first
        use, and each group's spectra come from one :meth:`_radial_spectra`
        call over the points' distinct magnitudes.
        Each index's amplitude at point ``j`` is then row ``j`` of ``exp(i
        outer(p_ang, k)) spec dhat`` summed over ``k``, which reads no other
        row, so an array point gives the one-point values bit for bit.

        Every table is transformed before any amplitude is read, so a table
        that misses the radial tolerance raises for the first failing point,
        then its first failing table, in the first reach that fails.  For a
        validation block in ``_tuple_set`` order that is what one-point calls
        in point-major order raise first: the ground indices of a block of
        total ``N`` read every table ``n = 0..N``, at the reach of ``N`` and
        in ascending ``n``, before any excited index reads its subset ``n =
        1..N`` at a reach no higher; a table's error bound depends on neither
        reach nor branch, so the first reach finds the failure if there is
        one.
        """
        indices = [idx] if isinstance(idx, KernelIndices) else list(idx)
        p_mag, p_ang = np.atleast_1d(point.p_mag, point.p_ang)
        mags, members, counts = _by_magnitude(p_mag)
        p_ang = p_ang[members]
        tables: Dict[int, dict] = {}
        for i in indices:
            tables.setdefault(_reach(i.total - i.delta), {})[i.n, i.branch] = None
        spectra = {}
        for reach, keys in tables.items():
            found = self._radial_spectra(mags, list(keys), reach)
            spectra.update(((reach, key), np.repeat(found[:, t], counts, axis=0)) for t, key in enumerate(keys))
        out = np.empty((len(indices), p_mag.size), dtype=complex)
        for row, i in enumerate(indices):
            d = i.delta
            top = i.total - d
            k, dhat = self._rotation_harmonics(top, i.m - d, i.n - d)
            reach = _reach(top)
            # the spectrum is even in k, so its slice on -top..top is Rf[-k]
            spec = spectra[reach, (i.n, i.branch)][:, reach - top : reach + top + 1]
            out[row, members] = (np.exp(1j * np.outer(p_ang, k)) * spec * dhat).sum(axis=-1)
        if np.ndim(point.p_mag) == 0:
            out = out[:, 0]
        if isinstance(idx, KernelIndices):
            out = out[0]
        return complex(out) if out.ndim == 0 else out

    def w_density(self, state: TwoModeState, atom: AtomState, point: MomentumPoint) -> Union[float, np.ndarray]:
        """Momentum density assembled from numeric kernels (oracle route).

        ``point`` is one point, giving a float, or an array point, giving an
        array in point order.  One :meth:`_radial_spectra` call gives the
        spectra of every table of the channel plan of ``(state, atom)`` at the
        points' distinct magnitudes; then, per magnitude, the plan times the
        spectra is a channel x harmonic matrix that ``exp(i k p_ang)``
        contracts at every angle of that radius.
        """
        p_mag, p_ang = np.atleast_1d(point.p_mag, point.p_ang)
        out = np.zeros(p_mag.size)
        keys, rows, coeffs, weights, k = self._channel_plan(state, atom)
        if keys and p_mag.size:
            top = k[-1]
            reach = _reach(top)
            mags, members, counts = _by_magnitude(p_mag)
            spectra = self._radial_spectra(mags, keys, reach)[:, :, reach - top : reach + top + 1]
            for at, spectrum in zip(np.split(members, np.cumsum(counts)[:-1]), spectra):
                amps = (coeffs * spectrum[rows]) @ np.exp(1j * np.outer(k, p_ang[at]))
                out[at] = weights @ (np.abs(amps) ** 2)
        return float(out[0]) if np.ndim(point.p_mag) == 0 else out

    def _channel_plan(self, state: TwoModeState, atom: AtomState):
        """``(keys, rows, coeffs, weights, k)``: the channel sum of ``w_density``.

        The channels are those of :func:`~crosscavity.states.dressed_channels`.
        Every channel amplitude is a sum of kernel amplitudes over one radial
        table ``(n, branch)``, so it is one row ``coeffs[ch]`` of rotation
        harmonics on ``k = -K..K`` (``K`` the largest block total, the highest
        rotation degree), zero-padded, contracted with that table's spectrum.
        Row ``ch`` reads the spectrum ``keys[rows[ch]]`` and adds
        ``weights[ch] |amp|^2`` to the density.
        """
        top = state.max_total
        channels = dressed_channels([state], atom, self._rotation_harmonics)
        keys = list(dict.fromkeys((n, branch) for n, branch, _, _ in channels))
        rows = np.array([keys.index((n, branch)) for n, branch, _, _ in channels], dtype=int)
        coeffs = np.array([chi[0] for _, _, _, chi in channels])
        weights = np.array([weight for _, _, weight, _ in channels])
        return keys, rows, coeffs, weights, np.arange(-top, top + 1)


def fourier_numeric(
    idx: KernelIndices,
    point: MomentumPoint,
    params: CouplingParams,
    profile: Optional[SlitProfile] = None,
    quad: Optional[QuadratureSpec] = None,
) -> Union[complex, np.ndarray]:
    """Kernel amplitude by direct 2D quadrature of the defining integral, at one point or an array point."""
    return QuadratureOracle(params, profile, quad).fourier(idx, point)


def w_numeric(
    state: TwoModeState,
    atom: AtomState,
    point: MomentumPoint,
    params: CouplingParams,
    profile: Optional[SlitProfile] = None,
    quad: Optional[QuadratureSpec] = None,
) -> Union[float, np.ndarray]:
    """Momentum density, at one point or an array point, with all kernels evaluated numerically."""
    return QuadratureOracle(params, profile, quad).w_density(state, atom, point)
