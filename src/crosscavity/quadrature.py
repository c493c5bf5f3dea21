"""Direct 2D quadrature of the momentum-space kernel (validation oracle).

Evaluates the defining polar integral of each kernel amplitude with no use
of the closed form: the angle integral by a uniform trapezoid rule
(spectrally accurate for smooth periodic integrands, with the node count
raised automatically to cover the ``exp(-i rho p cos theta)`` bandwidth),
the radial integral by Gauss-Legendre panels sized to put >= 8 nodes per
oscillation period, with a lower-order companion rule supplying an error
estimate and panel doubling on failure.  Works for arbitrary slit profiles,
not just the exponential one the closed form requires.

The inner integrand factorizes as ``exp(-i rho p cos theta) exp(i rho s)``
with ``s = branch sqrt(n) lam``, so the ``exp(-i rho c)`` factors, with
``c = p cos theta``, built once per momentum magnitude serve every dressed
channel.  Each Gauss-Legendre node is a panel edge plus an in-panel offset,
``rho = e_j + o_l``, so those factors are never formed node by node: a
P-panel, L-node rule keeps the edge factor ``exp(-i e_j c)`` (P rows) and the
offset factor ``exp(-i o_l c)`` (L rows), and one transform is a matrix
product with the offset factor followed by an edge-weighted column sum.

The angle integral is the trapezoid sum ``(1/T) sum_t d(theta_t + phi) R_t``
with ``theta_t = 2 pi t / T``, rotation element ``d`` and radial table ``R``.
``d`` is a trigonometric polynomial of degree ``N <= total < T``, so with
``d(theta) = sum_{|k|<=N} dhat_k exp(i k theta)`` and ``Rf = fft(R) / T`` the
sum equals ``sum_k dhat_k exp(i k phi) Rf[-k mod T]`` exactly, whatever ``R``
holds.  :class:`QuadratureOracle` therefore keeps ``Rf`` per radial table and
the ``2N+1`` coefficients ``dhat`` per rotation index, sampled from
``d_coeff`` on ``2N+1`` angles, and each amplitude is one short contraction,
which makes full validation batteries tractable.

Two more exact identities serve the density.  Every channel amplitude of
``w_density`` is a fixed linear combination of kernel amplitudes on one
radial table, so its harmonic coefficients combine once per ``(state,
atom)`` into one row of a channel plan, and each momentum point is one
contraction of that plan with the radial spectra.  And since ``g`` is real
and ``cos(theta + pi) = -cos(theta)``, the minus-branch table is
``R_-(theta) = conj(R_+(theta + pi))``; on the even angle grid its spectrum is
``Rf_-[k] = (-1)^k conj(Rf_+[-k])``, so only plus-branch tables are
transformed.  Results depend only on the call signature, never on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .kernel import KernelIndices, MomentumPoint
from .rotation import d_coeff
from .states import AtomState, CouplingParams, TwoModeState, dressed_totals

_TWO_PI = 2.0 * math.pi

# Largest edge factor ``exp(-i e_j c)`` (panels x half-grid angles) one radial
# rule may hold: 2**24 complex entries, 256 MiB.  The test suite's largest rule
# has 3.9e6 entries (1024 panels x 7624 angles at lam = 100, p = 400).
MAX_RULE_ENTRIES = 1 << 24


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

    angular_points: int = 512
    radial_rel_tol: float = 1e-9
    radial_cutoff: float = 40.0
    max_radial_refinements: int = 6

    def __post_init__(self):
        for name in ("angular_points", "radial_rel_tol", "radial_cutoff", "max_radial_refinements"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.angular_points < 64 or self.angular_points % 2:
            raise ValueError("angular_points must be even and >= 64")
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


class QuadratureOracle:
    """Batch evaluator for the direct-quadrature kernel.

    Caches the spectra of the radial tables by (p_mag, n, branch), the
    Fourier coefficients of each rotation element by (total, m, n) and, per
    momentum magnitude, the panel-edge and in-panel-offset exponential
    factors, sharing them across kernel indices and momentum angles.  Only
    plus-branch tables are transformed: the minus-branch spectrum is the
    plus-branch one conjugated, ``Rf_-[k] = (-1)^k conj(Rf_+[-k])``.
    ``w_density`` keeps the channel plan of the last ``(state, atom)``: per
    channel, the rotation harmonics of its kernel amplitudes summed with the
    state and atom coefficients, so one point is one contraction.
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
        self._radial: Dict[Tuple[float, int, int], np.ndarray] = {}
        self._harmonics: Dict[Tuple[int, int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._exp_cache: Dict[Tuple[float, int, int], tuple] = {}
        self._edge_cache: Dict[int, np.ndarray] = {}
        self._exp_cache_p: Optional[float] = None
        self._plan = None

    # -- geometry ------------------------------------------------------

    def angular_points(self, p_mag: float) -> int:
        """Trapezoid node count covering the oscillation bandwidth at p_mag.

        The angle spectrum of ``exp(-i rho p cos theta)`` at radius rho is
        Bessel-like, negligible beyond harmonic ``rho p``; the envelope kills
        radii beyond ~30 decay lengths, so nodes are budgeted on that reach.
        """
        reach = min(self._rho_max, 30.0 * self.profile.decay_scale())
        need = int(math.ceil((1.05 * p_mag * reach + 64.0) / 2.0)) * 2
        return max(self.quad.angular_points, need)

    def _panels_for(self, c_max: float) -> int:
        base_len = min(
            2.0 * self.profile.decay_scale(),
            3.0 * _TWO_PI / max(c_max, 1e-12),
            self._rho_max,
        )
        needed = max(4, math.ceil(self._rho_max / base_len))
        return 1 << max(3, (needed - 1).bit_length())

    # -- shared exponential factors --------------------------------------

    def _exp_matrix(self, p_mag: float, n_panels: int, order: int):
        """Quadrature amplitudes and the separable factors of ``exp(-i rho c)``.

        ``rho = e_j + o_l`` for panel edge ``e_j`` and in-panel offset
        ``o_l``, so ``exp(-i rho c) = exp(-i e_j c) exp(-i o_l c)``: the
        ``(P, T)`` edge factor and the ``(L, T)`` offset factor replace the
        ``(P L, T)`` matrix over the half angle grid.  The edges do not depend
        on the rule order, so both companion rules share the edge factor.
        A rule whose edge factor would exceed ``MAX_RULE_ENTRIES`` entries
        raises ``AccuracyError`` before anything is allocated.
        """
        if self._exp_cache_p != p_mag:
            self._exp_cache.clear()
            self._edge_cache.clear()
            self._exp_cache_p = p_mag
        key = (p_mag, n_panels, order)
        hit = self._exp_cache.get(key)
        if hit is not None:
            return hit
        n_theta = self.angular_points(p_mag)
        if n_panels * (n_theta // 2 + 1) > MAX_RULE_ENTRIES:
            raise AccuracyError(
                f"radial rule of {n_panels} panels x {n_theta} angles at p = {p_mag:.6g} "
                f"exceeds {MAX_RULE_ENTRIES} edge-factor entries"
            )
        theta_half = np.arange(n_theta // 2 + 1) * (_TWO_PI / n_theta)
        nodes, weights = _panel_rule(self._rho_max, n_panels, order)
        amp = weights * nodes * self.profile.density(nodes)
        starts, offsets, _ = _panel_parts(self._rho_max, n_panels, order)
        c = p_mag * np.cos(theta_half)
        edge = self._edge_cache.get(n_panels)
        if edge is None:
            edge = self._edge_cache[n_panels] = np.exp(-1j * np.outer(starts, c))
        offset = np.exp(-1j * np.outer(offsets, c))
        entry = (nodes, amp, edge, offset, n_theta)
        self._exp_cache[key] = entry
        return entry

    def _radial_transform(self, p_mag: float, shift: float, c_max: float):
        """``R(theta_i) = Int rho g exp(-i rho [p cos theta_i - shift]) drho``.

        Returns the full angular table plus the companion-rule error bound;
        doubles the panel count until the bound meets the radial tolerance.
        """
        tol = self.quad.radial_rel_tol * self._mass
        n_panels = self._panels_for(c_max)
        best = None
        for _ in range(self.quad.max_radial_refinements + 1):
            results = []
            for order in _GL_ORDERS:
                nodes, amp, edge, offset, n_theta = self._exp_matrix(p_mag, n_panels, order)
                panel_amp = (amp * np.exp(1j * shift * nodes)).reshape(n_panels, -1)
                results.append(np.einsum("jt,jt->t", edge, panel_amp @ offset))
            err = float(np.max(np.abs(results[1] - results[0])))
            best = (results[1], err, n_theta)
            if err <= tol:
                break
            n_panels *= 2
        else:
            raise AccuracyError(
                f"radial quadrature stuck at error {best[1]:.3e} (tolerance {tol:.3e})",
                estimate=best[0],
                error_bound=best[1],
            )
        half, err, n_theta = best
        # cos(theta) mirrors about theta = pi, so the upper half of the
        # angular table repeats the lower half in reverse
        full = np.concatenate([half, half[-2:0:-1]])
        assert full.size == n_theta
        return full, err

    def _radial_table(self, p_mag: float, n: int, branch: int):
        """Angular table of one radial transform and its error bound (uncached)."""
        shift = (1 if n == 0 else branch) * math.sqrt(n) * self.params.lam
        return self._radial_transform(p_mag, shift, p_mag + abs(shift))

    def _radial_spectrum(self, p_mag: float, n: int, branch: int) -> np.ndarray:
        """``fft(R) / T`` of the radial table, cached by (p_mag, n, branch).

        The minus branch is ``(-1)^k conj(Rf_+[-k])`` of the plus spectrum
        (module docstring), with no transform of its own.
        """
        branch = 1 if n == 0 else branch
        key = (p_mag, n, branch)
        hit = self._radial.get(key)
        if hit is None:
            if branch < 0:
                plus = self._radial_spectrum(p_mag, n, 1)
                k = np.arange(plus.size)
                hit = np.where(k % 2, -1.0, 1.0) * np.conj(plus[-k])
            else:
                table, _ = self._radial_table(p_mag, n, branch)
                hit = np.fft.fft(table) / table.size
            if len(self._radial) > 4096:
                self._radial.clear()
            self._radial[key] = hit
        return hit

    def _rotation_harmonics(self, total: int, m: int, n: int):
        """``(dhat, k)``: Fourier coefficients of ``d_coeff`` for ``k = -total..total``.

        The element has angular degree <= total, so the DFT of ``2 total + 1``
        uniform samples gives its coefficients exactly.
        """
        key = (total, m, n)
        hit = self._harmonics.get(key)
        if hit is None:
            size = 2 * total + 1
            samples = d_coeff(total, m, n, np.arange(size) * (_TWO_PI / size))
            dhat = np.fft.fftshift(np.fft.fft(samples)) / size
            hit = self._harmonics[key] = (dhat, np.arange(-total, total + 1))
        return hit

    # -- public evaluations ---------------------------------------------

    def fourier(self, idx: KernelIndices, point: MomentumPoint) -> complex:
        spec = self._radial_spectrum(point.p_mag, idx.n, idx.branch)
        d = idx.delta
        dhat, k = self._rotation_harmonics(idx.total - d, idx.m - d, idx.n - d)
        return complex(dhat @ (np.exp(1j * point.p_ang * k) * spec[-k]))

    def w_density(self, state: TwoModeState, atom: AtomState, point: MomentumPoint) -> float:
        """Momentum density assembled from numeric kernels (oracle route).

        One contraction of the channel plan of ``(state, atom)`` with the
        radial spectra at ``point.p_mag`` and the phases ``exp(i k p_ang)``.
        """
        keys, rows, coeffs, weights, k = self._channel_plan(state, atom)
        if not keys:
            return 0.0
        spectra = np.array([self._radial_spectrum(point.p_mag, n, b)[-k] for n, b in keys])
        amps = (coeffs * spectra[rows]) @ np.exp(1j * point.p_ang * k)
        return math.fsum(weights * np.abs(amps) ** 2)

    def _channel_plan(self, state: TwoModeState, atom: AtomState):
        """``(keys, rows, coeffs, weights, k)``: the channel sum of ``w_density``.

        The channels are those of :func:`~crosscavity.states.dressed_totals`.
        Every channel amplitude is a sum of kernel amplitudes over one radial
        table ``(n, branch)``, so it is one row ``coeffs[ch]`` of rotation
        harmonics on ``k = -K..K`` (``K`` the largest block total, the highest
        rotation degree), zero-padded, contracted with that table's spectrum.
        Row ``ch`` reads the spectrum ``keys[rows[ch]]`` and adds
        ``weights[ch] |amp|^2`` to the density.  The last plan is kept, keyed
        by ``(state, atom)``.
        """
        if self._plan is not None and self._plan[0] == (state, atom):
            return self._plan[1]
        blocks = state.blocks()
        top = state.max_total

        def harmonics(total: int, n_rot: int) -> np.ndarray:
            row = np.zeros(2 * top + 1, dtype=complex)
            for m, coeff in blocks[total].items():
                dhat, _ = self._rotation_harmonics(total, m, n_rot)
                row[top - total : top + total + 1] += coeff * dhat
            return row

        totals = dressed_totals(state, atom)
        channels = [((0, 1), 1.0, a * harmonics(N, 0)) for N, a, _ in totals if a]
        for N, a, b in totals:
            for n in range(1, N + 1):
                ground = a * harmonics(N, n) if a else 0.0
                excited = b * harmonics(N - 1, n - 1) if b else 0.0
                channels += [((n, branch), 0.5, ground + branch * excited) for branch in (1, -1)]
        keys = list(dict.fromkeys(key for key, _, _ in channels))
        rows = np.array([keys.index(key) for key, _, _ in channels], dtype=int)
        coeffs = np.array([row for _, _, row in channels])
        weights = np.array([weight for _, weight, _ in channels])
        plan = (keys, rows, coeffs, weights, np.arange(-top, top + 1))
        self._plan = ((state, atom), plan)
        return plan


def fourier_numeric(
    idx: KernelIndices,
    point: MomentumPoint,
    params: CouplingParams,
    profile: Optional[SlitProfile] = None,
    quad: Optional[QuadratureSpec] = None,
) -> complex:
    """One kernel amplitude by direct 2D quadrature of the defining integral."""
    return QuadratureOracle(params, profile, quad).fourier(idx, point)


def w_numeric(
    state: TwoModeState,
    atom: AtomState,
    point: MomentumPoint,
    params: CouplingParams,
    profile: Optional[SlitProfile] = None,
    quad: Optional[QuadratureSpec] = None,
) -> float:
    """Momentum density at one point with all kernels evaluated numerically."""
    return QuadratureOracle(params, profile, quad).w_density(state, atom, point)
