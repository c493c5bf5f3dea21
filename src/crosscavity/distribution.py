"""Assembly of the 2D atomic momentum density and ring populations.

The density at dimensionless momentum ``(p, phi)`` is an incoherent sum over
the dressed channels of :func:`~crosscavity.states.dressed_totals`, which
states the channel model.  Each channel amplitude is the kernel transform of
its rotated rows, and the density adds ``|.|^2`` undeflected terms and
``0.5 |.|^2`` dressed terms.  Channels with different total photon content in
the leftover rotated mode are orthogonal after the trace, so blocks never
interfere: the undeflected ground amplitudes of different N are summed as
separate ``|.|^2`` terms.  (That choice, rather than one coherent sum over N,
is what makes the density integrate to exactly 1 and the exact ring weights
close to 1; it only matters for states spreading over several photon blocks.)

Each channel amplitude is an angular Fourier series ``sum_w a_w(p) e^{i w
phi}`` (harmonic table times radial factor), so the density is one too:

    W(p, phi) = Re sum_Delta B_Delta(p) e^{i Delta phi},
    B_Delta = sum_ch weight sum_{w_l - w_k = Delta} a_l conj(a_k),

the weighted harmonic autocorrelation of the channels.  On the uniform angle
grid ``2 pi j / A`` the series is one inverse FFT over ``j`` with
``B_Delta`` placed at index ``Delta mod A``; since ``e^{i Delta phi_j}``
depends only on that residue, aliased harmonics are summed exactly rather
than dropped.  The ring-line and window estimators need only the angular
mean of W, ``B_0 = sum_ch weight sum_w |a_w|^2`` (``_angular_mean``), so
they build neither the autocorrelation nor the angle table.

The readout helpers take a stack of ``S`` states on the same photon blocks
(a mixing-angle family, say) in one pass: :func:`channel_tables` stacks the
channel rows as ``chi`` of shape ``(S, K)`` on shared ``w_values``, so each
channel's radial factor is built once for the stack, ``B_Delta`` and the
density gain a leading state axis, and all ring densities go through one
inverse FFT.  A single state is the stack ``S = 1``.

Ring populations come in three estimators:

``exact``
    Dressed-channel weights from angle quadrature of the rotation
    coefficients; never touches the Fourier kernels, sums to 1 to rounding.
    The cross terms of a (+/-) pair cancel in their sum, so ring ``n`` gets
    ``|a|^2 <|row n of block N|^2> + |b|^2 <|row n-1 of block N-1|^2>``.
    Each weight is the mean of a trigonometric polynomial of degree at most
    ``2 N`` for the largest block total ``N``, so the uniform rule on
    ``2 N + 1`` angles (the default) is exact; fewer are refused.
``eq8``
    Ring line integral ``lam sqrt(n) Int W(lam sqrt(n), phi) dphi``,
    renormalized across rings.  The raw line integral systematically carries
    a factor ~``k_delta_r`` relative to the true ring weight (the sampling
    ignores the ring width ~``1/k_delta_r``), uniform over rings for resolved
    patterns; the normalized spectrum is the meaningful observable and the
    raw scale is reported via ``norm_factor``.
``window``
    Planar integral ``2 pi Int B_0(p) p dp`` over radial bands split at the
    midpoints between adjacent rings; a true probability, no
    renormalization.  Each band ``[lo, hi]`` is integrated by composite
    Gauss-Legendre, 24 nodes per panel and one panel per ring width
    ``1/k_delta_r``: ``ceil((hi - lo) k_delta_r)`` panels, clamped to 2..64
    (64 when that count is not finite), which reaches rounding level.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .kernel import (
    KernelIndices,
    MomentumPoint,
    _check_profile,
    gamma,
    harmonic_coefficients,
    mode_radial_table,
)
from .quadrature import AccuracyError, QuadratureOracle, QuadratureSpec, SlitProfile, _panel_rule
from .rotation import d_matrix_table
from .states import (
    AtomState,
    CouplingParams,
    TwoModeState,
    dressed_channels,
    dressed_totals,
    stacked_blocks,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Polar evaluation grid: radial count, angular count, radial reach."""

    radial_points: int = 400
    angular_points: int = 720
    p_max: Optional[float] = None

    def __post_init__(self):
        if self.radial_points < 2 or self.angular_points < 4:
            raise ValueError("grid too small")
        if self.p_max is not None and not (math.isfinite(self.p_max) and self.p_max > 0.0):
            raise ValueError(f"p_max must be positive and finite, got {self.p_max!r}")


@dataclass
class MomentumGrid:
    """Sampled density W over a polar grid plus provenance metadata."""

    radial_values: np.ndarray
    angular_values: np.ndarray
    densities: np.ndarray
    meta: dict


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    p: float
    estimator: str


@dataclass(frozen=True)
class PopulationSpectrum:
    entries: Tuple[SpectrumEntry, ...]
    estimator: str
    warnings: Tuple[str, ...] = ()
    norm_factor: Optional[float] = None

    def as_dict(self) -> Dict[int, float]:
        return {e.n: e.p for e in self.entries}


@dataclass(frozen=True)
class _Channel:
    """One dressed channel of a state stack: ``chi[s, k]`` is the harmonic ``w_values[k]`` of state ``s``."""

    n: int
    branch: int
    weight: float
    w_values: np.ndarray
    chi: np.ndarray


def default_p_max(state: TwoModeState, params: CouplingParams) -> float:
    """Outermost ring radius plus ten slit widths of tail room."""
    return math.sqrt(state.max_total + 1) * params.lam + 10.0 / params.k_delta_r


def channel_tables(
    states: Union[TwoModeState, Sequence[TwoModeState]], atom: AtomState
) -> List[_Channel]:
    """Per-channel angular-harmonic coefficient tables for the density sum.

    ``states`` is one state (the stack ``S = 1``) or a stack on the same
    photon blocks.  Each channel keeps the harmonics that are non-zero in
    some state of the stack, so ``chi`` has shape ``(S, K)``; its zeros are
    harmonics that a state lacks.
    """

    def element(total: int, m: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
        return harmonic_coefficients(KernelIndices(total, m, n, "g", 1))

    stack = [states] if isinstance(states, TwoModeState) else list(states)
    channels = dressed_channels(stack, atom, element)  # refuses an empty or mixed stack
    harmonics = np.arange(-stack[0].max_total, stack[0].max_total + 1)
    out = []
    for n, branch, weight, chi in channels:
        keep = (chi != 0).any(axis=0)
        out.append(_Channel(n, branch, weight, harmonics[keep], chi[:, keep]))
    return out


def _amplitudes(ch: _Channel, p: np.ndarray, params: CouplingParams) -> np.ndarray:
    """Harmonic amplitudes ``a_w(p)`` of one channel, ``[s, k, i]`` for ``w_values[k]`` at ``p[i]``.

    The radial factor is built once and serves every state; a harmonic that
    a state lacks stays exactly zero, even where the radial factor overflows.
    """
    g = gamma(ch.n, params, ch.branch)
    amp = ch.chi[:, :, None] * mode_radial_table(np.abs(ch.w_values), p, g, params.k_delta_r)
    amp[ch.chi == 0] = 0.0
    return amp


def _autocorrelation(
    channels: Sequence[_Channel], p: np.ndarray, params: CouplingParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Angular Fourier coefficients ``B_Delta(p)`` of W (see module docstring).

    Returns ``(deltas, table)``: the harmonic differences ``-2M..2M`` for the
    largest harmonic ``M`` of any channel, and ``table[s, k, i] =
    B_{deltas[k]}(p[i])`` for state ``s`` of the stack.
    """
    p = np.asarray(p, dtype=float)
    top = max((int(np.abs(ch.w_values).max()) for ch in channels if ch.w_values.size), default=0)
    stack = channels[0].chi.shape[0] if channels else 1
    table = np.zeros((stack, 4 * top + 1, p.size), dtype=complex)
    for ch in channels:
        if ch.w_values.size == 0:
            continue
        amp = _amplitudes(ch, p, params)
        conj = ch.weight * amp.conj()
        for k, w in enumerate(ch.w_values):
            # distinct w_values make these row indices distinct, so += does not drop terms
            table[:, w - ch.w_values + 2 * top] += amp[:, k, None] * conj
    return np.arange(-2 * top, 2 * top + 1), table


def _density_table(
    channels: Sequence[_Channel],
    p: np.ndarray,
    angular_points: int,
    params: CouplingParams,
) -> np.ndarray:
    """W on radii p times the uniform angles ``2 pi j / angular_points``, shape ``(S, p, angles)``."""
    deltas, table = _autocorrelation(channels, p, params)
    coeffs = np.zeros((table.shape[0], table.shape[2], angular_points), dtype=complex)
    for k, delta in enumerate(deltas):
        coeffs[:, :, delta % angular_points] += table[:, k]
    return np.fft.ifft(coeffs, axis=-1, norm="forward", out=coeffs).real  # in place: no second table


def _angular_mean(channels: Sequence[_Channel], p: np.ndarray, params: CouplingParams) -> np.ndarray:
    """Angular mean ``B_0(p) = sum_ch weight sum_w |a_w(p)|^2`` of W, shape ``(S, p)``."""
    p = np.asarray(p, dtype=float)
    mean = np.zeros((channels[0].chi.shape[0] if channels else 1, p.size))
    for ch in channels:
        if ch.w_values.size:
            amp = _amplitudes(ch, p, params)
            mean += ch.weight * (amp.real**2 + amp.imag**2).sum(axis=1)
    return mean


def w_point(
    state: TwoModeState,
    atom: AtomState,
    point: MomentumPoint,
    params: CouplingParams,
) -> float:
    """Momentum density at a single point (closed-form kernels); an array point is refused."""
    if np.ndim(point.p_mag):
        raise ValueError("w_point takes one momentum point, not an array point; use w_grid for many")
    channels = channel_tables(state, atom)
    deltas, table = _autocorrelation(channels, np.array([point.p_mag]), params)
    return float((table[0, :, 0] @ np.exp(1j * deltas * point.p_ang)).real)


def w_grid(
    state: TwoModeState,
    atom: AtomState,
    params: CouplingParams,
    grid: Optional[GridSpec] = None,
    kernel: str = "analytic",
    profile: Optional[SlitProfile] = None,
    quad: Optional[QuadratureSpec] = None,
) -> MomentumGrid:
    """Fill a polar grid with the momentum density.

    ``kernel="analytic"`` uses the closed form (exponential profile only);
    ``kernel="numeric"`` hands all grid points, row-major, as one array
    point to one :meth:`~crosscavity.quadrature.QuadratureOracle.w_density`
    call, which transforms the radial tables of all radii together and
    contracts every angle of a radius at once; it accepts arbitrary profiles
    but is far slower than the closed form.
    """
    grid = grid or GridSpec()
    p_max = grid.p_max if grid.p_max is not None else default_p_max(state, params)
    p = np.linspace(0.0, p_max, grid.radial_points)
    phi = np.arange(grid.angular_points) * (_TWO_PI / grid.angular_points)
    warnings: List[str] = []

    n_top = _n_max(state, atom)
    if n_top >= 1:
        step = p[1] - p[0]
        limit = (math.sqrt(n_top + 1) - math.sqrt(n_top)) * params.lam / 4.0
        if step > limit:
            warnings.append(
                f"radial step {step:.4g} coarser than ring spacing limit {limit:.4g}"
            )

    if kernel == "analytic":
        _check_profile(profile, params)
        dens = _density_table(channel_tables(state, atom), p, grid.angular_points, params)[0]
    elif kernel == "numeric":
        points = MomentumPoint(np.repeat(p, phi.size), np.tile(phi, p.size))
        dens = QuadratureOracle(params, profile, quad).w_density(state, atom, points).reshape(p.size, phi.size)
    else:
        raise ValueError(f"unknown kernel mode {kernel!r}")

    prof = profile if profile is not None else SlitProfile.exponential(params.k_delta_r)
    meta = {
        "lambda": params.lam,
        "k_delta_r": params.k_delta_r,
        "kernel": kernel,
        "profile": prof.describe(),
        "state": state_fingerprint(state),
        "grid": {
            "radial_points": grid.radial_points,
            "angular_points": grid.angular_points,
            "p_max": p_max,
        },
        "warnings": warnings,
    }
    return MomentumGrid(p, phi, dens, meta)


def state_fingerprint(state: TwoModeState) -> str:
    text = ";".join(
        f"{m},{n}:{c.real!r},{c.imag!r}" for (m, n), c in state.amplitudes.items()
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def total_probability(grid: MomentumGrid) -> float:
    """``Int Int W p dp dphi`` by trapezoid (radial) and periodic rule (angle)."""
    angular = grid.densities.mean(axis=1) * _TWO_PI
    return float(np.trapezoid(angular * grid.radial_values, grid.radial_values))


def _n_max(state: TwoModeState, atom: AtomState) -> int:
    """Outermost ring: the largest dressed total."""
    return max((N for N, _, _ in dressed_totals(state, atom)), default=0)


def _overlap_warning(params: CouplingParams, n_max: int) -> Optional[str]:
    for n in range(1, n_max):
        if params.lam * (math.sqrt(n + 1) - math.sqrt(n)) < 4.0 / params.k_delta_r:
            return (
                f"rings {n} and {n + 1} overlap at lambda={params.lam:g}, "
                f"k_delta_r={params.k_delta_r:g}; line/band estimators are biased"
            )
    return None


def populations(
    state: TwoModeState,
    atom: AtomState,
    params: CouplingParams,
    estimator: str = "exact",
    theta_points: Optional[int] = None,
) -> PopulationSpectrum:
    """Ring populations P_n by the chosen estimator (see module docstring).

    ``theta_points`` is the number of uniform rotation angles of the ``exact``
    estimator.  By default it is ``2 N + 1`` for the largest block total
    ``N``, the smallest count at which the rule is exact; a larger count
    gives the same weights to rounding, and ``2 N`` or fewer is refused with
    ``ValueError``.  ``eq8`` and ``window`` read the angular mean ``B_0``
    directly, with no angle grid; ``window`` integrates each band by
    composite Gauss-Legendre with one panel per ring width.

    Raises ``AccuracyError`` when a population is NaN or Inf (for example
    when the radial factors overflow at a huge ``lam``).
    """
    if estimator == "exact":
        return exact_populations([state], atom, theta_points)[0]
    if estimator == "eq8":
        spectrum = _populations_ringline(state, atom, params)
    elif estimator == "window":
        spectrum = _populations_window(state, atom, params)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    _check_finite(spectrum)
    return spectrum


def _check_finite(spectrum: PopulationSpectrum) -> None:
    if not all(math.isfinite(e.p) for e in spectrum.entries):
        raise AccuracyError(f"{spectrum.estimator} ring populations hold NaN or Inf")


def exact_populations(
    states: Sequence[TwoModeState], atom: AtomState, theta_points: Optional[int] = None
) -> List[PopulationSpectrum]:
    """The ``exact`` spectrum of each state of a stack on the same photon blocks.

    One contraction per block serves the whole stack; ``theta_points`` is as
    in :func:`populations`.  Raises ``AccuracyError`` when a population is
    NaN or Inf, or when a state's weights miss closure (sum to 1 within
    1e-10).
    """
    blocks = stacked_blocks(states)
    top = max(blocks, default=0)
    if theta_points is None:
        theta_points = 2 * top + 1
    if theta_points <= 2 * top:
        # |c_g a +- c_e b|^2 has angular degree 2 * top
        raise ValueError(
            f"theta_points={theta_points} must exceed twice the largest block total ({top})"
        )
    thetas = np.arange(theta_points) * (_TWO_PI / theta_points)
    # means[N][s, n]: angular mean of |row n|^2 for state s, row n = sum_m C_m d[m, n](theta)
    means = {}
    for n_field, block in blocks.items():
        table = d_matrix_table(n_field, thetas)[list(block)]
        rows = np.tensordot(np.array(list(block.values())).T, table, axes=1)
        means[n_field] = np.mean(np.abs(rows) ** 2, axis=-1)
    totals = dressed_totals(states[0], atom)
    spectra = []
    for s in range(len(states)):
        # |a|^2 <|row n of block N|^2> on rings 0..N, |b|^2 <|row n-1 of block N-1|^2> on rings 1..N
        rings: Dict[int, List[float]] = {}
        for N, a, b in totals:
            for first, factor, block in ((0, a, N), (1, b, N - 1)):
                if factor:
                    for n, mean in enumerate(abs(factor) ** 2 * means[block][s], start=first):
                        rings.setdefault(n, []).append(float(mean))
        entries = [SpectrumEntry(n, math.fsum(rings[n]), "exact") for n in sorted(rings)]
        closure = math.fsum(e.p for e in entries)
        if abs(closure - 1.0) > 1e-10:
            raise AccuracyError(f"exact ring weights sum to {closure!r}, expected 1", error_bound=abs(closure - 1.0))
        spectra.append(PopulationSpectrum(tuple(entries), "exact"))
        _check_finite(spectra[-1])
    return spectra


def _populations_ringline(state: TwoModeState, atom: AtomState, params: CouplingParams) -> PopulationSpectrum:
    n_max = _n_max(state, atom)
    if n_max < 1:
        raise ValueError("no deflected rings for this state/atom combination")
    channels = channel_tables(state, atom)
    radii = np.array([params.lam * math.sqrt(n) for n in range(1, n_max + 1)])
    raw = radii * _angular_mean(channels, radii, params)[0] * _TWO_PI
    total = float(raw.sum())
    warnings = []
    over = _overlap_warning(params, n_max)
    if over:
        warnings.append(over)
    if abs(atom.c_g) > 0:
        warnings.append("ring-line estimator ignores the undeflected (n=0) channel")
    if total <= 0:
        raise ValueError("ring-line estimator saw no density on any ring")
    entries = tuple(
        SpectrumEntry(n, float(raw[n - 1] / total), "eq8") for n in range(1, n_max + 1)
    )
    return PopulationSpectrum(entries, "eq8", tuple(warnings), norm_factor=1.0 / total)


def _band_edges(n: int, params: CouplingParams) -> Tuple[float, float]:
    lo = 0.0 if n == 0 else 0.5 * (math.sqrt(n) + math.sqrt(n - 1)) * params.lam
    hi = 0.5 * (math.sqrt(n) + math.sqrt(n + 1)) * params.lam
    return lo, hi


def _band_rule(lo: float, hi: float, k_delta_r: float) -> Tuple[np.ndarray, np.ndarray]:
    """Composite 24-node Gauss-Legendre nodes and weights on ``[lo, hi]``, one panel per ring width.

    ``ceil((hi - lo) k_delta_r)`` panels, clamped to 2..64; 64 when that
    count is inf or NaN.
    """
    count = (hi - lo) * k_delta_r
    panels = min(max(math.ceil(count), 2), 64) if math.isfinite(count) else 64
    nodes, weights = _panel_rule(hi - lo, panels, 24)
    return nodes + lo, weights


def _populations_window(state: TwoModeState, atom: AtomState, params: CouplingParams) -> PopulationSpectrum:
    n_max = _n_max(state, atom)
    channels = channel_tables(state, atom)
    ns = ([0] if abs(atom.c_g) > 0 else []) + list(range(1, n_max + 1))
    rules = [_band_rule(*_band_edges(n, params), params.k_delta_r) for n in ns]
    # every band's nodes in one array, so the angular mean is one pass
    nodes = np.concatenate([p_band for p_band, _ in rules])
    integrand = nodes * _angular_mean(channels, nodes, params)[0] * _TWO_PI
    bands = np.split(integrand, np.cumsum([w.size for _, w in rules])[:-1])
    entries = [SpectrumEntry(n, float(w @ band), "window") for n, (_, w), band in zip(ns, rules, bands)]
    warnings = []
    over = _overlap_warning(params, n_max)
    if over:
        warnings.append(over)
    return PopulationSpectrum(tuple(entries), "window", tuple(warnings))


@dataclass(frozen=True)
class ConsistencyReport:
    spectra: Dict[str, PopulationSpectrum]
    discrepancy_per_ring: Dict[int, float]
    max_discrepancy: float


def spectrum_consistency(
    state: TwoModeState,
    atom: AtomState,
    params: CouplingParams,
    **options,
) -> ConsistencyReport:
    """Cross-check the three population estimators (rings must be resolved).

    Requires ``lam >= 50``; below that the ring peaks are too wide for the
    line and band estimators to be meaningful.
    """
    if params.lam < 50.0:
        raise ValueError("spectrum_consistency requires lam >= 50")
    spectra = {
        name: populations(state, atom, params, estimator=name, **options)
        for name in ("eq8", "window", "exact")
    }
    rings = sorted({e.n for s in spectra.values() for e in s.entries if e.n >= 1})
    per_ring = {}
    for n in rings:
        vals = [s.as_dict().get(n, 0.0) for s in spectra.values()]
        per_ring[n] = max(vals) - min(vals)
    worst = max(per_ring.values()) if per_ring else 0.0
    return ConsistencyReport(spectra, per_ring, worst)
