"""Entanglement readout from deflection patterns.

Two criteria:

* one-photon states rotate the whole pattern rigidly with the mixing angle,
  so the angular argmax on the outer ring maps straight to the concurrence
  ``|sin 2 theta_m|``;
* the maximally entangled two-component family ``(|j, j+4q-2> + |j+4q-2, j>)
  / sqrt(2)`` destructively empties ring ``j + 2q``, detectable as a
  population hole in the ring spectrum.

:func:`detect` reads one state.  :func:`detect_stack` reads a stack of
states on the same photon blocks, such as a mixing-angle family, in one pass:
one exact-population contraction per block, and one batch of ring densities
with every row's argmax refined at once.  ``detect`` is its one-state case,
so both give the same report for a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distribution import (
    PopulationSpectrum,
    _Channel,
    _density_table,
    channel_tables,
    exact_populations,
)
from .quadrature import AccuracyError
from .states import AtomState, CouplingParams, TwoModeState

_TWO_PI = 2.0 * math.pi

PHI_POINTS = 720  # uniform angles on the readout ring of the rotation readout


class NoSignalError(RuntimeError):
    """Readout ring carries no density anywhere."""


@dataclass(frozen=True)
class RingFlag:
    n: int
    p: float
    flagged: bool


@dataclass
class DetectionReport:
    theta_m: Optional[float]
    theta_m_raw: Optional[float]
    concurrence: Optional[float]
    spectrum: PopulationSpectrum
    missing_rings: List[RingFlag]
    predicted_missing: Optional[int]
    warnings: List[str] = field(default_factory=list)


def _ring_argmax(
    channels: Sequence[_Channel],
    params: CouplingParams,
    ring: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """(folded, raw) angular argmax of W on the given ring radius, per state of the stack.

    Both are NaN for a state whose ring density is below 1e-12 everywhere;
    a NaN or Inf density raises ``AccuracyError``.
    """
    dens = _density_table(channels, np.array([ring]), PHI_POINTS, params)[:, 0]
    if not np.isfinite(dens).all():
        raise AccuracyError(f"density on ring p = {ring:g} holds NaN or Inf")
    j = np.argmax(dens, axis=1)
    rows = np.arange(len(dens))
    y1, y2, y3 = dens[rows, j - 1], dens[rows, j], dens[rows, (j + 1) % PHI_POINTS]
    denom = y1 - 2.0 * y2 + y3
    offset = np.divide(0.5 * (y1 - y3), denom, out=np.zeros_like(denom), where=denom != 0.0)
    step = _TWO_PI / PHI_POINTS
    raw = (j * step + offset * step) % _TWO_PI
    # the one-photon pattern repeats under rotation by pi and reflects about
    # its own axes; fold the argmax into [0, pi/2] where the concurrence map
    # is single-valued
    t = raw % math.pi
    folded = np.minimum(t, math.pi - t)
    dark = dens.max(axis=1) < 1e-12
    folded[dark] = raw[dark] = math.nan
    return folded, raw


def _dark_ring(ring: float) -> str:
    return f"density below 1e-12 everywhere on ring p = {ring:g}"


def rotation_angle(
    state: TwoModeState,
    atom: AtomState,
    params: CouplingParams,
    ring: Optional[float] = None,
) -> float:
    """Pattern rotation angle: refined angular argmax of W on ``ring``.

    Defaults to the outer one-photon ring ``sqrt(2) lam``.  The argmax on
    ``PHI_POINTS`` uniform angles is refined by a three-point parabola,
    giving resolution well below 0.2 deg.
    """
    ring = math.sqrt(2.0) * params.lam if ring is None else float(ring)
    if ring <= 0.0:
        raise ValueError(f"ring radius must be positive, got {ring!r}")
    folded, _ = _ring_argmax(channel_tables(state, atom), params, ring)
    if math.isnan(folded[0]):
        raise NoSignalError(_dark_ring(ring))
    return float(folded[0])


def concurrence_from_angle(theta_m: float) -> float:
    """Concurrence of the one-photon state producing rotation ``theta_m``."""
    if not math.isfinite(theta_m):
        raise ValueError("theta_m must be finite")
    return abs(math.sin(2.0 * theta_m))


def missing_rings(
    spectrum: PopulationSpectrum,
    abs_threshold: float = 0.02,
    rel_threshold: float = 0.1,
) -> List[RingFlag]:
    """Flag rings whose population is absolutely and relatively negligible."""
    ring_entries = [e for e in spectrum.entries if e.n >= 1]
    if not ring_entries:
        raise ValueError("spectrum has no ring entries")
    top = max(e.p for e in ring_entries)
    return [
        RingFlag(e.n, e.p, e.p < abs_threshold and e.p < rel_threshold * top)
        for e in ring_entries
    ]


def predicted_missing(state: TwoModeState, tol: float = 1e-9) -> Optional[int]:
    """Ring index emptied by interference, if the state is in the family.

    Matches the amplitude structure directly (two mirror components with the
    same complex amplitude up to a global phase, index separation 2 mod 4),
    so externally supplied states are classified, not just builder outputs.
    """
    amps = list(state.amplitudes.items())
    if len(amps) != 2:
        return None
    (k1, c1), (k2, c2) = amps
    if k1 != (k2[1], k2[0]) or k1[0] == k1[1]:
        return None
    low, high = min(k1), max(k1)
    sep = high - low
    if sep < 2 or (sep - 2) % 4 != 0:
        return None
    if abs(abs(c1) - abs(c2)) > tol:
        return None
    cross = c1 * c2.conjugate()
    # equal phases up to a global factor: C1 conj(C2) must be real positive
    if cross.real <= 0 or abs(cross.imag) > tol * abs(cross):
        return None
    return (low + high) // 2 + 1


def detect(
    state: TwoModeState,
    atom: AtomState,
    params: CouplingParams,
    abs_threshold: float = 0.02,
    rel_threshold: float = 0.1,
    ring: Optional[float] = None,
) -> DetectionReport:
    """Run both criteria and collect everything into one report.

    The rotation/concurrence readout only applies to one-photon states; for
    anything else it is skipped with a warning.  The spectrum always comes
    from the exact estimator.  A NaN or Inf density on the readout ring
    raises ``AccuracyError``.  The one-state case of :func:`detect_stack`.
    """
    return detect_stack([state], atom, params, abs_threshold, rel_threshold, ring)[0]


def detect_stack(
    states: Sequence[TwoModeState],
    atom: AtomState,
    params: CouplingParams,
    abs_threshold: float = 0.02,
    rel_threshold: float = 0.1,
    ring: Optional[float] = None,
) -> List[DetectionReport]:
    """:func:`detect` for each state of a stack on the same photon blocks, in one pass.

    The exact spectra and the ring densities of all states are computed
    together; missing rings, the predicted hole and the warnings are each
    state's own.  ``AccuracyError`` for any state's NaN or Inf ring density
    stops the whole stack.
    """
    spectra = exact_populations(states, atom)
    one_photon = states[0].max_total == 1
    theta_m = theta_raw = [None] * len(states)
    if one_photon:
        ring = math.sqrt(2.0) * params.lam if ring is None else float(ring)
        folded, raw = _ring_argmax(channel_tables(states, atom), params, ring)
        theta_m = [None if math.isnan(t) else float(t) for t in folded]
        theta_raw = [None if math.isnan(t) else float(t) for t in raw]

    reports = []
    for state, spectrum, theta, raw_theta in zip(states, spectra, theta_m, theta_raw):
        warnings: List[str] = []
        if any(e.n >= 1 for e in spectrum.entries):
            flags = missing_rings(spectrum, abs_threshold, rel_threshold)
        else:
            flags = []
            warnings.append("no deflected rings (undeflected ground channel only)")
        if not one_photon:
            warnings.append("rotation-angle concurrence readout applies to one-photon states only")
        elif theta is None:
            warnings.append(_dark_ring(ring))
        reports.append(
            DetectionReport(
                theta_m=theta,
                theta_m_raw=raw_theta,
                concurrence=None if theta is None else concurrence_from_angle(theta),
                spectrum=spectrum,
                missing_rings=flags,
                predicted_missing=predicted_missing(state),
                warnings=warnings,
            )
        )
    return reports
