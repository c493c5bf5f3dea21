"""Two-mode field states, atomic internal states and coupling parameters.

Field states are sparse maps from photon-number pairs ``(m, n)`` to complex
amplitudes: ``m`` counts photons in the x-axis cavity mode, ``n`` in the
y-axis mode.  Only finite-support states are representable; the total photon
number is capped (default 32) because every downstream quantity is a finite
sum over fixed-total-photon blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

SUPPORT_CAP = 32
PRUNE_THRESHOLD = 1e-15
_NORM_TOL = 1e-12


class InvalidStateError(ValueError):
    """Raised for states that violate a structural invariant."""


def _ldexp_or_inf(x: float, exponent: int) -> float:
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.inf


class TwoModeState:
    """Immutable sparse two-mode Fock superposition.

    Parameters
    ----------
    amplitudes : mapping ``(m, n) -> complex``
        Photon-number amplitudes.  Entries with modulus below ``prune``
        are dropped; an all-zero map is allowed here (it only becomes an
        error when normalization is requested).
    cap : int
        Largest admissible total photon number ``m + n``.
    prune : float
        Modulus below which an amplitude is treated as absent.
    """

    __slots__ = ("amplitudes", "max_total", "tags")

    def __init__(
        self,
        amplitudes: Mapping[Tuple[int, int], complex],
        cap: int = SUPPORT_CAP,
        prune: float = PRUNE_THRESHOLD,
        tags: Mapping[str, float] | None = None,
    ):
        cleaned: Dict[Tuple[int, int], complex] = {}
        for key, value in amplitudes.items():
            try:
                m, n = key
            except (TypeError, ValueError):
                raise InvalidStateError(f"amplitude key {key!r} is not an (m, n) pair")
            if any(isinstance(i, bool) or not isinstance(i, int) for i in (m, n)) or m < 0 or n < 0:
                raise InvalidStateError(f"photon indices must be non-negative integers, got {key!r}")
            c = complex(value)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InvalidStateError(f"amplitude for {key!r} is not finite")
            try:
                modulus = abs(c)
            except OverflowError:
                raise InvalidStateError(f"modulus of the amplitude for {key!r} overflows a float") from None
            if modulus < prune:
                continue
            if m + n > cap:
                raise InvalidStateError(f"total photon number {m + n} exceeds support cap {cap}")
            cleaned[(m, n)] = c
        ordered = dict(sorted(cleaned.items()))
        object.__setattr__(self, "amplitudes", MappingProxyType(ordered))
        object.__setattr__(self, "max_total", max((m + n for m, n in ordered), default=0))
        object.__setattr__(self, "tags", MappingProxyType(dict(tags or {})))

    def __setattr__(self, name, value):
        raise AttributeError("TwoModeState is immutable")

    def _scaled_norm_squared(self) -> Tuple[float, int]:
        """``(s, e)`` with ``norm_squared = s 4^e``, no square overflowing or underflowing.

        Every modulus is scaled by ``2^-e``, with ``2^e`` just above the largest
        one; scaling by a power of two is exact, so ``s 4^e`` is the correctly
        rounded sum of squares whenever that sum is a normal float.
        """
        moduli = [abs(c) for c in self.amplitudes.values()]
        exponent = math.frexp(max(moduli, default=0.0))[1]
        return math.fsum(math.ldexp(m, -exponent) ** 2 for m in moduli), exponent

    def norm_squared(self) -> float:
        """Sum of the squared moduli; ``inf`` beyond the float range."""
        scaled, exponent = self._scaled_norm_squared()
        return _ldexp_or_inf(scaled, 2 * exponent)

    def norm(self) -> float:
        """Euclidean norm; ``inf`` only when it exceeds the float range itself."""
        scaled, exponent = self._scaled_norm_squared()
        return _ldexp_or_inf(math.sqrt(scaled), exponent)

    def blocks(self) -> Dict[int, Dict[int, complex]]:
        """Group amplitudes by total photon number: ``{N: {m: C_{m, N-m}}}``."""
        out: Dict[int, Dict[int, complex]] = {}
        for (m, n), c in self.amplitudes.items():
            out.setdefault(m + n, {})[m] = c
        return {total: dict(sorted(block.items())) for total, block in sorted(out.items())}

    def __eq__(self, other):
        if not isinstance(other, TwoModeState):
            return NotImplemented
        return dict(self.amplitudes) == dict(other.amplitudes)

    def __hash__(self):
        return hash(tuple(self.amplitudes.items()))

    def __repr__(self):
        terms = ", ".join(f"({m},{n}): {c:.6g}" for (m, n), c in self.amplitudes.items())
        return f"TwoModeState({{{terms}}})"


def _require_finite_atom(c_g: complex, c_e: complex) -> None:
    if not all(map(math.isfinite, (c_g.real, c_g.imag, c_e.real, c_e.imag))):
        raise InvalidStateError(f"atomic coefficients must be finite, got c_g = {c_g!r}, c_e = {c_e!r}")


@dataclass(frozen=True)
class AtomState:
    """Internal two-level superposition ``c_g|g> + c_e|e>`` (unit norm, finite coefficients)."""

    c_g: complex
    c_e: complex

    def __post_init__(self):
        object.__setattr__(self, "c_g", complex(self.c_g))
        object.__setattr__(self, "c_e", complex(self.c_e))
        _require_finite_atom(self.c_g, self.c_e)
        norm2 = abs(self.c_g) ** 2 + abs(self.c_e) ** 2
        if abs(norm2 - 1.0) > _NORM_TOL:
            raise InvalidStateError(
                f"|c_g|^2 + |c_e|^2 = {norm2!r} is not 1; use AtomState.normalized()"
            )

    @classmethod
    def excited(cls) -> "AtomState":
        return cls(0.0, 1.0)

    @classmethod
    def ground(cls) -> "AtomState":
        return cls(1.0, 0.0)

    @classmethod
    def normalized(cls, c_g: complex, c_e: complex) -> "AtomState":
        _require_finite_atom(complex(c_g), complex(c_e))
        norm = math.hypot(abs(complex(c_g)), abs(complex(c_e)))
        if norm == 0.0:
            raise InvalidStateError("atomic state has zero norm")
        return cls(complex(c_g) / norm, complex(c_e) / norm)


def dressed_totals(state: TwoModeState, atom: AtomState) -> List[Tuple[int, complex, complex]]:
    """The dressed-channel model: ``[(N, a, b), ...]`` ascending in total ``N``.

    After the interaction the atom's momentum density is an incoherent sum of
    dressed channels.  Total ``N`` counts atom plus field excitations; ``a``
    is ``c_g`` when photon block ``N`` is populated and ``b`` is ``c_e`` when
    block ``N - 1`` is, each 0 otherwise, and totals with both 0 are absent.
    A total with ``a != 0`` has one undeflected channel, weight 1, carrying
    ``a`` times rotated row 0 of block ``N``.  Each ladder index
    ``n = 1..N`` has a (+/-) pair, weight 1/2 each, carrying

        a * (row n of block N)  +-  b * (row n - 1 of block N - 1)

    on ring ``n``, deflected by ``+-sqrt(n) lam``.  Row ``n`` of block ``N``
    is ``sum_m C_{m, N-m} D_{m, n}(theta)``, a function of the block rotation
    angle; a side whose factor is 0 contributes nothing.
    """
    blocks = state.blocks()
    totals = set()
    if abs(atom.c_g) > 0:
        totals |= set(blocks)
    if abs(atom.c_e) > 0:
        totals |= {n + 1 for n in blocks}
    return [
        (n, atom.c_g if n in blocks else 0j, atom.c_e if n - 1 in blocks else 0j)
        for n in sorted(totals)
    ]


def stacked_blocks(states: Sequence[TwoModeState]) -> Dict[int, Dict[int, np.ndarray]]:
    """:meth:`TwoModeState.blocks` of a stack of states: ``{N: {m: C}}``, ``C[s]`` of state ``s``.

    The states must populate the same photon blocks ``N``, so that they share
    one dressed-channel model; within a block each ``m`` of any state is kept,
    with amplitude 0 in the states that lack it.  Raises ``ValueError`` for an
    empty stack or different blocks.
    """
    if not states:
        raise ValueError("a state stack needs at least one state")
    per_state = [state.blocks() for state in states]
    totals = list(per_state[0])
    if any(list(blocks) != totals for blocks in per_state):
        raise ValueError("the states of one stack must populate the same photon blocks")
    out: Dict[int, Dict[int, np.ndarray]] = {}
    for total in totals:
        ms = sorted({m for blocks in per_state for m in blocks[total]})
        out[total] = {m: np.array([blocks[total].get(m, 0j) for blocks in per_state], dtype=complex) for m in ms}
    return out


def dressed_channels(
    states: Sequence[TwoModeState], atom: AtomState, element
) -> List[Tuple[int, int, float, np.ndarray]]:
    """The channels of :func:`dressed_totals` as ``[(n, branch, weight, rows), ...]``.

    ``states`` is a stack of ``S`` states on the same photon blocks
    (:func:`stacked_blocks`); they share the channel list, and ``rows[s]``
    is the row of state ``s``, shape ``(S, 2K + 1)``.
    Undeflected channels first, then each total's pairs by ``n``, + first.
    ``element(N, m, n)`` gives ``(w, coeffs)``, the caller's angular harmonics
    of rotation element ``(m, n)`` of block ``N``; a row combines them on
    ``w = -K..K`` (``K`` the largest block total).
    """
    blocks = stacked_blocks(states)
    top = max(blocks, default=0)

    def row(total: int, n: int) -> np.ndarray:
        out = np.zeros((len(states), 2 * top + 1), dtype=complex)
        for m, coeff in blocks[total].items():
            w, coeffs = element(total, m, n)
            out[:, w + top] += coeff[:, None] * coeffs
        return out

    totals = dressed_totals(states[0], atom)
    channels = [(0, 1, 1.0, a * row(N, 0)) for N, a, _ in totals if a]
    for N, a, b in totals:
        for n in range(1, N + 1):
            ground = a * row(N, n) if a else 0.0
            excited = b * row(N - 1, n - 1) if b else 0.0
            channels += [(n, branch, 0.5, ground + branch * excited) for branch in (1, -1)]
    return channels


@dataclass(frozen=True)
class CouplingParams:
    """Dimensionless interaction strength ``lam`` (= g*tau) and slit width ``k_delta_r``."""

    lam: float
    k_delta_r: float

    def __post_init__(self):
        for name in ("lam", "k_delta_r"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")


def normalize(state: TwoModeState) -> TwoModeState:
    """Rescale to unit norm; relative and global phases are untouched.

    Already-normalized states (norm within 1e-14 of one) are returned
    unchanged so that normalization is exactly idempotent.  Amplitudes are
    multiplied by ``1 / norm``.  When that overflows (norm below ~5.6e-309),
    the state is first scaled by the exact power of two ``2^-e`` that brings
    its largest modulus near one, so that no modulus is subnormal, and that
    state is normalized instead.
    """
    scaled, exponent = state._scaled_norm_squared()  # one pass for both norms
    norm = _ldexp_or_inf(math.sqrt(scaled), exponent)
    if norm == 0.0:
        raise InvalidStateError("cannot normalize a state with no nonzero amplitude")
    if norm == math.inf:
        raise InvalidStateError("state norm overflows a float")
    if abs(_ldexp_or_inf(scaled, 2 * exponent) - 1.0) < 1e-14:
        return state
    factor = 1.0 / norm
    if not math.isfinite(factor):
        exact = {
            key: complex(math.ldexp(c.real, -exponent), math.ldexp(c.imag, -exponent))
            for key, c in state.amplitudes.items()
        }
        return normalize(TwoModeState(exact, prune=0.0, tags=state.tags))
    return TwoModeState(
        {key: c * factor for key, c in state.amplitudes.items()}, tags=state.tags
    )


def one_photon_state(alpha: float) -> TwoModeState:
    """``sin(alpha)|0,1> + cos(alpha)|1,0>`` - the one-photon family."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return normalize(TwoModeState({(0, 1): math.sin(alpha), (1, 0): math.cos(alpha)}))


def two_photon_state(alpha: float) -> TwoModeState:
    """``cos(alpha)|2,0> + sin(alpha)|0,2>`` - the two-photon family."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    return normalize(TwoModeState({(2, 0): math.cos(alpha), (0, 2): math.sin(alpha)}))


def noon_state(n_nu: int) -> TwoModeState:
    """``(|n,0> + |0,n>)/sqrt(2)``."""
    if not isinstance(n_nu, int) or n_nu < 1:
        raise ValueError(f"NOON photon number must be a positive integer, got {n_nu!r}")
    amp = 1.0 / math.sqrt(2.0)
    return TwoModeState({(n_nu, 0): amp, (0, n_nu): amp})


def family_state(j: int, q: int) -> TwoModeState:
    """``(|j, j+4q-2> + |j+4q-2, j>)/sqrt(2)``, the maximally entangled family.

    The total photon number is ``2(j + 2q - 1)`` (always even) and the ring
    ``j + 2q`` of the deflection pattern carries no population; that index is
    recorded under ``tags["missing_ring"]``.
    """
    if not isinstance(j, int) or j < 0:
        raise ValueError(f"j must be a non-negative integer, got {j!r}")
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    partner = j + 4 * q - 2
    amp = 1.0 / math.sqrt(2.0)
    return TwoModeState(
        {(j, partner): amp, (partner, j): amp},
        tags={"missing_ring": j + 2 * q},
    )


def mode_swap(state: TwoModeState) -> TwoModeState:
    """Exchange the two cavity modes: ``C'_{m,n} = C_{n,m}``."""
    return TwoModeState(
        {(n, m): c for (m, n), c in state.amplitudes.items()}, tags=state.tags
    )
