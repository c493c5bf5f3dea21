"""Crossed-cavity optical Stern-Gerlach simulator.

Forward model for the 2D transverse momentum distribution of a two-level
atom deflected by two orthogonal quantized cavity modes prepared in a
finite-support two-mode Fock state, plus the entanglement readouts the
pattern supports: rotation-angle concurrence for one-photon states and
missing-ring detection for the maximally entangled even-photon family.
"""

from .detect import (
    DetectionReport,
    NoSignalError,
    RingFlag,
    concurrence_from_angle,
    detect,
    missing_rings,
    predicted_missing,
    rotation_angle,
)
from .distribution import (
    ConsistencyReport,
    GridSpec,
    MomentumGrid,
    PopulationSpectrum,
    SpectrumEntry,
    default_p_max,
    populations,
    spectrum_consistency,
    total_probability,
    w_grid,
    w_point,
)
from .io import ParsedSpec, StateSpecError, parse_state_spec, serialize_state_spec
from .kernel import (
    KernelIndices,
    MomentumPoint,
    UnsupportedProfileError,
    fourier_analytic,
    gamma,
    harmonic_coefficients,
)
from .quadrature import (
    AccuracyError,
    QuadratureOracle,
    QuadratureSpec,
    SlitProfile,
    fourier_numeric,
    w_numeric,
)
from .rotation import d_coeff, d_matrix, d_matrix_table, dbar
from .states import (
    SUPPORT_CAP,
    AtomState,
    CouplingParams,
    InvalidStateError,
    TwoModeState,
    family_state,
    mode_swap,
    noon_state,
    normalize,
    one_photon_state,
    two_photon_state,
)
from .validation import BatterySummary, kernel_battery

__version__ = "0.1.0"
