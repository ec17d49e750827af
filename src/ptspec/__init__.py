"""Exactly solvable PT-symmetric quantum models on complex contours.

Closed-form spectra and eigenfunctions for three related models (a hyperbolic
well with an imaginary tail, a regularized sinh/cosh pair, and a screened
exponential well on an arch-shaped path), the change of variables connecting
them, and an independent finite-difference/residual verification stack.
"""

from .contour import ArchContour, ShiftedLine, arch_point, liouville_derivatives, pt_path_check
from .errors import PtspecError
from .liouville import TransformInput, transform_potential, verify_hulthen_identity
from .models import (
    EckartParams,
    HulthenParams,
    PTParams,
    pt_symmetry_check,
    sinh_inverse_square_expansion,
    v_eckart,
    v_hulthen,
    v_pt,
)
from .oracle import (
    DEFAULT_SEED,
    GridSpec,
    TridiagonalOperator,
    VerificationReport,
    convergence_study,
    discretize,
    match_levels,
    shift_invert_eigen,
)
from .specfun import GaussParams, complex_power_tracked, gauss2f1_terminating, jacobi_poly
from .spectra import (
    Level,
    Spectrum,
    eckart_gap,
    eckart_levels,
    hulthen_levels,
    pt_levels,
    pt_levels_complex,
    spectrum_to_csv,
    spectrum_to_json,
)
from .wavefun import eckart_psi, hulthen_psi, pt_psi, residual_check

__version__ = "0.1.0"

__all__ = [
    "ArchContour",
    "DEFAULT_SEED",
    "EckartParams",
    "GaussParams",
    "GridSpec",
    "HulthenParams",
    "Level",
    "PTParams",
    "PtspecError",
    "ShiftedLine",
    "Spectrum",
    "TransformInput",
    "TridiagonalOperator",
    "VerificationReport",
    "arch_point",
    "complex_power_tracked",
    "convergence_study",
    "discretize",
    "eckart_gap",
    "eckart_levels",
    "eckart_psi",
    "gauss2f1_terminating",
    "hulthen_levels",
    "hulthen_psi",
    "jacobi_poly",
    "liouville_derivatives",
    "match_levels",
    "pt_levels",
    "pt_levels_complex",
    "pt_path_check",
    "pt_psi",
    "pt_symmetry_check",
    "residual_check",
    "shift_invert_eigen",
    "sinh_inverse_square_expansion",
    "spectrum_to_csv",
    "spectrum_to_json",
    "transform_potential",
    "v_eckart",
    "v_hulthen",
    "v_pt",
    "verify_hulthen_identity",
]
