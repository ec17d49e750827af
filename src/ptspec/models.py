"""Model parameter records, complex potentials and the model table.

Three exactly solvable models, all in units hbar = 2m = 1:

* ``eckart``  -- hyperbolic well A(A-1)/sinh^2 r with an imaginary Coulomb-like
  tail -2i*beta*coth r, evaluated on a line shifted below the real axis;
* ``pt``      -- Poschl-Teller pair of inverse-squared sinh/cosh wells with the
  sinh singularity regularized by the same complex shift;
* ``hulthen`` -- exponential-screened well in the variable xi, evaluated on an
  arch-shaped contour in the xi plane.

``MODELS`` holds one ``Model`` row per model with everything that differs
between them, and ``model_kind`` is the one lookup from a parameter record to
its row.  Every place that used to ask "which model is this?" goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Union

import numpy as np

from .contour import ArchContour, ShiftedLine, _check_epsilon, _check_symmetric_grid
from .errors import SingularPoint

_SINGULAR_TOL = 1e-12


def _check_finite(record) -> None:
    for f in fields(record):
        value = getattr(record, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name}={value} is not finite")


@dataclass(frozen=True)
class EckartParams:
    """Well strength A (any real; A(A-1) is what enters) and real coupling beta."""

    A: float
    beta: float

    def __post_init__(self) -> None:
        _check_finite(self)


@dataclass(frozen=True)
class PTParams:
    """Couplings alpha = A + 1/2 > 0, beta = B - 1/2 > 0 and contour shift."""

    alpha: float
    beta: float
    epsilon: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must both be positive")
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class HulthenParams:
    """Screened-well parameters: alpha > 0 and the combination C = A + B."""

    alpha: float
    C: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def A(self) -> float:
        return 1.0 - self.alpha**2

    @property
    def B(self) -> float:
        return self.C - self.A


ModelSpec = Union[EckartParams, PTParams, HulthenParams]


def v_eckart(p: EckartParams, r):
    """A(A-1)/sinh^2 r - 2i*beta*cosh r / sinh r at complex r."""
    r = np.asarray(r, dtype=complex)
    sh = np.sinh(r)
    if np.any(np.abs(sh) < _SINGULAR_TOL):
        raise SingularPoint("sinh r vanishes on the evaluation set")
    return p.A * (p.A - 1.0) / sh**2 - 2j * p.beta * np.cosh(r) / sh


def v_pt(p: PTParams, r):
    """(beta^2 - 1/4)/sinh^2 r - (alpha^2 - 1/4)/cosh^2 r at complex r."""
    r = np.asarray(r, dtype=complex)
    sh = np.sinh(r)
    ch = np.cosh(r)
    if np.any(np.abs(sh) < _SINGULAR_TOL) or np.any(np.abs(ch) < _SINGULAR_TOL):
        raise SingularPoint("sinh r or cosh r vanishes on the evaluation set")
    return (p.beta**2 - 0.25) / sh**2 - (p.alpha**2 - 0.25) / ch**2


def v_hulthen(p: HulthenParams, xi):
    """A/(1 - e^{2i xi})^2 + B/(1 - e^{2i xi}) at complex xi."""
    xi = np.asarray(xi, dtype=complex)
    d = 1.0 - np.exp(2j * xi)
    if np.any(np.abs(d) < _SINGULAR_TOL):
        raise SingularPoint("exp(2i*xi) = 1 on the evaluation set")
    return p.A / d**2 + p.B / d


@dataclass(frozen=True)
class Model:
    """One row of the model table.

    ``flags`` are the two CLI parameters, in the order ``build(a, b, eps)``
    takes them.  ``potential``, ``levels`` and ``psi`` name functions in
    ``ptspec.models``, ``ptspec.spectra`` and ``ptspec.wavefun``, and each
    of those modules looks its own column up in its globals when called.
    Names rather than function objects keep this module free of imports
    from the modules above it, and a function replaced at its module global
    (as ``bench/tracing.py`` does) is the one that runs.  ``contour`` is the
    natural contour: its default ``L`` is the ``sample`` window, and
    ``residual_window`` the ``verify --method residual`` one.  ``level_key``
    lists the Level fields that ``sample --what psi`` matches.
    """

    name: str
    params: type
    flags: tuple
    build: Callable
    potential: str
    levels: str
    psi: str
    contour: type
    residual_window: float
    level_key: tuple

    @property
    def on_arch(self) -> bool:
        return self.contour is ArchContour


MODELS = {
    m.name: m
    for m in (
        Model("eckart", EckartParams, ("A", "beta"), lambda a, b, eps: EckartParams(a, b),
              "v_eckart", "eckart_levels", "eckart_psi", ShiftedLine, 8.0, ("N",)),
        Model("pt", PTParams, ("alpha", "beta"), PTParams,
              "v_pt", "pt_levels", "pt_psi", ShiftedLine, 8.0, ("sigma", "tau", "N")),
        Model("hulthen", HulthenParams, ("alpha", "C"), lambda a, b, eps: HulthenParams(a, b),
              "v_hulthen", "hulthen_levels", "hulthen_psi", ArchContour, 10.0, ("sigma", "N")),
    )
}


def model_kind(model: ModelSpec) -> Model:
    """The table row of a parameter record; TypeError for anything else."""
    for kind in MODELS.values():
        if isinstance(model, kind.params):
            return kind
    raise TypeError(f"not a model parameter record: {model!r}")


def potential_fn(model: ModelSpec):
    """Potential of a model as a single-argument callable on contour points."""
    v = globals()[model_kind(model).potential]
    return lambda z: v(model, z)


def pt_symmetry_check(model: ModelSpec, contour, t_grid) -> float:
    """Max of |V(z(-t)) - conj(V(z(t)))| over a symmetric t grid.

    Zero (to rounding) certifies PT symmetry of the potential on the path.
    """
    t = np.asarray(t_grid, dtype=float)
    _check_symmetric_grid(t)
    v = potential_fn(model)
    return float(np.max(np.abs(v(contour.point(-t)) - np.conj(v(contour.point(t))))))


def sinh_inverse_square_expansion(t: float, epsilon: float):
    """Exact 1/sinh^2(t - i*eps) and its small-shift expansion.

    Returns (exact, first_order) with
    first_order = 1/sinh^2 t + 2i*eps*cosh t / sinh^3 t; the difference is
    O(eps^2) uniformly away from t = 0.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.abs(np.sinh(t_arr)) < _SINGULAR_TOL):
        raise SingularPoint("expansion point t = 0 is singular")
    exact = 1.0 / np.sinh(t_arr - 1j * epsilon) ** 2
    first = 1.0 / np.sinh(t_arr) ** 2 + 2j * epsilon * np.cosh(t_arr) / np.sinh(t_arr) ** 3
    return exact, first
