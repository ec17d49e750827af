"""Integration contours in the complex coordinate plane.

Two contours are used: a straight line shifted below the real axis,
r = t - i*eps, and an arch-shaped path xi(t) that is the image of the
shifted line under the coordinate change sinh r = -i * exp(i*xi).
Both expose the same (point, dpoint, d2point) interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricGrid, EpsilonOutOfRange, SingularPoint


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < math.pi / 2):
        raise EpsilonOutOfRange(f"epsilon={epsilon} not in (0, pi/2)")


@dataclass(frozen=True)
class ShiftedLine:
    """The contour t |-> t - i*eps for real t in [-L, L]."""

    epsilon: float
    L: float = 12.0

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)

    def point(self, t):
        return np.asarray(t, dtype=float) - 1j * self.epsilon

    def dpoint(self, t):
        return np.ones_like(np.asarray(t, dtype=float), dtype=complex)

    def d2point(self, t):
        return np.zeros_like(np.asarray(t, dtype=float), dtype=complex)


def arch_point(t, epsilon: float):
    """Arch contour point xi(t) = v - i*u.

    v = arctan(tanh t / tan eps) stays inside (-pi/2 + eps, pi/2 - eps) and
    u = (1/2) log(sinh^2 t + sin^2 eps), so that sinh(t - i*eps) equals
    -i * exp(i*xi(t)) identically.  The apex height is -u(0) = log(1/sin eps).
    """
    _check_epsilon(epsilon)
    t = np.asarray(t, dtype=float)
    v = np.arctan(np.tanh(t) / math.tan(epsilon))
    u = 0.5 * np.log(np.sinh(t) ** 2 + math.sin(epsilon) ** 2)
    return v - 1j * u


@dataclass(frozen=True)
class ArchContour:
    """The arch xi(t) parametrized by the same t as the shifted line."""

    epsilon: float
    L: float = 10.0

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)

    def point(self, t):
        return arch_point(t, self.epsilon)

    def dpoint(self, t):
        # differentiate sinh(t - i*eps) = -i exp(i*xi):  xi'(t) = -i coth(t - i*eps)
        r = np.asarray(t, dtype=float) - 1j * self.epsilon
        return -1j * np.cosh(r) / np.sinh(r)

    def d2point(self, t):
        r = np.asarray(t, dtype=float) - 1j * self.epsilon
        return 1j / np.sinh(r) ** 2


def liouville_derivatives(xi):
    """Inverse map r(xi) of the arch change of variables, with derivatives.

    Solves sinh r = -i exp(i*xi) on the branch that is continuous along the
    arch and reproduces r(xi(t)) = t - i*eps there.  Returns (r, r', r'', r''')
    with the closed forms r' = i tanh r, r'' = i r'/cosh^2 r and
    r''' = i (r'' - 2 tanh r * r'^2) / cosh^2 r.

    Raises SingularPoint where exp(2i*xi) = 1 (cosh r vanishes and the
    Jacobian blows up).
    """
    xi = np.asarray(xi, dtype=complex)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if np.any(np.abs(1.0 - np.exp(2j * xi)) < 1e-12):
        raise SingularPoint("exp(2i*xi) = 1: branch point of the inverse map")

    r = np.arcsinh(-1j * np.exp(1j * xi))
    th = np.tanh(r)
    ch2 = np.cosh(r) ** 2
    r1 = 1j * th
    r2 = 1j * r1 / ch2
    r3 = 1j * (r2 - 2.0 * th * r1**2) / ch2
    if scalar:
        return complex(r[0]), complex(r1[0]), complex(r2[0]), complex(r3[0])
    return r, r1, r2, r3


def _check_symmetric_grid(t: np.ndarray) -> None:
    if np.max(np.abs(t + t[::-1])) > 1e-12:
        raise AsymmetricGrid("grid must be symmetric about t = 0")


def pt_path_check(contour, t_grid) -> float:
    """Max deviation of the contour from path PT symmetry.

    A PT-symmetric path satisfies z(-t) = -conj(z(t)); returns the max of
    |z(-t) + conj(z(t))| over the (symmetric) grid.
    """
    t = np.asarray(t_grid, dtype=float)
    _check_symmetric_grid(t)
    zp = contour.point(t)
    zm = contour.point(-t)
    return float(np.max(np.abs(zm + np.conj(zp))))
