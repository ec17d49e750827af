"""Integration contours in the complex coordinate plane, charts of their points
and the one sampled point set every check evaluates a potential on.

Two contours are used: a straight line shifted below the real axis,
r = t - i*eps, and an arch-shaped path xi(t) that is the image of the
shifted line under the coordinate change sinh r = -i * exp(i*xi).
Both expose the same (point, derivatives) interface.  A chart holds
points with the transcendental arrays derived from them, each made once.
A ``SampledContour`` holds a contour at parameter values t with its chart
and the potential there: the finite-difference operator, the residual check,
``sample`` and the Liouville identity check all read V from it, and its one
finiteness check covers the points, V, eigenfunctions and transformed V.
Those four are evaluated with numpy's floating-point warnings off: a value
that overflows is reported once, by name, by that check, and nothing else.

The Liouville identity check reads every array point by point and keeps only
maxima, so it samples the arch in consecutive blocks of at most
``BLOCK_POINTS`` values of t (``SampledContour.blocks``): its working set is
O(BLOCK_POINTS) plus the 8 bytes per sample of t, whatever the sample count.
The residual check and the eigenfunctions read neighbouring points (stencils,
branch-tracked powers), so they sample the whole grid at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (AsymmetricGrid, EpsilonOutOfRange, GridTooCoarse, SingularPoint, SingularPotentialOnGrid,
                     VanishingJacobian)
from .specfun import complex_power_tracked, tracked_log, tracked_power

_SINGULAR_TOL = 1e-12

#: most points of one block: 128 KiB per complex array, so the dozen arrays a
#: block of the Liouville check holds at once fit in a 2 MiB L2 cache
BLOCK_POINTS = 8192


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < math.pi / 2):
        raise EpsilonOutOfRange(f"epsilon={epsilon} not in (0, pi/2)")
    if math.sin(epsilon) ** 2 < sys.float_info.min:  # tan(epsilon) is then subnormal too
        raise EpsilonOutOfRange(f"epsilon={epsilon} is too small: sin(epsilon)^2 is not a normal float")


@dataclass(frozen=True)
class ShiftedLine:
    """The contour t |-> t - i*eps for real t in [-L, L]."""

    epsilon: float
    L: float = 12.0

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)

    def point(self, t):
        return np.asarray(t, dtype=float) - 1j * self.epsilon

    def derivatives(self, t) -> tuple:
        """(xi'(t), xi''(t)) = (1, 0)."""
        t = np.asarray(t, dtype=float)
        return np.ones_like(t, dtype=complex), np.zeros_like(t, dtype=complex)


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

    def derivatives(self, t) -> tuple:
        """(xi'(t), xi''(t)), from one sinh(t - i*eps)."""
        # differentiate sinh(t - i*eps) = -i exp(i*xi):  xi'(t) = -i coth(t - i*eps)
        r = np.asarray(t, dtype=float) - 1j * self.epsilon
        sh = np.sinh(r)
        return -1j * np.cosh(r) / sh, 1j / sh**2


class Chart:
    """Contour points r with what the sinh/cosh potentials and shifted-line
    eigenfunctions derive from them: sinh r, cosh r, Eckart's z = (1 - coth r)/2,
    -sinh^2 r, the branch-tracked logs of sinh r and cosh r and, through
    ``power``, the last power taken of each log.

    sinh r and cosh r (or the caller's ``ch``) are computed on construction,
    the rest on first use and then kept, so a model pays only for what it
    reads and a failing check raises in the level that first needs it.  A
    single point is held as a one-element array, so it gives exactly the
    value it has inside an array.
    """

    def __init__(self, r, ch=None) -> None:
        r = np.asarray(r, dtype=complex)
        self.scalar = r.ndim == 0
        self.r = np.atleast_1d(r)
        self.sh = np.sinh(self.r)
        self.ch = np.cosh(self.r) if ch is None else ch
        self._held = {}

    def __len__(self) -> int:
        return len(self.r)

    @classmethod
    def of(cls, r, cosh_too: bool = False) -> Chart:
        """The Chart of points ``r`` (``r`` itself if it is one); SingularPoint
        where sinh r (and, with ``cosh_too``, cosh r) vanishes."""
        chart = r if isinstance(r, cls) else cls(r)
        if chart._vanishing[0] or (cosh_too and chart._vanishing[1]):
            raise SingularPoint(f"{'sinh r or cosh r' if cosh_too else 'sinh r'} vanishes on the evaluation set")
        return chart

    @cached_property
    def _vanishing(self) -> tuple:
        return tuple(bool(np.any(np.abs(a) < _SINGULAR_TOL)) for a in (self.sh, self.ch))

    @cached_property
    def z(self) -> np.ndarray:
        return 0.5 * (1.0 - self.ch / self.sh)

    @cached_property
    def minus_sh2(self) -> np.ndarray:
        return -(self.sh**2)

    @cached_property
    def log_sh(self) -> np.ndarray:
        return tracked_log(self.sh)

    @cached_property
    def log_ch(self) -> np.ndarray:
        return tracked_log(self.ch)

    def power(self, which: str, exponent) -> np.ndarray:
        """``tracked_power`` of ``log_sh`` or ``log_ch`` (``which`` is "sh" or "ch"), read-only.

        The last power of each log is held, so the levels of one family, which come
        one after another with the same exponent, share it.  One slot per log, not
        one per exponent: a Hulthen report's exponents change with every level.
        """
        key = np.asarray(exponent, dtype=complex).tobytes()  # bit for bit: 0.0 and -0.0 differ
        held = self._held.get(which)
        if held is None or held[0] != key:
            power = tracked_power(getattr(self, "log_" + which), exponent)
            power.flags.writeable = False
            self._held[which] = held = (key, power)
        return held[1]

    def out(self, values: np.ndarray):
        """``values`` as the caller's points came in: a complex for a single point."""
        return complex(values[0]) if self.scalar else values


class ArchChart:
    """Arch points xi with q = e^{2i xi}, both formed and checked on construction to
    keep 1 - q off zero (the map's branch point, the well's pole), and from first use
    ``inverse``: r as its Chart, which reuses the map's cosh r, r' and the Jacobian
    terms, not r'' or r''', and ``sqrt_r1``: r'^(1/2), branch-tracked along the
    points' order.
    """

    def __init__(self, xi) -> None:
        xi = np.asarray(xi, dtype=complex)
        self.scalar = xi.ndim == 0
        self.xi = np.atleast_1d(xi)
        self.q = np.exp(2j * self.xi)
        if np.any(np.abs(1.0 - self.q) < _SINGULAR_TOL):
            raise SingularPoint("exp(2i*xi) = 1: branch point of the inverse map")

    def __len__(self) -> int:
        return len(self.xi)

    @cached_property
    def inverse(self) -> tuple:
        return jacobian_terms(*liouville_derivatives(self))

    @cached_property
    def sqrt_r1(self) -> np.ndarray:
        return complex_power_tracked(self.inverse[1], 0.5)

    out = Chart.out


def liouville_derivatives(xi):
    """Inverse map r(xi) of the arch change of variables, with derivatives.

    Solves sinh r = -i exp(i*xi) on the branch that is continuous along the
    arch and reproduces r(xi(t)) = t - i*eps there.  Returns (r, r', r'', r''')
    with the closed forms r' = i tanh r, r'' = i r'/cosh^2 r and
    r''' = i (r'' - 2 tanh r * r'^2) / cosh^2 r.  ``xi`` is points or their
    ArchChart; for an ArchChart, r comes back as its Chart.

    Raises SingularPoint where exp(2i*xi) = 1 (cosh r vanishes and the
    Jacobian blows up).
    """
    c = xi if isinstance(xi, ArchChart) else ArchChart(xi)
    r = np.arcsinh(-1j * np.exp(1j * c.xi))
    th = np.tanh(r)
    ch = np.cosh(r)
    r1 = 1j * th
    r2 = 1j * r1 / ch**2
    r3 = 1j * (r2 - 2.0 * th * r1**2) / ch**2
    return (Chart(r, ch), r1, r2, r3) if c is xi else tuple(map(c.out, (r, r1, r2, r3)))


def jacobian_terms(r, r1, r2, r3) -> tuple:
    """(r, r', r'', r''') -> (r, r', 0.75 (r''/r')^2, 0.5 r'''/r'); VanishingJacobian where r' vanishes."""
    if np.any(np.abs(np.asarray(r1)) < 1e-12):
        raise VanishingJacobian("r'(xi) vanishes on the evaluation set")
    return r, r1, 0.75 * (r2 / r1) ** 2, 0.5 * (r3 / r1)


class SampledContour:
    """A contour at parameter values t, with what the FD operator, every level's
    eigenfunction, residual check and Liouville identity check share there.

    ``chart`` is the Chart of xi(t) that the line eigenfunctions read or, on
    the arch, the ArchChart whose inverse map the arch eigenfunction and the
    identity check read.  ``potential`` is a callable on that chart (the
    model's, or None where only points are sampled), and ``v`` its values at
    ``xi``.  Arrays are computed on first use and kept, as in Chart.
    """

    def __init__(self, contour, t, potential=None) -> None:
        self.contour = contour
        self.t = np.asarray(t, dtype=float)
        self.potential = potential
        #: the points of the whole sample, when this one is a block of it
        self.sample_points = len(self.t)

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def blocks(cls, contour, t, potential=None):
        """The SampledContours of consecutive slices of ``t``, at most BLOCK_POINTS
        points each, made one at a time."""
        for lo in range(0, len(t), BLOCK_POINTS):
            block = cls(contour, t[lo : lo + BLOCK_POINTS], potential)
            block.sample_points = len(t)
            yield block

    def finite(self, what: str, values) -> np.ndarray:
        """``values`` as an array; SingularPotentialOnGrid names ``what``, the first t where
        it is not finite and how many of these points are not (of a block's, in a block)."""
        values = np.asarray(values)
        bad = ~np.isfinite(values)
        if bad.any():
            t = float(self.t[bad.argmax()])
            count = f"{int(bad.sum())} of {len(self)} points"
            if self.sample_points != len(self):
                count = f"{int(bad.sum())} of this block's {len(self)} points, of {self.sample_points} in all"
            raise SingularPotentialOnGrid(f"{what} not finite at t = {t} ({count})")
        return values

    @cached_property
    def xi(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            xi = self.contour.point(self.t)
        return self.finite("contour point", xi)

    @cached_property
    def chart(self) -> Chart | ArchChart:
        return (ArchChart if isinstance(self.contour, ArchContour) else Chart)(self.xi)

    @cached_property
    def v(self) -> np.ndarray:
        """The potential at ``xi``, checked by ``finite``."""
        with np.errstate(all="ignore"):
            v = np.asarray(self.potential(self.chart), dtype=complex)
        return self.finite("potential", v)

    @cached_property
    def inverse_map(self) -> ArchChart:
        """The arch chart, after ``v``, once its map passes sinh^2 r = -q and cosh^2 r = 1 - q."""
        self.v
        c = self.chart
        r, q = c.inverse[0], c.q
        off = np.maximum(np.abs(r.sh**2 + q), np.abs(r.ch**2 - (1.0 - q)))
        piece = float(np.max(off / np.maximum(1.0, np.abs(q))))
        if piece > 1e-9:
            raise RuntimeError(f"inverse-map algebra broken: sinh^2/cosh^2 identities off by {piece}")
        return c

    @cached_property
    def h(self) -> float:
        """The t step; GridTooCoarse unless t is uniform, increasing and has
        the 5 samples the interior stencil needs."""
        if len(self.t) < 5:
            raise GridTooCoarse("need at least 5 samples for the interior stencil")
        dt = np.diff(self.t)
        h = dt[0]
        if h <= 0 or np.max(np.abs(dt - h)) > 1e-9 * max(1.0, abs(h)):
            raise GridTooCoarse("samples must sit on a uniform increasing t-grid")
        return h

    @cached_property
    def stencil(self) -> tuple:
        """The potential at the stencil centres t[2:-2] and, on the arch, ``chain_rule``
        there; None in its place on the line, whose xi' = 1 and xi'' = 0 make it the identity."""
        chain = None if isinstance(self.contour, ShiftedLine) else self.chain_rule()
        return self.v[2:-2], chain

    def chain_rule(self) -> tuple:
        """xi'^2, xi'', xi'^3 at the stencil centres t[2:-2]."""
        xp, xpp = self.contour.derivatives(self.t[2:-2])
        return xp**2, xpp, xp**3


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
