"""Contours: the shifted line, the arch, and the inverse map between them."""

from __future__ import annotations

import math

import numpy as np
import pytest

import ptspec
from ptspec import wavefun
from ptspec.contour import (
    ArchContour,
    SampledContour,
    ShiftedLine,
    arch_point,
    liouville_derivatives,
    pt_path_check,
)
from ptspec.errors import AsymmetricGrid, EpsilonOutOfRange, SingularPoint, SingularPotentialOnGrid


# ---- shifted line ----------------------------------------------------------------


def test_line_point_and_derivatives():
    line = ShiftedLine(epsilon=0.5)
    t = np.array([-1.0, 0.0, 2.5])
    assert np.array_equal(line.point(t), t - 0.5j)
    d1, d2 = line.derivatives(t)
    assert np.array_equal(d1, np.ones(3, dtype=complex))
    assert np.array_equal(d2, np.zeros(3, dtype=complex))
    assert line.L == 12.0


@pytest.mark.parametrize("eps", [0.0, math.pi / 2, 2.0, -0.3])
def test_epsilon_range_enforced(eps):
    with pytest.raises(EpsilonOutOfRange):
        ShiftedLine(epsilon=eps)
    with pytest.raises(EpsilonOutOfRange):
        ArchContour(epsilon=eps)
    with pytest.raises(EpsilonOutOfRange):
        arch_point(0.0, eps)


def test_line_modulus_identities():
    # |sinh(t - i eps)|^2 = sinh^2 t + sin^2 eps and the cosh analogue
    rng = np.random.default_rng(7)
    for eps in (0.2, 0.5, 1.0):
        t = rng.uniform(-5, 5, 200)
        r = t - 1j * eps
        sh2 = np.abs(np.sinh(r)) ** 2
        ch2 = np.abs(np.cosh(r)) ** 2
        scale = 1.0 + np.sinh(t) ** 2
        assert np.max(np.abs(sh2 - (np.sinh(t) ** 2 + math.sin(eps) ** 2)) / scale) < 1e-12
        assert np.max(np.abs(ch2 - (np.sinh(t) ** 2 + math.cos(eps) ** 2)) / scale) < 1e-12


# ---- arch ------------------------------------------------------------------------


def test_arch_apex_hand_value():
    # at t = 0 the real part vanishes and the height is log(1/sin eps)
    xi0 = arch_point(0.0, math.pi / 6)
    assert xi0 == pytest.approx(1j * math.log(2.0), abs=1e-15)


def test_arch_defining_identity():
    rng = np.random.default_rng(8)
    for eps in (0.3, 0.5, 1.2):
        t = rng.uniform(-6, 6, 50)
        xi = arch_point(t, eps)
        assert np.max(np.abs(np.sinh(t - 1j * eps) + 1j * np.exp(1j * xi))) < 1e-12
        # relative form stays at rounding level even far out on the tails
        t = rng.uniform(-10, 10, 50)
        xi = arch_point(t, eps)
        sh = np.sinh(t - 1j * eps)
        assert np.max(np.abs(sh + 1j * np.exp(1j * xi)) / np.maximum(1.0, np.abs(sh))) < 1e-13


def test_arch_asymptotes():
    xi = arch_point(20.0, 0.5)
    assert xi.real == pytest.approx(math.pi / 2 - 0.5, abs=1e-8)
    assert -xi.imag == pytest.approx(20.0 - math.log(2.0), abs=1e-8)


def test_arch_apex_rises_as_shift_shrinks():
    heights = [arch_point(0.0, eps).imag for eps in (1e-1, 1e-2, 1e-3)]
    assert heights[0] < heights[1] < heights[2]


def test_arch_derivatives_match_finite_differences():
    arch = ArchContour(epsilon=0.5)
    rng = np.random.default_rng(9)
    t = rng.uniform(-3, 3, 20)
    h = 1e-5
    d1_fd = (arch.point(t + h) - arch.point(t - h)) / (2 * h)
    d2_fd = (arch.point(t + h) - 2 * arch.point(t) + arch.point(t - h)) / h**2
    d1, d2 = arch.derivatives(t)
    assert np.max(np.abs(d1_fd - d1)) < 1e-8
    assert np.max(np.abs(d2_fd - d2)) < 1e-4


def test_real_part_stays_inside_strip():
    for eps in (0.3, 0.5, 1.2):
        t = np.linspace(-50, 50, 1001)
        v = arch_point(t, eps).real
        assert np.all(np.abs(v) < math.pi / 2 - eps + 1e-12)


# ---- path symmetry check -----------------------------------------------------------


def test_path_symmetry_line_is_exact():
    t = np.linspace(-10, 10, 101)
    assert pt_path_check(ShiftedLine(0.5), t) == 0.0


@pytest.mark.parametrize("eps", [0.5, 1.2])
def test_path_symmetry_arch(eps):
    t = np.linspace(-10, 10, 101)
    assert pt_path_check(ArchContour(eps), t) < 1e-12


def test_path_symmetry_rejects_asymmetric_grid():
    with pytest.raises(AsymmetricGrid):
        pt_path_check(ShiftedLine(0.5), np.array([-1.0, 0.0, 0.5]))


def test_path_symmetry_flags_tilted_path():
    class Tilted:
        def point(self, t):
            t = np.asarray(t, dtype=float)
            return t - 1j * (0.5 + 0.05 * np.tanh(t))

    t = np.linspace(-10, 10, 101)
    assert pt_path_check(Tilted(), t) > 0.05


# ---- inverse map -------------------------------------------------------------------


def test_inverse_map_recovers_line_parameter():
    rng = np.random.default_rng(10)
    for eps in (0.3, 0.5, 1.0):
        t = rng.uniform(-10, 10, 50)
        r, _, _, _ = liouville_derivatives(arch_point(t, eps))
        assert np.max(np.abs(r - (t - 1j * eps))) < 1e-12


def test_inverse_map_jacobian_at_apex():
    # at the apex r = -i/2, so r' = i tanh(-i/2) = tan(1/2), purely real
    _, r1, _, _ = liouville_derivatives(arch_point(0.0, 0.5))
    assert r1 == pytest.approx(math.tan(0.5), abs=1e-14)


def test_inverse_map_derivative_consistency():
    t = np.linspace(-4, 4, 41)
    r, r1, _, _ = liouville_derivatives(arch_point(t, 0.5))
    assert np.max(np.abs(np.cosh(r) * r1 - 1j * np.sinh(r))) < 1e-12


def test_inverse_map_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    xi = arch_point(rng.uniform(-3, 3, 20), 0.5)
    h = 1e-5
    for x in xi:
        _, r1, r2, r3 = liouville_derivatives(x)
        rp, r1p, r2p, _ = liouville_derivatives(x + h)
        rm, r1m, r2m, _ = liouville_derivatives(x - h)
        assert abs((rp - rm) / (2 * h) - r1) < 1e-8
        assert abs((r1p - r1m) / (2 * h) - r2) < 1e-8
        assert abs((r2p - r2m) / (2 * h) - r3) < 1e-7


def test_inverse_map_singular_points():
    for xi in (0.0, math.pi):
        with pytest.raises(SingularPoint):
            liouville_derivatives(xi)



# ---- sampled point sets ------------------------------------------------------------


def test_one_sampled_contour_class_behind_every_import_path():
    assert ptspec.SampledContour is wavefun.SampledContour is SampledContour


def test_sampled_contour_names_the_first_point_where_the_potential_is_not_finite():
    t = np.linspace(-2.0, 2.0, 5)
    samples = SampledContour(ShiftedLine(0.5), t)  # no potential: points only
    assert np.array_equal(samples.xi, t - 0.5j)
    spiky = SampledContour(ShiftedLine(0.5), t, lambda c: np.where(c.r.real > 0.5, np.inf, 0.0) + 0j)
    with pytest.raises(SingularPotentialOnGrid, match=r"^potential not finite at t = 1\.0 \(2 of 5 points\)$"):
        spiky.v
