"""Special-function kernel: terminating Gauss series, complex-parameter
Jacobi polynomials, and branch-tracked complex powers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    gauss_sum_direct,
    jacobi_explicit_highprec,
    jacobi_explicit_loggamma,
    pochhammer,
    rising,
)
from ptspec.errors import NonTerminating, PhaseJump, PoleInC, ZeroBase
from ptspec.specfun import (
    complex_power_tracked,
    gauss2f1_terminating,
    jacobi_poly,
    tracked_log,
    tracked_power,
)


# ---- terminating Gauss series -------------------------------------------------


def test_gauss_b_zero_is_one():
    for z in (0.3 + 0.1j, -2.0, 5.0 + 5.0j):
        assert gauss2f1_terminating(1.7 - 0.3j, 0.0, 1.0, z) == 1.0


def test_gauss_degree_one_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        got = gauss2f1_terminating(2.0, -1.0, 1.0, z)
        assert got == pytest.approx(1.0 - 2.0 * z, rel=1e-15)


def test_gauss_two_term_value_matches_horner():
    # parameters of the first excited state of the A=3.5 well with unit
    # imaginary coupling: a = 5, b = -1, c = 2.5 - (2/3) i
    a, b, c = 5.0, -1.0, 2.5 - (2.0 / 3.0) * 1j
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        got = gauss2f1_terminating(a, b, c, z)
        horner = 1.0 + (a * b / c) * z
        assert got == pytest.approx(horner, rel=1e-14)


def test_gauss_matches_direct_term_sum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(0, 9))
        a = rng.uniform(-3, 3) + 1j * rng.uniform(-2, 2)
        c = rng.uniform(0.5, 3) + 1j * rng.uniform(-2, 2)
        z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        got = gauss2f1_terminating(a, -float(n), c, z)
        want = gauss_sum_direct(a, -n, c, z, n)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_gauss_is_polynomial_of_stated_degree():
    # fit the four coefficients on four nodes, then predict five fresh points
    a, b, c = -3.0, 1.3 + 0.4j, 0.9 - 0.2j
    nodes = np.array([0.1, 0.6 + 0.3j, -0.8, 1.1 - 0.5j])
    vals = np.array([gauss2f1_terminating(a, b, c, z) for z in nodes])
    coeffs = np.linalg.solve(np.vander(nodes, 4, increasing=True), vals)
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        got = gauss2f1_terminating(a, b, c, z)
        want = sum(coeffs[k] * z**k for k in range(4))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_gauss_nonterminating_raises():
    with pytest.raises(NonTerminating):
        gauss2f1_terminating(1.5, 2.3, 1.0, 0.5)


def test_gauss_near_integer_within_tolerance_still_terminates():
    nudged = gauss2f1_terminating(2.0, -2.0 + 5e-13, 1.2, 0.7)
    exact = gauss2f1_terminating(2.0, -2.0, 1.2, 0.7)
    assert nudged == pytest.approx(exact, rel=1e-10)
    with pytest.raises(NonTerminating):
        gauss2f1_terminating(2.0, -2.0 + 1e-6, 1.2, 0.7)


def test_gauss_pole_in_c_raises():
    with pytest.raises(PoleInC):
        gauss2f1_terminating(-5.0, 1.3, -3.0, 0.5)


def test_gauss_pole_beyond_termination_is_harmless():
    # c = -3 poles the series only at term 4; termination at N = 2 never gets there
    got = gauss2f1_terminating(1.2, -2.0, -3.0, 0.5)
    want = gauss_sum_direct(1.2, -2, -3.0, 0.5, 2)
    assert got == pytest.approx(want, rel=1e-14)


def test_gauss_array_argument():
    z = np.array([0.1, 0.2 + 0.3j, -0.5])
    got = gauss2f1_terminating(2.0, -1.0, 1.0, z)
    assert got.shape == z.shape
    assert np.allclose(got, 1.0 - 2.0 * z)


# ---- Jacobi polynomials ---------------------------------------------------------


def test_jacobi_degree_zero_is_one():
    assert jacobi_poly(0, 0.7 + 0.2j, 1.3, 0.4 - 0.6j) == 1.0


def test_jacobi_degree_one_closed_form():
    alpha, beta, z = 0.7 + 0.2j, 1.3 - 0.5j, 0.4 - 0.6j
    want = (alpha - beta) / 2 + (alpha + beta + 2) * z / 2
    assert jacobi_poly(1, alpha, beta, z) == pytest.approx(want, rel=1e-15)


def test_jacobi_reflection_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        left = jacobi_poly(3, 1.0, 2.0, -w)
        right = (-1) ** 3 * jacobi_poly(3, 2.0, 1.0, w)
        assert left == pytest.approx(right, rel=1e-13, abs=1e-13)


def test_jacobi_spot_value_against_loggamma_sum():
    n, alpha, beta, z = 5, 0.7 + 0.2j, 1.3, 0.4 - 0.6j
    want = jacobi_explicit_loggamma(n, alpha, beta, z)
    got = jacobi_poly(n, alpha, beta, z)
    assert abs(got - want) / abs(want) < 1e-12


def test_jacobi_recurrence_vs_highprec_explicit_sum():
    rng = np.random.default_rng(20080308)
    for _ in range(100):
        n = int(rng.integers(0, 21))
        alpha = rng.uniform(-0.9, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-0.9, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        while abs(z) > 2:
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        got = jacobi_poly(n, alpha, beta, z)
        want = jacobi_explicit_highprec(n, alpha, beta, z)
        assert abs(got - want) / max(1.0, abs(want)) < 1e-11


def test_jacobi_hypergeometric_bridge():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(0, 11))
        a = rng.uniform(-0.9, 3.0)
        b = rng.uniform(-0.9, 3.0)
        s = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        while abs(s) > 1:
            s = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        left = jacobi_poly(n, a, b, 1.0 - 2.0 * s)
        right = (
            rising(a + 1.0, n)
            / math.factorial(n)
            * gauss2f1_terminating(-float(n), n + a + b + 1.0, a + 1.0, s)
        )
        assert abs(left - right) / max(1.0, abs(left)) < 1e-11


def test_jacobi_negative_degree_rejected():
    with pytest.raises(ValueError):
        jacobi_poly(-1, 0.5, 0.5, 0.3)


def test_jacobi_array_argument():
    z = np.linspace(-1, 1, 7) + 0.2j
    got = jacobi_poly(2, 0.5, 1.5, z)
    want = np.array([jacobi_poly(2, 0.5, 1.5, w) for w in z])
    assert np.allclose(got, want, rtol=1e-14)


# ---- branch-tracked complex powers ----------------------------------------------


def test_power_tracked_empty_input_gives_empty_output():
    out = complex_power_tracked(np.array([], dtype=complex), 0.5)
    assert out.shape == (0,)
    assert out.dtype == complex
    assert complex_power_tracked([], 1.7 - 0.2j).shape == (0,)


@pytest.mark.parametrize("exponent", [-1.5 + 0j, 1.5 - 0.6666666666666666j])
def test_power_tracked_bits_do_not_depend_on_sharing_the_log(exponent):
    # 1e5 samples: numpy reuses a temporary of 256 KiB or more in place,
    # swapping the operands of a product, so the shared log must enter the
    # product as the fresh temporary that the one-step power had
    t = np.linspace(-12.0, 12.0, 100001)
    base = 0.5 * (1.0 - np.cosh(t - 0.5j) / np.sinh(t - 0.5j))
    rel = np.concatenate(([0.0], np.cumsum(np.angle(base[1:] / base[:-1]))))
    phase = np.angle(base[50000]) + rel - rel[50000]
    one_step = np.exp(exponent * (np.log(np.abs(base)) + 1j * phase))
    log_base = tracked_log(base)
    assert np.array_equal(tracked_power(log_base, exponent), one_step)
    assert np.array_equal(complex_power_tracked(base, exponent), one_step)
    assert np.array_equal(log_base, tracked_log(base))  # the shared log is left as it was


def test_power_tracked_all_ones():
    base = np.ones(11, dtype=complex)
    out = complex_power_tracked(base, 0.37 + 1.1j)
    assert np.array_equal(out, base)


def test_power_tracked_identity_exponent_through_three_half_turns():
    theta = np.linspace(0.0, 3.0 * np.pi, 2001)
    base = np.exp(1j * theta)
    out = complex_power_tracked(base, 1.0)
    assert np.max(np.abs(out - base)) < 1e-14


def test_power_tracked_squaring_matches_direct_square():
    t = np.linspace(-5.0, 5.0, 2001)
    sh = np.sinh(t - 0.5j)
    out = complex_power_tracked(sh, 2.0)
    assert np.max(np.abs(out - sh**2)) / np.max(np.abs(sh**2)) < 1e-13


def test_power_tracked_branch_coherent_up_to_global_phase():
    # squaring then powering and powering then squaring may differ only by
    # one constant unimodular factor across the whole contour
    t = np.linspace(-4.0, 4.0, 1601)
    sh = np.sinh(t - 0.5j)
    a = complex_power_tracked(sh, 1.7) ** 2
    b = complex_power_tracked(sh**2, 1.7)
    ratio = a / b
    assert abs(abs(ratio[800]) - 1.0) < 1e-12
    assert np.max(np.abs(ratio - ratio[800])) < 1e-12


def test_power_tracked_scalar_uses_principal_branch():
    assert complex_power_tracked(4.0, 0.5) == pytest.approx(2.0)
    got = complex_power_tracked(-2.0 + 0j, 0.5)
    assert got == pytest.approx(1j * np.sqrt(2.0), rel=1e-15)


def test_power_tracked_zero_base_raises():
    with pytest.raises(ZeroBase):
        complex_power_tracked(np.array([1.0, 0.0, 1.0], dtype=complex), 0.5)


def test_power_tracked_phase_jump_raises():
    with pytest.raises(PhaseJump):
        complex_power_tracked(np.array([1.0, -1.0], dtype=complex), 0.5)


# ---- rising factorial -------------------------------------------------------------


def test_pochhammer_values():
    assert pochhammer(2.5 + 1j, 0) == 1.0
    w = 1.2 - 0.7j
    assert pochhammer(w, 3) == pytest.approx(w * (w + 1) * (w + 2), rel=1e-15)
    assert pochhammer(-3.0, 5) == 0.0
