"""Eigenfunctions: closed forms, branch coherence, and ODE residuals."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from helpers import ECKART_FIXTURE, HULTHEN_FIXTURE, PT_FIXTURE, uniform_grid
from ptspec.contour import ArchContour, ShiftedLine, liouville_derivatives, arch_point
from ptspec.errors import GridTooCoarse, LevelMismatch, SingularPoint
from ptspec.models import PTParams, potential_fn
from ptspec.specfun import (
    GaussParams,
    complex_power_tracked,
    gauss2f1_terminating,
    jacobi_poly,
    pochhammer,
)
from ptspec.spectra import eckart_levels, hulthen_levels, pt_levels
from ptspec.wavefun import (
    eckart_psi,
    eckart_psi_second_branch,
    hulthen_psi,
    level_samples,
    pt_psi,
    pt_psi_second_branch,
    residual_check,
)

LINE = ShiftedLine(0.5)
ARCH = ArchContour(0.5)


def _decay_ratio(psi) -> float:
    amp = np.abs(psi)
    return float(max(amp[0], amp[-1]) / amp.max())


def _spread(values) -> float:
    ref = values[len(values) // 2]
    return float(np.max(np.abs(values / ref - 1.0)))


# ---- closed forms -----------------------------------------------------------------


def test_eckart_ground_state_closed_form_on_positive_axis():
    level = eckart_levels(ECKART_FIXTURE).levels[0]
    r = np.linspace(2.0, 5.0, 61).astype(complex)
    u, v = level.internal["u"], level.internal["v"]
    want = np.sinh(r) ** (-(u + v)) * np.exp((v - u) * r)
    got = eckart_psi(ECKART_FIXTURE, level, r)
    assert np.max(np.abs(got / want - 1.0)) < 1e-13


def test_pt_ground_state_closed_form():
    p = PTParams(1.0, 3.0, 0.5)
    lv = next(x for x in pt_levels(p).levels if (x.sigma, x.tau, x.N) == (+1, -1, 0))
    r = LINE.point(np.linspace(-6.0, 6.0, 241))
    want = complex_power_tracked(np.sinh(r), -2.5) * complex_power_tracked(np.cosh(r), 1.5)
    got = pt_psi(p, lv, r)
    assert np.max(np.abs(got / want - 1.0)) < 1e-14


def test_bound_states_decay_along_the_line():
    t = np.linspace(-12.0, 12.0, 961)
    r = LINE.point(t)
    eck = eckart_levels(ECKART_FIXTURE).levels
    assert _decay_ratio(eckart_psi(ECKART_FIXTURE, eck[0], r)) < 1e-10
    for lv in eck:
        assert _decay_ratio(eckart_psi(ECKART_FIXTURE, lv, r)) < 0.05
    for lv in pt_levels(PT_FIXTURE).levels:
        assert _decay_ratio(pt_psi(PT_FIXTURE, lv, r)) < 0.05


def test_quasi_parity_is_a_unimodular_constant():
    t = np.linspace(-6.0, 6.0, 241)
    r = LINE.point(t)
    cases = [(ECKART_FIXTURE, eckart_psi, eckart_levels(ECKART_FIXTURE).levels)]
    cases.append((PT_FIXTURE, pt_psi, pt_levels(PT_FIXTURE).levels))
    for p, psi_fn, levels in cases:
        for lv in levels:
            psi = psi_fn(p, lv, r)
            q = psi[::-1] / np.conj(psi)
            assert _spread(q) < 1e-8
            assert abs(abs(q[len(q) // 2]) - 1.0) < 1e-8


def test_mixed_family_state_dips_at_the_center():
    # the (-,+) ground state vanishes at t = 0 in the small-shift limit ...
    p_small = PTParams(4.3, 1.7, 0.1)
    lv = next(x for x in pt_levels(p_small).levels if (x.sigma, x.tau) == (-1, +1))
    t = np.linspace(-8.0, 8.0, 801)
    psi = pt_psi(p_small, lv, ShiftedLine(0.1).point(t))
    amp = np.abs(psi)
    assert amp[400] / amp.max() < 0.05
    # ... and is still a local minimum of |psi| at the working shift
    lv5 = next(x for x in pt_levels(PT_FIXTURE).levels if (x.sigma, x.tau) == (-1, +1))
    amp5 = np.abs(pt_psi(PT_FIXTURE, lv5, LINE.point(t)))
    assert amp5[400] < amp5[375] and amp5[400] < amp5[425]


def test_second_solution_branch_is_proportional():
    t = np.linspace(-6.0, 6.0, 241)
    r = LINE.point(t)
    for lv in eckart_levels(ECKART_FIXTURE).levels:
        ratio = eckart_psi_second_branch(ECKART_FIXTURE, lv, r) / eckart_psi(
            ECKART_FIXTURE, lv, r
        )
        assert _spread(ratio) < 1e-8
    for lv in pt_levels(PT_FIXTURE).levels:
        ratio = pt_psi_second_branch(PT_FIXTURE, lv, r) / pt_psi(PT_FIXTURE, lv, r)
        assert _spread(ratio) < 1e-12


# ---- polynomial structure of the series factor ---------------------------------------


def test_pt_series_factor_is_a_jacobi_polynomial():
    p = PT_FIXTURE
    r = LINE.point(np.linspace(-4.0, 4.0, 161))
    for lv in pt_levels(p).levels:
        f = gauss2f1_terminating(
            GaussParams(lv.internal["a"], lv.internal["b"], lv.internal["c"], -np.sinh(r) ** 2)
        )
        aj = lv.tau * p.beta
        bj = lv.sigma * p.alpha
        want = (
            math.factorial(lv.N)
            / pochhammer(aj + 1.0, lv.N)
            * jacobi_poly(lv.N, aj, bj, np.cosh(2.0 * r))
        )
        assert np.max(np.abs(f - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_eckart_series_factor_is_a_jacobi_polynomial():
    p = ECKART_FIXTURE
    r = LINE.point(np.linspace(-4.0, 4.0, 161))
    w = np.cosh(r) / np.sinh(r)
    for lv in eckart_levels(p).levels:
        f = gauss2f1_terminating(
            GaussParams(lv.internal["a"], lv.internal["b"], lv.internal["c"], 0.5 * (1.0 - w))
        )
        u, v = lv.internal["u"], lv.internal["v"]
        want = (
            math.factorial(lv.N)
            / pochhammer(1.0 + 2.0 * u, lv.N)
            * jacobi_poly(lv.N, 2.0 * u, 2.0 * v, w)
        )
        assert np.max(np.abs(f - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))
        if lv.N >= 1:
            wrong = (
                math.factorial(lv.N)
                / pochhammer(1.0 + 0.5 * u, lv.N)
                * jacobi_poly(lv.N, 0.5 * u, 0.5 * v, w)
            )
            assert np.max(np.abs(f - wrong)) / np.max(np.abs(f)) > 0.01


# ---- residual checks ---------------------------------------------------------------


def test_residuals_vanish_on_natural_contours():
    t = uniform_grid(8.0, 1e-3)
    for p, levels in (
        (ECKART_FIXTURE, eckart_levels(ECKART_FIXTURE).levels),
        (PT_FIXTURE, pt_levels(PT_FIXTURE).levels),
    ):
        for lv in levels:
            samples = level_samples(p, lv, LINE, t)
            res = residual_check(potential_fn(p), lv.energy, samples, LINE)
            assert res < 1e-6


def test_hulthen_residuals_vanish_on_the_arch():
    t = uniform_grid(10.0, 1e-3)
    for lv in hulthen_levels(HULTHEN_FIXTURE).levels:
        samples = level_samples(HULTHEN_FIXTURE, lv, ARCH, t)
        res = residual_check(potential_fn(HULTHEN_FIXTURE), lv.energy, samples, ARCH)
        assert res < 1e-6


def _harmonic_residual(h: float, noise: float = 0.0) -> float:
    line = ShiftedLine(0.7)
    t = uniform_grid(4.0, h)
    xi = line.point(t)
    psi = np.exp(-(xi**2) / 2.0)
    if noise:
        rng = np.random.default_rng(20080308)
        psi = psi * (1.0 + noise * rng.standard_normal(len(t)))
    return residual_check(lambda z: z**2, 1.0, (t, xi, psi), line)


def test_residual_harness_on_oscillator_ground_state():
    assert _harmonic_residual(1e-3) < 1e-6
    ratio = _harmonic_residual(0.02) / _harmonic_residual(0.01)
    assert 8.0 < ratio < 40.0  # fourth-order stencil convergence


def test_residual_harness_flags_corrupted_samples():
    # second differences amplify pointwise noise by ~1/h^2, so even 1e-6
    # corruption lands orders of magnitude above both the clean residual
    # and the acceptance bar
    corrupted = _harmonic_residual(1e-2, noise=1e-6)
    assert corrupted > 1e-2
    assert corrupted > 1e4 * _harmonic_residual(1e-2)


def test_residual_grid_validation():
    line = ShiftedLine(0.7)
    t4 = np.linspace(-1.0, 1.0, 4)
    xi4 = line.point(t4)
    with pytest.raises(GridTooCoarse):
        residual_check(lambda z: z**2, 1.0, (t4, xi4, np.exp(-(xi4**2) / 2)), line)
    t = np.linspace(-1.0, 1.0, 21) ** 3
    xi = line.point(t)
    with pytest.raises(GridTooCoarse):
        residual_check(lambda z: z**2, 1.0, (t, xi, np.exp(-(xi**2) / 2)), line)


# ---- hulthen assembly ---------------------------------------------------------------


def test_hulthen_state_construction_and_decay():
    p = HULTHEN_FIXTURE
    t = np.linspace(-10.0, 10.0, 801)
    spec = hulthen_levels(p)
    for lv in spec.levels:
        psi = hulthen_psi(p, lv, t, epsilon=0.5)
        # assembled from the partner state on the inverse-mapped contour
        xi = arch_point(t, 0.5)
        r, r1, _, _ = liouville_derivatives(xi)
        partner_params = PTParams(p.alpha, float(lv.internal["beta_eff"].real), 0.5)
        partner = next(
            x
            for x in pt_levels(partner_params).levels
            if (x.sigma, x.tau, x.N) == (lv.sigma, lv.tau, lv.N)
        )
        manual = pt_psi(partner_params, partner, r) / complex_power_tracked(r1, 0.5)
        assert np.allclose(psi, manual, rtol=1e-14, atol=0.0)
        bound = 1e-8 if (lv.sigma, lv.N) == (+1, 0) else 0.05
        assert _decay_ratio(psi) < bound


def test_hulthen_partner_lookup_failure():
    p = HULTHEN_FIXTURE
    lv = hulthen_levels(p).levels[0]
    flipped = dataclasses.replace(lv, tau=+1)
    with pytest.raises(LevelMismatch):
        hulthen_psi(p, flipped, np.linspace(-1.0, 1.0, 5))


# ---- guards and dispatch ------------------------------------------------------------


def test_psi_level_guards():
    eck = eckart_levels(ECKART_FIXTURE).levels[0]
    with pytest.raises(LevelMismatch):
        pt_psi(PT_FIXTURE, eck, np.array([1.0 - 0.5j]))
    with pytest.raises(LevelMismatch):
        eckart_psi(ECKART_FIXTURE, dataclasses.replace(eck, energy=eck.energy + 0.5), 1.0 - 0.5j)
    with pytest.raises(SingularPoint):
        eckart_psi(ECKART_FIXTURE, eck, np.array([-1.0, 0.0, 1.0]))


def test_psi_scalar_evaluation():
    eck = eckart_levels(ECKART_FIXTURE).levels[0]
    got = eckart_psi(ECKART_FIXTURE, eck, 1.0 - 0.5j)
    assert isinstance(got, complex)
    arr = eckart_psi(ECKART_FIXTURE, eck, np.array([1.0 - 0.5j]))
    assert got == arr[0]


def test_level_samples_dispatch():
    t = np.linspace(-3.0, 3.0, 41)
    eck = eckart_levels(ECKART_FIXTURE).levels[0]
    t_out, xi, psi = level_samples(ECKART_FIXTURE, eck, LINE, t)
    assert len(t_out) == len(xi) == len(psi) == len(t)
    assert np.array_equal(t_out, t) and xi.dtype == psi.dtype == complex
    direct = eckart_psi(ECKART_FIXTURE, eck, LINE.point(t))
    assert psi[7] == complex(direct[7])
    assert xi[7] == complex(LINE.point(t)[7])

    hul = hulthen_levels(HULTHEN_FIXTURE).levels[0]
    _, _, arch_psi = level_samples(HULTHEN_FIXTURE, hul, ARCH, t)
    direct_h = hulthen_psi(HULTHEN_FIXTURE, hul, t, epsilon=0.5)
    assert arch_psi[3] == complex(direct_h[3])

    with pytest.raises(TypeError):
        level_samples(object(), eck, LINE, t)
