"""Model parameter records, complex potentials, and their symmetry."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ECKART_FIXTURE, HULTHEN_FIXTURE, POOL_DOMAINS, PT_FIXTURE
from ptspec.contour import ArchContour, SampledContour, ShiftedLine, arch_point
from ptspec.errors import AsymmetricGrid, EpsilonOutOfRange, SingularPoint
from ptspec.models import (
    MODELS,
    EckartParams,
    HulthenParams,
    PTParams,
    model_kind,
    potential_fn,
    pt_symmetry_check,
    sinh_inverse_square_expansion,
    v_eckart,
    v_hulthen,
    v_pt,
)


# ---- parameter validation -----------------------------------------------------


def test_pt_params_validation():
    with pytest.raises(ValueError):
        PTParams(alpha=-1.0, beta=1.0, epsilon=0.5)
    with pytest.raises(ValueError):
        PTParams(alpha=1.0, beta=0.0, epsilon=0.5)
    with pytest.raises(EpsilonOutOfRange):
        PTParams(alpha=1.0, beta=1.0, epsilon=2.0)


def test_hulthen_params_validation_and_derived_couplings():
    with pytest.raises(ValueError):
        HulthenParams(alpha=-0.5, C=-9.0)
    with pytest.raises(ValueError, match="A = 1 - alpha\\^2 overflows"):
        HulthenParams(alpha=1e300, C=4.3)
    p = HULTHEN_FIXTURE
    assert p.A == pytest.approx(1.0 - 0.25)
    assert p.B == pytest.approx(-9.0 - 0.75)


def test_eckart_params_admit_any_real_strength():
    assert EckartParams(A=-2.0, beta=0.3).A == -2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: EckartParams(A=x, beta=1.0),
        lambda x: EckartParams(A=3.5, beta=x),
        lambda x: PTParams(alpha=x, beta=1.7, epsilon=0.5),
        lambda x: PTParams(alpha=4.3, beta=x, epsilon=0.5),
        lambda x: PTParams(alpha=4.3, beta=1.7, epsilon=x),
        lambda x: HulthenParams(alpha=x, C=-9.0),
        lambda x: HulthenParams(alpha=0.5, C=x),
    ],
)
def test_params_reject_non_finite_values(make, bad):
    with pytest.raises(ValueError, match="is not finite"):
        make(bad)


def test_model_table_rows():
    fixtures = {"eckart": ECKART_FIXTURE, "pt": PT_FIXTURE, "hulthen": HULTHEN_FIXTURE}
    for name, fixture in fixtures.items():
        kind = model_kind(fixture)
        assert kind is MODELS[name] and kind.name == name
        assert kind.build(*(getattr(fixture, f) for f in kind.flags), 0.5) == fixture
    windows = [(k.contour.L, k.residual_window) for k in MODELS.values()]
    assert windows == [(12.0, 8.0), (12.0, 8.0), (10.0, 10.0)]
    with pytest.raises(TypeError):
        model_kind(object())


# ---- potential values ------------------------------------------------------------


def test_eckart_value_against_exponential_forms():
    r = 1.0 - 0.5j
    sh = (np.exp(r) - np.exp(-r)) / 2.0
    ch = (np.exp(r) + np.exp(-r)) / 2.0
    want = 3.5 * 2.5 / sh**2 - 2j * 1.0 * ch / sh
    assert v_eckart(ECKART_FIXTURE, r) == pytest.approx(want, abs=1e-14)


def test_eckart_degenerate_strengths():
    r = 0.7 - 0.4j
    assert v_eckart(EckartParams(1.0, 0.0), r) == 0.0
    for a in (0.0, 1.0):
        got = v_eckart(EckartParams(a, 2.0), r)
        assert got == pytest.approx(-4j * np.cosh(r) / np.sinh(r), rel=1e-14)


def test_eckart_singularity_guard():
    with pytest.raises(SingularPoint):
        v_eckart(ECKART_FIXTURE, 0.0)


def test_eckart_asymptotic_plateaus():
    p = ECKART_FIXTURE
    for sign in (+1.0, -1.0):
        got = v_eckart(p, sign * 15.0 - 0.5j)
        assert abs(got - (-sign * 2j * p.beta)) < 1e-8


def test_pt_identically_zero_at_quarter_couplings():
    p = PTParams(0.5, 0.5, 0.5)
    r = np.linspace(-5, 5, 101) - 0.5j
    assert np.max(np.abs(v_pt(p, r))) == 0.0


def test_pt_hand_value_at_quarter_shift():
    # at t = 0 with shift pi/4: 1/sinh^2 = -2 and 1/cosh^2 = 2
    p = PTParams(4.3, 1.7, math.pi / 4)
    want = -2.0 * (1.7**2 - 0.25) - 2.0 * (4.3**2 - 0.25)
    assert v_pt(p, -1j * math.pi / 4) == pytest.approx(want, rel=1e-14)


def test_pt_bounded_and_peaked_near_origin():
    p = PT_FIXTURE
    t = np.linspace(-12, 12, 4801)
    vals = np.abs(v_pt(p, t - 0.5j))
    bound = (p.beta**2 + 0.25) / math.sin(0.5) ** 2 + (p.alpha**2 + 0.25) / math.cos(0.5) ** 2
    assert np.all(np.isfinite(vals))
    assert vals.max() <= bound
    assert abs(t[np.argmax(vals)]) <= 0.5


def test_pt_vanishes_asymptotically():
    p = PT_FIXTURE
    for L in (8.0, 10.0, 12.0):
        tail = abs(v_pt(p, L - 0.5j))
        assert tail < 4.0 * (p.alpha**2 + p.beta**2) * math.exp(-2.0 * (L - 1.0))


def test_line_regularity_minima():
    t = np.linspace(-12, 12, 4801)
    r = t - 0.5j
    assert np.min(np.abs(np.sinh(r)) ** 2) == pytest.approx(math.sin(0.5) ** 2, rel=1e-12)
    assert np.min(np.abs(np.cosh(r)) ** 2) >= math.cos(0.5) ** 2 - 1e-12


def test_hulthen_zero_couplings():
    p = HulthenParams(alpha=1.0, C=0.0)  # A = 0 and B = 0
    xi = np.array([0.3 + 0.2j, -1.0 + 0.5j])
    assert np.max(np.abs(v_hulthen(p, xi))) == 0.0


def test_hulthen_deep_limit_is_coupling_sum():
    # far below the axis the exponential dies and V tends to A + B = C
    got = v_hulthen(HULTHEN_FIXTURE, 0.3 + 20.0j)
    assert got == pytest.approx(HULTHEN_FIXTURE.C, abs=1e-15)


def test_hulthen_apex_hand_value():
    p = HULTHEN_FIXTURE
    xi0 = arch_point(0.0, 0.5)  # exp(2 i xi) = sin^2(1/2) there
    c2 = math.cos(0.5) ** 2
    want = p.A / c2**2 + p.B / c2
    assert v_hulthen(p, xi0) == pytest.approx(want, rel=1e-13)


def test_hulthen_singularity_guard():
    with pytest.raises(SingularPoint):
        v_hulthen(HULTHEN_FIXTURE, 0.0)


def test_potential_fn_dispatch():
    r = 0.8 - 0.5j
    assert potential_fn(ECKART_FIXTURE)(r) == v_eckart(ECKART_FIXTURE, r)
    assert potential_fn(PT_FIXTURE)(r) == v_pt(PT_FIXTURE, r)
    assert potential_fn(HULTHEN_FIXTURE)(r) == v_hulthen(HULTHEN_FIXTURE, r)
    with pytest.raises(TypeError):
        potential_fn(object())


# ---- symmetry on the natural contours ------------------------------------------------


def test_symmetry_on_natural_contours():
    t = np.linspace(-12, 12, 201)
    assert pt_symmetry_check(ECKART_FIXTURE, ShiftedLine(0.5), t) < 1e-12
    assert pt_symmetry_check(PT_FIXTURE, ShiftedLine(0.5), t) < 1e-12
    t_arch = np.linspace(-10, 10, 201)
    assert pt_symmetry_check(HULTHEN_FIXTURE, ArchContour(0.5), t_arch) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(POOL_DOMAINS)), st.floats(0.2, 1.2, exclude_max=True), st.data())
def test_potentials_are_pt_symmetric_over_the_pool_domains(name, eps, data):
    kind = MODELS[name]
    (a_lo, a_hi, a_open), (b_lo, b_hi, b_open) = POOL_DOMAINS[name]
    a = data.draw(st.floats(a_lo, a_hi, exclude_min=a_open, exclude_max=True))
    b = data.draw(st.floats(b_lo, b_hi, exclude_min=b_open, exclude_max=True))
    model = kind.build(a, b, eps)
    contour = kind.contour(eps)
    t = np.linspace(-contour.L, contour.L, 201)
    v = SampledContour(contour, t, potential_fn(model)).v
    assert pt_symmetry_check(model, contour, t) <= 1e-12 * max(1.0, float(np.max(np.abs(v))))


def test_symmetry_check_flags_tilted_path():
    class Tilted:
        def point(self, t):
            t = np.asarray(t, dtype=float)
            return t - 1j * (0.5 + 0.05 * np.tanh(t))

    t = np.linspace(-12, 12, 201)
    assert pt_symmetry_check(ECKART_FIXTURE, Tilted(), t) > 0.1


def test_symmetry_check_rejects_asymmetric_grid():
    with pytest.raises(AsymmetricGrid):
        pt_symmetry_check(PT_FIXTURE, ShiftedLine(0.5), np.array([-1.0, 0.5]))


# ---- small-shift expansion ------------------------------------------------------------


def test_expansion_exact_at_zero_shift():
    exact, first = sinh_inverse_square_expansion(1.3, 0.0)
    assert exact == first


def test_expansion_error_shrinks_quadratically():
    for t in (0.3, 1.0, 3.0):
        e2, f2 = sinh_inverse_square_expansion(t, 1e-2)
        e3, f3 = sinh_inverse_square_expansion(t, 1e-3)
        ratio = abs(e2 - f2) / abs(e3 - f3)
        assert 80.0 < ratio < 120.0


def test_expansion_imaginary_part_leading_term():
    t, eps = 0.3, 1e-3
    exact, _ = sinh_inverse_square_expansion(t, eps)
    got = (exact - 1.0 / np.sinh(t) ** 2).imag
    want = 2.0 * eps * np.cosh(t) / np.sinh(t) ** 3
    assert got == pytest.approx(want, rel=1e-3)


def test_expansion_singular_at_origin():
    with pytest.raises(SingularPoint):
        sinh_inverse_square_expansion(0.0, 1e-2)
