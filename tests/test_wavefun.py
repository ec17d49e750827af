"""Eigenfunctions: closed forms, branch coherence, and ODE residuals."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptspec.contour
import ptspec.wavefun
from helpers import (ECKART_FIXTURE, HULTHEN_FIXTURE, POOL_DOMAINS, PT_FIXTURE, plain_residual, pochhammer,
                     uniform_grid)
from ptspec.cli import RESIDUAL_H, run
from ptspec.contour import ArchChart, ArchContour, Chart, ShiftedLine, liouville_derivatives, arch_point
from ptspec.errors import GridTooCoarse, LevelMismatch, PtspecError, SingularPoint
from ptspec.models import MODELS, PTParams, model_kind, potential_fn, v_eckart, v_hulthen, v_pt
from ptspec.specfun import (
    complex_power_tracked,
    gauss2f1_terminating,
    jacobi_poly,
)
from ptspec.spectra import eckart_levels, hulthen_levels, pt_levels, spectrum_of
from ptspec.wavefun import (
    eckart_psi,
    eckart_psi_second_branch,
    hulthen_psi,
    level_samples,
    pt_psi,
    pt_psi_second_branch,
    SampledContour,
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
            lv.internal["a"], lv.internal["b"], lv.internal["c"], -np.sinh(r) ** 2
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
            lv.internal["a"], lv.internal["b"], lv.internal["c"], 0.5 * (1.0 - w)
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
        samples = SampledContour(LINE, t, potential_fn(p))
        for lv in levels:
            _, _, psi = level_samples(p, lv, LINE, samples)
            res = residual_check(samples, lv.energy, psi)
            assert res < 1e-6


def test_hulthen_residuals_vanish_on_the_arch():
    t = uniform_grid(10.0, 1e-3)
    samples = SampledContour(ARCH, t, potential_fn(HULTHEN_FIXTURE))
    for lv in hulthen_levels(HULTHEN_FIXTURE).levels:
        _, _, psi = level_samples(HULTHEN_FIXTURE, lv, ARCH, samples)
        res = residual_check(samples, lv.energy, psi)
        assert res < 1e-6


def test_arch_stencil_forms_sinh_once(monkeypatch, capsys):
    """xi' and xi'' at the 19997 stencil centres of a Hulthen residual verify share one sinh(t - i*eps)."""
    calls = collections.Counter()
    sinh = np.sinh

    def counted(x, *args, **kwargs):
        calls[np.size(x)] += 1
        return sinh(x, *args, **kwargs)

    monkeypatch.setattr(np, "sinh", counted)
    assert run(["verify", "--model", "hulthen", "--alpha", "0.5", "--C", "-9", "--method", "residual"]) == 0
    assert len(json.loads(capsys.readouterr().out)["levels"]) >= 2
    assert calls[19997] == 1


def test_hulthen_eigenfunction_checks_its_level_once(monkeypatch, capsys):
    """A Hulthen residual verify checks each level once: its own, not also the
    Poschl-Teller partner level that ``pt_level`` has just built for it."""
    import ptspec.wavefun as wavefun

    checked = collections.Counter()
    check_level = wavefun.check_level

    def counted(model, level):
        checked[type(model).__name__] += 1
        return check_level(model, level)

    monkeypatch.setattr(wavefun, "check_level", counted)
    assert run(["verify", "--model", "hulthen", "--alpha", "1.7491", "--C", "-20.8404", "--method", "residual"]) == 0
    assert len(json.loads(capsys.readouterr().out)["levels"]) == 3
    assert checked == {"HulthenParams": 3}


def _harmonic_residual(h: float, noise: float = 0.0) -> float:
    line = ShiftedLine(0.7)
    t = uniform_grid(4.0, h)
    xi = line.point(t)
    psi = np.exp(-(xi**2) / 2.0)
    if noise:
        rng = np.random.default_rng(20080308)
        psi = psi * (1.0 + noise * rng.standard_normal(len(t)))
    return residual_check(SampledContour(line, t, lambda c: c.r**2), 1.0, psi)


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
        residual_check(SampledContour(line, t4, lambda c: c.r**2), 1.0, np.exp(-(xi4**2) / 2))
    t = np.linspace(-1.0, 1.0, 21) ** 3
    xi = line.point(t)
    with pytest.raises(GridTooCoarse):
        residual_check(SampledContour(line, t, lambda c: c.r**2), 1.0, np.exp(-(xi**2) / 2))


def _same(got: float, want: float) -> bool:
    """Equal floats, with nan matching nan."""
    return got == want or (math.isnan(got) and math.isnan(want))


def _report_samples(model, eps: float = 0.5) -> SampledContour:
    """The SampledContour a ``verify --method residual`` report of ``model`` builds."""
    kind = model_kind(model)
    window = kind.residual_window
    return SampledContour(kind.contour(eps, window), np.arange(-window, window + RESIDUAL_H / 2, RESIDUAL_H),
                          potential_fn(model))


@pytest.mark.parametrize("model", [ECKART_FIXTURE, PT_FIXTURE, HULTHEN_FIXTURE], ids=["eckart", "pt", "hulthen"])
def test_residual_check_has_the_bits_of_the_plain_expression(model):
    samples = _report_samples(model)
    for lv in spectrum_of(model).levels:
        _, _, psi = level_samples(model, lv, samples.contour, samples)
        assert residual_check(samples, lv.energy, psi) == plain_residual(samples, lv.energy, psi), lv


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(POOL_DOMAINS)), st.floats(0.2, 1.2, exclude_max=True), st.data())
def test_residual_check_has_the_plain_bits_over_the_pool_domains(name, eps, data):
    (a_lo, a_hi, a_open), (b_lo, b_hi, b_open) = POOL_DOMAINS[name]
    a = data.draw(st.floats(a_lo, a_hi, exclude_min=a_open, exclude_max=True))
    b = data.draw(st.floats(b_lo, b_hi, exclude_min=b_open, exclude_max=True))
    model = MODELS[name].build(a, b, eps)
    samples = _report_samples(model, eps)
    for lv in spectrum_of(model).levels:
        try:
            _, _, psi = level_samples(model, lv, samples.contour, samples)
        except PtspecError:  # refused by name before any residual is formed
            continue
        assert _same(residual_check(samples, lv.energy, psi), plain_residual(samples, lv.energy, psi)), lv


def test_residual_check_keeps_the_plain_bits_where_psi_holds_signed_zeros():
    for model in (PT_FIXTURE, HULTHEN_FIXTURE):
        samples = _report_samples(model)
        lv = spectrum_of(model).levels[0]
        psi = level_samples(model, lv, samples.contour, samples)[2].copy()
        psi[::7] = complex(-0.0, 0.0)
        psi[3::11] = complex(0.0, -0.0)
        psi[5::13] = complex(-0.0, -0.0)
        psi[:40] = 0.0
        assert residual_check(samples, lv.energy, psi) == plain_residual(samples, lv.energy, psi)


@pytest.mark.parametrize("top", [1e305, 1e307, 1e308])
def test_residual_check_keeps_the_plain_nan_where_a_line_derivative_overflows(top):
    """Scaled up to ``top``, a line eigenfunction's d1 or d2 overflows, and the plain chain rule
    turns inf * 0 into nan where d2 alone would give inf (PT's first levels at 1e307)."""
    for model in (ECKART_FIXTURE, PT_FIXTURE):
        samples = _report_samples(model)
        for lv in spectrum_of(model).levels:
            psi = level_samples(model, lv, samples.contour, samples)[2]
            with np.errstate(all="ignore"):
                psi = psi / np.abs(psi).max() * top
                got, want = residual_check(samples, lv.energy, psi), plain_residual(samples, lv.energy, psi)
            assert _same(got, want), (lv, got, want)


# ---- one prefactor per family ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv, levels, powers",
    [
        pytest.param(["--model", "pt", "--alpha", "3.3555", "--beta", "5.3502", "--eps", "0.9256"], 5, 3, id="pt"),
        pytest.param(["--model", "pt", "--alpha", "4.3", "--beta", "1.7", "--eps", "0.5"], 4, 3, id="pt-fixture"),
        pytest.param(["--model", "hulthen", "--alpha", "1.7491", "--C", "-20.8404"], 3, 5, id="hulthen"),
        pytest.param(["--model", "eckart", "--A", "5.8198", "--beta", "0.1275"], 5, 5, id="eckart"),
    ],
)
def test_a_residual_report_takes_each_family_prefactor_once(argv, levels, powers, monkeypatch, capsys):
    """Levels come grouped by family, and a chart holds the last power of each log: PT takes
    one power of sinh and one of cosh per family, not two per level; Hulthen's beta_eff and so
    its sinh power change with every level; Eckart's exponent changes with N."""
    calls = []
    for module in (ptspec.contour, ptspec.wavefun):
        power = module.tracked_power
        monkeypatch.setattr(module, "tracked_power", lambda log, e, f=power: calls.append(e) or f(log, e))
    assert run(["verify", *argv, "--method", "residual"]) == 0
    assert len(json.loads(capsys.readouterr().out)["levels"]) == levels
    assert len(calls) == powers


def test_a_held_power_is_read_only_and_one_per_log():
    chart = Chart(LINE.point(np.linspace(-3.0, 3.0, 61)))
    sh = chart.power("sh", 1.5)
    assert chart.power("sh", 1.5) is sh and not sh.flags.writeable
    with pytest.raises(ValueError):
        sh *= 2.0
    ch = chart.power("ch", 1.5)
    assert ch is not sh and chart.power("sh", 1.5) is sh
    assert chart.power("sh", 2.5) is not sh and chart.power("sh", 1.5) is not sh


def test_pt_psi_on_a_shared_large_chart_has_the_bits_of_a_fresh_chart():
    """From 256 KiB on numpy computes a product in place of a temporary; a held power is
    never one, so a level read twice from one 1e5-point chart gives a fresh chart's bits."""
    r = LINE.point(np.linspace(-12.0, 12.0, 100_001))
    shared = Chart(r)
    for lv in [*pt_levels(PT_FIXTURE).levels, *pt_levels(PT_FIXTURE).levels]:
        got, want = pt_psi(PT_FIXTURE, lv, shared), pt_psi(PT_FIXTURE, lv, Chart(r))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), lv


#: tracemalloc peak of one ``verify --method residual`` report before each family shared its
#: prefactor, on the x86-64 host that recorded the pool digests with numpy 2.4.6
_PARENT_PEAK_MIB = {"eckart": 4.04, "pt": 4.28, "hulthen": 7.03}


@pytest.mark.parametrize(
    "name, argv, extra",
    [
        ("eckart", ["--A", "3.5", "--beta", "1.0"], 0),
        ("pt", ["--alpha", "4.3", "--beta", "1.7", "--eps", "0.5"], 0),
        ("hulthen", ["--alpha", "1.7491", "--C", "-20.8404"], 2 * 20001 * 16),  # two held arch powers
    ],
)
def test_a_residual_report_holds_no_more_memory_than_before(name, argv, extra, capsys):
    tracemalloc.start()
    try:
        assert run(["verify", "--model", name, *argv, "--method", "residual"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= _PARENT_PEAK_MIB[name] * 2**20 + extra


# ---- hulthen assembly ---------------------------------------------------------------


def test_hulthen_state_construction_and_decay():
    p = HULTHEN_FIXTURE
    xi = arch_point(np.linspace(-10.0, 10.0, 801), 0.5)
    spec = hulthen_levels(p)
    for lv in spec.levels:
        psi = hulthen_psi(p, lv, xi, epsilon=0.5)
        # assembled from the partner state on the inverse-mapped contour
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
        hulthen_psi(p, flipped, arch_point(np.linspace(-1.0, 1.0, 5), 0.5), epsilon=0.5)


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


def _scalar_cases() -> dict:
    """name -> (function of one argument, points to call it at)."""
    rng = np.random.default_rng(7)
    line = LINE.point(rng.uniform(-4.0, 4.0, 100))
    disk = rng.uniform(0.1, 0.9, 100) * np.exp(2j * np.pi * rng.uniform(size=100))
    arch = ARCH.point(rng.uniform(-4.0, 4.0, 100))
    eck = eckart_levels(ECKART_FIXTURE).levels[1]
    pt = pt_levels(PT_FIXTURE).levels[1]
    hul = hulthen_levels(HULTHEN_FIXTURE).levels[1]
    return {
        "gauss2f1_terminating": (lambda z: gauss2f1_terminating(2.3 - 0.4j, -3.0, 1.7 + 0.2j, z), disk),
        "jacobi_poly": (lambda z: jacobi_poly(4, 1.3 - 0.2j, -0.7 + 0.5j, z), disk),
        "liouville_derivatives": (liouville_derivatives, arch),
        "complex_power_tracked": (lambda z: complex_power_tracked(z, 0.7 - 0.3j), disk),
        "v_eckart": (lambda r: v_eckart(ECKART_FIXTURE, r), line),
        "v_pt": (lambda r: v_pt(PT_FIXTURE, r), line),
        "v_hulthen": (lambda xi: v_hulthen(HULTHEN_FIXTURE, xi), arch),
        "eckart_psi": (lambda r: eckart_psi(ECKART_FIXTURE, eck, r), line),
        "pt_psi": (lambda r: pt_psi(PT_FIXTURE, pt, r), line),
        "hulthen_psi": (lambda xi: hulthen_psi(HULTHEN_FIXTURE, hul, xi, 0.5), ARCH.point(rng.uniform(-4.0, 4.0, 20))),
    }


def _parts(out) -> tuple:
    """liouville_derivatives gives the tuple (r, r', r'', r'''), the others one value."""
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", sorted(_scalar_cases()))
def test_scalar_input_gives_the_one_element_array_value(name):
    f, points = _scalar_cases()[name]
    for z in points:
        for got, want in zip(_parts(f(z)), _parts(f(np.array([z])))):
            assert type(got) is complex and got == want[0], z


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
    _, arch_xi, arch_psi = level_samples(HULTHEN_FIXTURE, hul, ARCH, t)
    assert arch_xi.tobytes() == arch_point(t, 0.5).tobytes()
    for points in (arch_xi, ArchChart(arch_xi)):  # plain points or their chart: the same bits
        assert hulthen_psi(HULTHEN_FIXTURE, hul, points, epsilon=0.5).tobytes() == arch_psi.tobytes()

    with pytest.raises(TypeError):
        level_samples(object(), eck, LINE, t)
