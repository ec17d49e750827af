"""Acceptance suite: nine end-to-end checks, one verdict line each.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints ``acceptance N: PASS/FAIL - detail`` (visible with
``pytest -s`` or on failure).
"""

from __future__ import annotations

import math
import time

import numpy as np

from helpers import (
    ECKART_ENERGIES,
    ECKART_FIXTURE,
    HULTHEN_FIXTURE,
    HULTHEN_TABLE,
    PT_ENERGIES_MM,
    PT_ENERGY_MP,
    PT_FIXTURE,
    free_particle_eigenvalue,
    jacobi_explicit_highprec,
    rising,
    uniform_grid,
)
from ptspec.contour import ArchContour, ShiftedLine, arch_point, liouville_derivatives, pt_path_check
from ptspec.liouville import transform_potential, verify_hulthen_identity
from ptspec.models import (
    EckartParams,
    HulthenParams,
    PTParams,
    potential_fn,
    pt_symmetry_check,
    sinh_inverse_square_expansion,
    v_pt,
)
from ptspec.oracle import GridSpec, convergence_study, discretize, match_levels, shift_invert_eigen
from ptspec.specfun import gauss2f1_terminating, jacobi_poly
from ptspec.spectra import eckart_gap, eckart_levels, hulthen_levels, pt_levels, pt_levels_complex
from ptspec.wavefun import SampledContour, level_samples, residual_check

LINE = ShiftedLine(0.5)
ARCH = ArchContour(0.5)
GRID = GridSpec(L=12.0, n=1500)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num} failed: {detail}"


def test_criterion_1_eckart_spectrum_confirmed_two_ways():
    t0 = time.perf_counter()
    spec = eckart_levels(ECKART_FIXTURE)
    rel = max(
        abs(lv.energy - want) / abs(want) for lv, want in zip(spec.levels, ECKART_ENERGIES)
    )
    report = match_levels(spec, discretize(ECKART_FIXTURE, LINE, GRID), tol=1e-2)
    samples = SampledContour(LINE, uniform_grid(8.0, 1e-3), potential_fn(ECKART_FIXTURE))
    res = max(
        residual_check(samples, lv.energy, level_samples(ECKART_FIXTURE, lv, LINE, samples)[2])
        for lv in spec.levels
    )
    elapsed = time.perf_counter() - t0
    ok = (
        len(spec.levels) == 3
        and rel < 1e-12
        and report["all_passed"]
        and report["max_im"] < 1e-3
        and res < 1e-6
        and elapsed < 30.0
    )
    _verdict(
        1,
        ok,
        f"energies rel dev {rel:.2e}, fd 3/3 max_im {report['max_im']:.2e}, "
        f"residual {res:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_pt_spectrum_confirmed_and_shift_independent():
    t0 = time.perf_counter()
    spec = pt_levels(PT_FIXTURE)
    counts_ok = spec.family_counts == {"--": 3, "-+": 1, "+-": 0, "++": 0}
    mm = [lv.energy for lv in spec.levels if (lv.sigma, lv.tau) == (-1, -1)]
    mp = [lv.energy for lv in spec.levels if (lv.sigma, lv.tau) == (-1, +1)]
    rel = max(
        abs(e - w) / abs(w) for e, w in zip(mm + mp, PT_ENERGIES_MM + [PT_ENERGY_MP])
    )
    reports = {}
    for eps in (0.3, 0.5, 0.7):
        p = PTParams(PT_FIXTURE.alpha, PT_FIXTURE.beta, eps)
        reports[eps] = match_levels(pt_levels(p), discretize(p, ShiftedLine(eps), GRID), tol=1e-2)
    cross = max(
        abs(complex(*a["energy_numeric"]) - complex(*b["energy_numeric"]))
        for a, b in zip(reports[0.3]["levels"], reports[0.7]["levels"])
    )
    elapsed = time.perf_counter() - t0
    ok = (
        counts_ok
        and rel < 1e-12
        and all(r["all_passed"] for r in reports.values())
        and cross < 2e-2
        and elapsed < 60.0
    )
    _verdict(
        2,
        ok,
        f"energies rel dev {rel:.2e}, fd 4/4 at three shifts, "
        f"shift cross-agreement {cross:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_hulthen_table_positive_energies_and_residuals():
    spec = hulthen_levels(HULTHEN_FIXTURE)
    table_ok = len(spec.levels) == len(HULTHEN_TABLE)
    rel = 0.0
    for lv, (sigma, n, s, kappa, beta_eff, tau, energy) in zip(spec.levels, HULTHEN_TABLE):
        table_ok = table_ok and (lv.sigma, lv.N, lv.tau) == (sigma, n, tau)
        for got, want in (
            (lv.internal["s"].real, s),
            (lv.internal["kappa"].real, kappa),
            (lv.internal["beta_eff"].real, beta_eff),
            (lv.energy, energy),
        ):
            rel = max(rel, abs(got - want) / abs(want))
    positive = all(lv.energy > 0 for lv in spec.levels)
    two_form = max(
        abs(lv.energy - (HULTHEN_FIXTURE.C + 0.25 * (lv.internal["s"].real - HULTHEN_FIXTURE.C / lv.internal["s"].real) ** 2))
        / lv.energy
        for lv in spec.levels
    )
    samples = SampledContour(ARCH, uniform_grid(10.0, 1e-3), potential_fn(HULTHEN_FIXTURE))
    res = max(
        residual_check(samples, lv.energy, level_samples(HULTHEN_FIXTURE, lv, ARCH, samples)[2])
        for lv in spec.levels
    )
    ok = table_ok and rel < 1e-12 and positive and two_form < 1e-12 and res < 1e-6
    _verdict(
        3,
        ok,
        f"table rel dev {rel:.2e}, all energies positive, two-form dev {two_form:.2e}, "
        f"arch residual {res:.2e}",
    )


def test_criterion_4_change_of_variables_identity():
    spec = hulthen_levels(HULTHEN_FIXTURE)
    per_level = max(
        dev for _, dev in verify_hulthen_identity(HULTHEN_FIXTURE, ARCH, np.linspace(-10.0, 10.0, 100))
    )
    xi = arch_point(np.linspace(-10.0, 10.0, 100), 0.5)
    fulls = []
    for lv in spec.levels:
        pt_params = PTParams(HULTHEN_FIXTURE.alpha, float(lv.internal["beta_eff"].real), 0.5)
        W = lambda r, q=pt_params: v_pt(q, r)  # noqa: E731
        fulls.append(transform_potential(W, lv.energy, liouville_derivatives(xi)) + lv.energy)
    independence = max(
        float(np.max(np.abs(fulls[i] - fulls[j])))
        for i in range(len(fulls))
        for j in range(i + 1, len(fulls))
    )
    ok = per_level < 1e-9 and independence < 1e-9
    _verdict(
        4, ok, f"per-level deviation {per_level:.2e}, level-independence {independence:.2e}"
    )


def test_criterion_5_symmetry_of_potentials_and_paths():
    t_line = np.linspace(-12.0, 12.0, 201)
    t_arch = np.linspace(-10.0, 10.0, 201)
    devs = [
        pt_symmetry_check(ECKART_FIXTURE, LINE, t_line),
        pt_symmetry_check(PT_FIXTURE, LINE, t_line),
        pt_symmetry_check(HULTHEN_FIXTURE, ARCH, t_arch),
    ]
    path_dev = max(pt_path_check(LINE, t_line), pt_path_check(ARCH, t_arch))
    ok = max(devs) < 1e-12 and path_dev < 1e-12
    _verdict(5, ok, f"potential symmetry {max(devs):.2e}, path symmetry {path_dev:.2e}")


def test_criterion_6_polynomial_recurrence_against_explicit_sum():
    rng = np.random.default_rng(20080308)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(0, 21))
        alpha = rng.uniform(-0.9, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        beta = rng.uniform(-0.9, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        while abs(z) > 2:
            z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        got = jacobi_poly(n, alpha, beta, z)
        want = jacobi_explicit_highprec(n, alpha, beta, z)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    bridge_rng = np.random.default_rng(6)
    bridge_worst = 0.0
    for _ in range(20):
        n = int(bridge_rng.integers(0, 11))
        a = bridge_rng.uniform(-0.9, 3.0)
        b = bridge_rng.uniform(-0.9, 3.0)
        s = bridge_rng.uniform(-1, 1) + 1j * bridge_rng.uniform(-1, 1)
        while abs(s) > 1:
            s = bridge_rng.uniform(-1, 1) + 1j * bridge_rng.uniform(-1, 1)
        left = jacobi_poly(n, a, b, 1.0 - 2.0 * s)
        right = (
            rising(a + 1.0, n)
            / math.factorial(n)
            * gauss2f1_terminating(-float(n), n + a + b + 1.0, a + 1.0, s)
        )
        bridge_worst = max(bridge_worst, abs(left - right) / max(1.0, abs(left)))
    ok = worst < 1e-11 and bridge_worst < 1e-11
    _verdict(6, ok, f"100-point sweep dev {worst:.2e}, series bridge dev {bridge_worst:.2e}")


def test_criterion_7_randomized_structure_of_the_spectra():
    rng = np.random.default_rng(20080308)
    gaps = 0
    min_gap = np.inf
    for _ in range(1000):
        p = EckartParams(A=rng.uniform(2.0, 10.0), beta=rng.uniform(0.0, 5.0))
        for n in range(1, len(eckart_levels(p).levels)):
            min_gap = min(min_gap, eckart_gap(p, n))
            gaps += 1
    pt_ok = True
    for _ in range(200):
        p = PTParams(alpha=rng.uniform(0.1, 8.0), beta=rng.uniform(0.1, 8.0), epsilon=0.5)
        pt_ok = pt_ok and all(lv.energy < 0 for lv in pt_levels(p).levels)
    hul_ok = True
    for _ in range(200):
        p = HulthenParams(alpha=rng.uniform(0.1, 5.0), C=rng.uniform(-30.0, -0.1))
        hul_ok = hul_ok and all(lv.energy > 0 for lv in hulthen_levels(p).levels)
    worst_im = 0.0
    for _ in range(50):
        ar, br = rng.uniform(1.0, 4.0, size=2)
        q = rng.uniform(-1.0, 1.0)
        sigma, tau = (-1, -1)
        alpha_c = ar + 1j * q
        beta_c = br - 1j * (sigma / tau) * q  # keeps sigma*alpha + tau*beta real
        e = pt_levels_complex(alpha_c, beta_c, sigma, tau, 0)
        worst_im = max(worst_im, abs(e.imag))
    ok = gaps > 1000 and min_gap > 1.0 and pt_ok and hul_ok and worst_im < 1e-12
    _verdict(
        7,
        ok,
        f"{gaps} level gaps all > 1 (min {min_gap:.3f}), bound-state signs hold, "
        f"complex-coupling max |Im E| {worst_im:.1e}",
    )


def test_criterion_8_discretization_error_scales_as_h_squared():
    lv = next(
        x for x in pt_levels(PT_FIXTURE).levels if (x.sigma, x.tau, x.N) == (-1, -1, 1)
    )
    slope = convergence_study(PT_FIXTURE, ShiftedLine(0.5, L=12.0), lv, (0.02, 0.01, 0.005))
    grid = GridSpec(L=10.0, n=2000)
    opr = discretize(lambda c: np.zeros_like(c.r), ShiftedLine(0.5, L=10.0), grid)
    e, _ = shift_invert_eigen(opr, (math.pi / 20.0) ** 2)
    free_err = abs(e - free_particle_eigenvalue(grid, 1))
    ok = 1.7 < slope < 2.3 and free_err < 1e-10
    _verdict(8, ok, f"error slope {slope:.3f} (target 2), free-particle check {free_err:.1e}")


def test_criterion_9_small_shift_expansion_is_second_order():
    ratios = []
    for t in (0.3, 1.0, 3.0):
        e2, f2 = sinh_inverse_square_expansion(t, 1e-2)
        e3, f3 = sinh_inverse_square_expansion(t, 1e-3)
        ratios.append(abs(e2 - f2) / abs(e3 - f3))
    ok = all(80.0 < r < 120.0 for r in ratios)
    _verdict(9, ok, "error ratios at shift 1e-2 vs 1e-3: " + ", ".join(f"{r:.1f}" for r in ratios))
