"""Finite-difference eigenvalue oracle: grids, solver, matching, convergence."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg

from helpers import ECKART_FIXTURE, PT_FIXTURE, dense_eigenvalues, free_particle_eigenvalue, to_dense
from ptspec import cli, oracle
from ptspec.contour import ArchContour, ShiftedLine
from ptspec.errors import LUBreakdown, NoConvergence, SingularPotentialOnGrid
from ptspec.oracle import (
    DEFAULT_SEED,
    GridSpec,
    TridiagonalOperator,
    _rayleigh,
    convergence_study,
    discretize,
    match_levels,
    shift_invert_eigen,
)
from ptspec.models import PTParams
from ptspec.spectra import Level, eckart_levels, pt_levels

LINE = ShiftedLine(0.5)
ECKART_CLI = ["--model", "eckart", "--A", "3.5", "--beta", "1.0"]
PT_CLI = ["--model", "pt", "--alpha", "4.3", "--beta", "1.7", "--eps", "0.5"]


def _zero_potential(c):
    return np.zeros_like(c.r)


# ---- grids and operators ------------------------------------------------------------


def test_grid_spec_validation_and_geometry():
    with pytest.raises(ValueError):
        GridSpec(L=8.0, n=2)
    with pytest.raises(ValueError):
        GridSpec(L=0.0, n=100)
    with pytest.raises(ValueError, match="1/h\\^2 is not finite"):
        GridSpec(L=1e-300, n=100)  # h^2 underflows to 0
    with pytest.raises(ValueError, match="1/h\\^2 is not finite"):
        GridSpec(L=1e-155, n=100)  # h^2 is subnormal and 1/h^2 overflows
    g = GridSpec(L=8.0, n=127)
    assert g.h == pytest.approx(16.0 / 128.0)
    pts = g.points()
    assert len(pts) == 127
    assert pts[0] == pytest.approx(-8.0 + g.h)
    assert np.max(np.abs(pts + pts[::-1])) < 1e-12


def test_grid_halving_nests_points_and_potential():
    g1 = GridSpec(L=8.0, n=127)
    g2 = GridSpec(L=8.0, n=255)
    assert np.array_equal(g2.points()[1::2], g1.points())
    o1 = discretize(PT_FIXTURE, LINE, g1)
    o2 = discretize(PT_FIXTURE, LINE, g2)
    v1 = o1.diag - 2.0 / g1.h**2
    v2 = o2.diag[1::2] - 2.0 / g2.h**2
    assert np.allclose(v2, v1, rtol=0.0, atol=1e-11)


def test_matvec_agrees_with_dense_form():
    g = GridSpec(L=4.0, n=30)
    opr = discretize(ECKART_FIXTURE, LINE, g)
    rng = np.random.default_rng(DEFAULT_SEED)
    x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    assert np.allclose(opr.matvec(x), to_dense(opr) @ x, rtol=1e-12, atol=1e-12)


def test_discretize_guards():
    g = GridSpec(L=1.0, n=99)
    with pytest.raises(TypeError):
        discretize(PT_FIXTURE, ArchContour(0.5), g)
    spiky = lambda c: np.where(np.abs(c.r.real) < 1e-3, np.inf, 0.0) + 0j
    with pytest.raises(SingularPotentialOnGrid):
        discretize(spiky, LINE, g)


# ---- eigenvalue solver --------------------------------------------------------------


def _free_setup():
    grid = GridSpec(L=10.0, n=2000)
    opr = discretize(_zero_potential, ShiftedLine(0.5, L=10.0), grid)
    return grid, opr


def test_free_particle_ground_state():
    grid, opr = _free_setup()
    target = (math.pi / 20.0) ** 2
    e, iters = shift_invert_eigen(opr, target)
    assert abs(e - free_particle_eigenvalue(grid, 1)) < 1e-10
    assert iters < 30
    assert abs(e - target) < 1e-3  # h^2-small discretization offset


def test_solver_determinism_and_seed_independence():
    _, opr = _free_setup()
    target = (math.pi / 20.0) ** 2
    e1, it1 = shift_invert_eigen(opr, target)
    e2, it2 = shift_invert_eigen(opr, target)
    assert e1 == e2 and it1 == it2
    e3, _ = shift_invert_eigen(opr, target, seed=12345)
    assert abs(e1 - e3) < 1e-9


def test_solver_reports_nonconvergence():
    _, opr = _free_setup()
    with pytest.raises(NoConvergence):
        # one iteration can never produce two eigenvalue estimates to compare
        shift_invert_eigen(opr, (math.pi / 20.0) ** 2, max_iter=1)


def test_singular_shift_retries_with_perturbation():
    g = GridSpec(L=1.0, n=50)
    opr = TridiagonalOperator(diag=np.zeros(50, dtype=complex), offdiag=0j, grid=g)
    e, iters = shift_invert_eigen(opr, 0.0)
    assert e == 0j
    assert iters == 2


@pytest.fixture(params=["numpy", "scipy"])
def lapack(request):
    """The ``factor`` of each backend this platform has."""
    if request.param == "scipy":
        pytest.importorskip("scipy")
        return oracle._scipy_lapack()
    backend = oracle._numpy_lapack()
    if backend is None:
        pytest.skip("numpy bundles no ILP64 scipy-openblas here")
    return backend


@pytest.mark.parametrize("n, diag_scale", [(2, 1.0), (3, 1.0), (200, 1.0), (200, 0.1)])
def test_tridiagonal_lapack_solves_like_dense(lapack, request, n, diag_scale):
    # unequal random bands catch a swapped band order; a diagonal smaller than
    # the bands makes most rows swap, whose pivots a mistyped ipiv would garble
    if n == 2 and request.node.callspec.params["lapack"] == "scipy":
        pytest.skip("scipy's zgttrf wrapper refuses n = 2")
    factor = lapack
    rng = np.random.default_rng(n)
    dl, d, du, b = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (n - 1, n, n - 1, n))
    d *= diag_scale
    want = np.linalg.solve(np.diag(d) + np.diag(dl, -1) + np.diag(du, 1), b)
    lu, info = factor(dl.copy(), d.copy(), du.copy(), b)
    assert info == 0
    lu[-1]()
    assert np.allclose(b, want, rtol=1e-10, atol=0.0)
    steps = lu[4] - np.arange(1, n + 1)  # row i swaps with row i + 1, or not at all
    assert set(steps[:-1]) <= {0, 1} and steps[-1] == 0
    if diag_scale < 1.0:
        assert np.mean(steps) > 0.8


def test_numpy_lapack_refuses_arrays_it_cannot_pass_as_pointers():
    factor = oracle._numpy_lapack()
    if factor is None:
        pytest.skip("numpy bundles no ILP64 scipy-openblas here")
    bands = (np.ones(9, dtype=complex), np.full(10, 4.0 + 0j), np.ones(9, dtype=complex))
    with pytest.raises(ValueError):
        factor(*bands, np.ones(10))  # float64 right-hand side
    with pytest.raises(ValueError):
        factor(*bands, np.ones(11, dtype=complex))  # wrong length
    with pytest.raises((TypeError, ValueError)):
        factor(*bands, np.ones(20, dtype=complex)[::2])  # strided


def test_tridiagonal_lapack_reports_a_singular_matrix(lapack):
    zeros = np.zeros(49, dtype=complex)
    _, info = lapack(zeros.copy(), np.zeros(50, dtype=complex), zeros, np.ones(50, dtype=complex))
    assert info > 0


def test_three_singular_factorizations_raise_lu_breakdown(lapack, monkeypatch):
    # with no off-diagonal, each attempt's shift (s, then twice perturbed by
    # 1e-8 (1 + i)) zeroes one diagonal entry of H - shift
    shifts = [2.5 + 0j]
    for _ in range(2):
        shifts.append(shifts[-1] + 1e-8 * (1.0 + 1.0j))
    opr = TridiagonalOperator(diag=np.array([*shifts, 7.0, 9.0]), offdiag=0j, grid=GridSpec(L=1.0, n=5))
    monkeypatch.setattr(oracle, "_tridiagonal_lapack", lambda: lapack)
    with pytest.raises(LUBreakdown):
        shift_invert_eigen(opr, shifts[0])


@pytest.mark.parametrize("build_report", ["raises", "other-lapack"])
def test_numpy_lapack_binds_by_the_library_file_and_its_symbols(build_report, monkeypatch):
    if oracle._numpy_lapack() is None:
        pytest.skip("numpy bundles no ILP64 scipy-openblas here")

    def show_config(mode="stdout"):
        if build_report == "raises":
            raise RuntimeError("no build report")
        return {"Build Dependencies": {"lapack": {"name": "mkl"}}}

    monkeypatch.setattr(np, "show_config", show_config)
    factor = oracle._numpy_lapack()
    assert factor is not None
    b = np.ones(3, dtype=complex)
    lu, info = factor(np.zeros(2, dtype=complex), np.full(3, 2.0 + 0j), np.zeros(2, dtype=complex), b)
    lu[-1]()
    assert info == 0 and np.array_equal(b, np.full(3, 0.5 + 0j))


@pytest.mark.parametrize(
    "argv, seed",
    [
        ([*PT_CLI, "--grid-n", "1500"], None),
        ([*PT_CLI, "--grid-n", "48000"], None),
        ([*ECKART_CLI], None),
        # the continuum-adjacent level that takes 191 steps and misses tol
        (["--model", "eckart", "--A", "4.2936", "--beta", "2.5817", "--grid-n", "1500"], "1600859781"),
    ],
    ids=["pt-1500", "pt-48000", "eckart", "eckart-continuum"],
)
def test_scipy_fallback_gives_the_same_report(argv, seed, monkeypatch, capsys):
    pytest.importorskip("scipy")
    if seed is not None:
        monkeypatch.setenv("PTSPEC_SEED", seed)
    reports = []
    for backend in (oracle._tridiagonal_lapack, oracle._scipy_lapack):
        monkeypatch.setattr(oracle, "_tridiagonal_lapack", backend)
        code = cli.run(["verify", *argv, "--method", "fd"])
        reports.append((code, capsys.readouterr()))
    assert reports[0] == reports[1]
    if seed is not None:
        assert reports[0][0] == 1
        assert 191 in (lv["iterations"] for lv in json.loads(reports[0][1].out)["levels"])


def test_stopping_rule_scales_with_the_operator():
    # a power-of-two scaling is exact in floating point, so a stopping rule that
    # scales with ||H|| must take the same steps and return the scaled eigenvalue
    _, opr = _free_setup()
    s = 2.0**20
    big = TridiagonalOperator(diag=opr.diag * s, offdiag=opr.offdiag * s, grid=opr.grid)
    target = (math.pi / 20.0) ** 2
    e, iters = shift_invert_eigen(opr, target)
    e_big, iters_big = shift_invert_eigen(big, target * s)
    assert iters_big == iters
    assert e_big == e * s
    assert big.floor == opr.floor * s


def _bits(values) -> bytes:
    """The float64 bytes of a complex number or array."""
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.float64).tobytes()


def _old_matvec(opr, x):
    """H x by the array expressions that build the product in fresh temporaries."""
    y = opr.diag * x
    y[:-1] += opr.offdiag * x[1:]
    y[1:] += opr.offdiag * x[:-1]
    return y


@pytest.mark.parametrize("n", [3, 1500, 48000])
def test_matvec_into_buffers_is_bitwise_the_array_product(n):
    # from 256 KiB (n >= 16384) numpy may elide temporaries with the operands
    # swapped, which moves last bits; the buffered product must not
    opr = discretize(PT_FIXTURE, LINE, GridSpec(L=12.0, n=n))
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = _bits(_old_matvec(opr, x))
    out, work = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    assert opr.matvec(x, out, work) is out
    assert _bits(out) == want
    assert _bits(opr.matvec(x)) == want
    assert oracle._norm(x.real, x.imag) == np.linalg.norm(x)


def test_start_vector_per_seed_gives_a_fresh_operators_result():
    grid = GridSpec(L=12.0, n=1500)
    level = pt_levels(PT_FIXTURE).levels[1]
    held = discretize(PT_FIXTURE, LINE, grid)
    for seed in (DEFAULT_SEED, 12345, DEFAULT_SEED):
        fresh = discretize(PT_FIXTURE, LINE, grid)
        e_held, it_held = shift_invert_eigen(held, level.energy, seed=seed)
        e_fresh, it_fresh = shift_invert_eigen(fresh, level.energy, seed=seed)
        assert (_bits(e_held), it_held) == (_bits(e_fresh), it_fresh)


def test_start_vector_is_read_only_and_survives_match_levels():
    opr = discretize(PT_FIXTURE, LINE, GridSpec(L=12.0, n=1500))
    start = opr.start_vector(DEFAULT_SEED)
    rng = np.random.default_rng(DEFAULT_SEED)
    drawn = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
    drawn /= np.linalg.norm(drawn)
    assert _bits(start) == _bits(drawn)
    assert not start.flags.writeable
    with pytest.raises(ValueError):
        start[0] = 0.0
    assert match_levels(pt_levels(PT_FIXTURE), opr, tol=1e-2)["all_passed"]
    assert opr.start_vector(DEFAULT_SEED) is start
    assert _bits(start) == _bits(drawn)


def test_match_levels_draws_once_and_forms_the_floor_once(monkeypatch):
    calls = {"default_rng": 0, "floor": 0, "shift_invert_eigen": 0}

    def counted(owner, name, key=None):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key or name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(np.random, "default_rng")
    counted(vars(TridiagonalOperator)["floor"], "func", key="floor")  # the cached property's body
    counted(oracle, "shift_invert_eigen")  # match_levels solves through the module global
    spectrum = pt_levels(PT_FIXTURE)
    rep = match_levels(spectrum, discretize(PT_FIXTURE, LINE, GridSpec(L=12.0, n=1500)), tol=1e-2)
    assert len(rep["levels"]) == len(spectrum.levels) == 4
    assert calls == {"default_rng": 1, "floor": 1, "shift_invert_eigen": 4}


def test_rayleigh_quotient_isotropic_fallback():
    g = GridSpec(L=1.0, n=3)
    opr = TridiagonalOperator(diag=np.array([1.0 + 0j, 2.0 + 0j]), offdiag=0j, grid=g)
    x = np.array([1.0, 1.0j]) / math.sqrt(2.0)  # x @ x = 0: unconjugated form degenerates
    assert _rayleigh(x, opr.matvec(x)) == pytest.approx(1.5 + 0j, abs=1e-14)


def test_dense_solver_sees_fixture_levels():
    opr = discretize(PT_FIXTURE, LINE, GridSpec(L=8.0, n=300))
    eigs = dense_eigenvalues(opr)
    assert np.min(np.abs(eigs + 25.0)) < 0.15
    assert np.min(np.abs(eigs + 2.56)) < 0.15
    with pytest.raises(ValueError):
        dense_eigenvalues(discretize(PT_FIXTURE, LINE, GridSpec(L=8.0, n=401)))


# ---- matching reports ------------------------------------------------------------


def test_match_levels_confirms_fixture_spectra():
    grid = GridSpec(L=12.0, n=1500)
    pt_rep = match_levels(pt_levels(PT_FIXTURE), discretize(PT_FIXTURE, LINE, grid), tol=1e-2)
    assert len(pt_rep["levels"]) == 4
    assert pt_rep["all_passed"]
    assert pt_rep["max_im"] < 1e-3
    eck_rep = match_levels(
        eckart_levels(ECKART_FIXTURE), discretize(ECKART_FIXTURE, LINE, grid), tol=1e-2
    )
    assert len(eck_rep["levels"]) == 3
    assert eck_rep["all_passed"]
    assert eck_rep["max_im"] < 1e-3
    for c in pt_rep["levels"] + eck_rep["levels"]:
        assert c["abs_delta"] < 1e-2
        assert c["iterations"] >= 2


def test_match_levels_rejects_tampered_energy():
    grid = GridSpec(L=12.0, n=1500)
    spec = eckart_levels(ECKART_FIXTURE)
    bad = dataclasses.replace(spec.levels[0], energy=spec.levels[0].energy + 0.5)
    spec_bad = dataclasses.replace(spec, levels=[bad])
    rep = match_levels(spec_bad, discretize(ECKART_FIXTURE, LINE, grid), tol=1e-2)
    assert not rep["all_passed"]
    assert rep["levels"][0]["abs_delta"] > 0.3


def test_numeric_levels_insensitive_to_contour_shift():
    grid = GridSpec(L=12.0, n=1500)
    reports = {}
    for eps in (0.3, 0.7):
        p = PTParams(PT_FIXTURE.alpha, PT_FIXTURE.beta, eps)
        reports[eps] = match_levels(pt_levels(p), discretize(p, ShiftedLine(eps), grid), tol=1e-2)
    for c3, c7 in zip(reports[0.3]["levels"], reports[0.7]["levels"]):
        assert (c3["N"], c3["sigma"], c3["tau"]) == (c7["N"], c7["sigma"], c7["tau"])
        assert abs(complex(*c3["energy_numeric"]) - complex(*c7["energy_numeric"])) < 2e-2
    assert reports[0.3]["all_passed"] and reports[0.7]["all_passed"]


def test_report_serialization():
    grid = GridSpec(L=12.0, n=800)
    d = match_levels(pt_levels(PT_FIXTURE), discretize(PT_FIXTURE, LINE, grid), tol=5e-2)
    assert d["model"] == "pt"
    assert d["grid"] == {"L": 12.0, "n": 800, "h": grid.h}
    assert d["seed"] == DEFAULT_SEED
    assert "no external reference values" in d["tol_source"]
    assert d["all_passed"] == all(r["passed"] for r in d["levels"])
    assert d["max_im"] == max(r["im_abs"] for r in d["levels"])
    lc = d["levels"][0]
    e0 = complex(*lc["energy_numeric"])
    assert lc["energy_numeric"] == [e0.real, e0.imag]
    assert lc["im_abs"] == abs(e0.imag) and lc["abs_delta"] == abs(e0 - lc["energy_analytic"])
    assert set(lc) == {
        "N",
        "sigma",
        "tau",
        "energy_analytic",
        "energy_numeric",
        "abs_delta",
        "im_abs",
        "iterations",
        "passed",
    }


# ---- fine grids ----------------------------------------------------------------


def _backward_error(opr, e, steps=2):
    """||H z - e z|| for a unit z from inverse iteration at the shift e.

    Banded solves from a fixed start vector, independent of the solver under
    test: a small result means e is an eigenvalue of a nearby matrix.
    """
    n = len(opr.diag)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = opr.offdiag
    ab[1] = opr.diag - e
    ab[2, :-1] = opr.offdiag
    z = np.random.default_rng(DEFAULT_SEED).standard_normal(n) + 0j
    for _ in range(steps):
        z = scipy.linalg.solve_banded((1, 1), ab, z)
        z /= np.linalg.norm(z)
    return float(np.linalg.norm(opr.matvec(z) - e * z))


@pytest.mark.parametrize("n", [24000, 48000])
def test_fine_grid_fixtures_converge_in_few_steps(n):
    grid = GridSpec(L=12.0, n=n)
    for params, levels in ((PT_FIXTURE, pt_levels), (ECKART_FIXTURE, eckart_levels)):
        opr = discretize(params, LINE, grid)
        rep = match_levels(levels(params), opr, tol=1e-2)
        assert rep["all_passed"]
        floor = opr.floor
        for c in rep["levels"]:
            assert c["iterations"] <= 4
            assert _backward_error(opr, complex(*c["energy_numeric"])) <= floor


# ---- convergence order ------------------------------------------------------------


def test_error_scales_as_h_squared():
    h_list = (0.02, 0.01, 0.005)
    lv_pt = next(
        lv for lv in pt_levels(PT_FIXTURE).levels if (lv.sigma, lv.tau, lv.N) == (-1, -1, 1)
    )
    slope = convergence_study(PT_FIXTURE, ShiftedLine(0.5, L=12.0), lv_pt, h_list)
    assert 1.7 < slope < 2.3
    lv_eck = eckart_levels(ECKART_FIXTURE).levels[0]
    slope = convergence_study(ECKART_FIXTURE, ShiftedLine(0.5, L=12.0), lv_eck, h_list)
    assert 1.7 < slope < 2.3


def test_error_scales_as_h_squared_on_fine_grids():
    # the Eckart level E = 3.75 sits next to the contour continuum and reads a
    # slope near 1.84 on these grids, so only the negative-energy levels are held to 2
    contour = ShiftedLine(0.5, L=12.0)
    cases = [(PT_FIXTURE, lv) for lv in pt_levels(PT_FIXTURE).levels]
    cases += [(ECKART_FIXTURE, lv) for lv in eckart_levels(ECKART_FIXTURE).levels if lv.energy < 0]
    assert len(cases) == 6
    for params, lv in cases:
        slope = convergence_study(params, contour, lv, (0.004, 0.002, 0.001))
        assert slope == pytest.approx(2.0, abs=0.05)


def test_free_particle_convergence_slope():
    free_level = Level("free", 0, None, None, (math.pi / 20.0) ** 2, {})
    slope = convergence_study(
        _zero_potential, ShiftedLine(0.5, L=10.0), free_level, (0.02, 0.01, 0.005)
    )
    assert slope == pytest.approx(2.0, abs=0.05)


def test_convergence_study_needs_three_grids():
    lv = eckart_levels(ECKART_FIXTURE).levels[0]
    with pytest.raises(ValueError):
        convergence_study(ECKART_FIXTURE, ShiftedLine(0.5, L=12.0), lv, (0.02, 0.01))
