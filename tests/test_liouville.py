"""Transporting potentials through analytic changes of variables."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HULTHEN_FIXTURE, POOL_DOMAINS, PT_FIXTURE
from ptspec import contour
from ptspec.cli import run
from ptspec.contour import ArchContour, Chart, ShiftedLine, arch_point, liouville_derivatives
from ptspec.errors import GridTooCoarse, LevelMismatch, VanishingJacobian
from ptspec.liouville import transform_potential, verify_hulthen_identity
from ptspec.models import HulthenParams, PTParams, potential_fn, v_hulthen, v_pt
from ptspec.spectra import check_level, hulthen_levels
from ptspec.wavefun import SampledContour


def _arch_deviations(p):
    """Each level of ``p`` with its deviation on the arch as ``liouville-check`` samples it by default."""
    return verify_hulthen_identity(p, ArchContour(0.5), np.linspace(-10.0, 10.0, 100))


def _identity_map(xi):
    xi = np.asarray(xi, dtype=complex)
    return xi, np.ones_like(xi), np.zeros_like(xi), np.zeros_like(xi)


def _affine_map(xi):
    xi = np.asarray(xi, dtype=complex)
    z = np.zeros_like(xi)
    return 2.0 * xi + 1.0, np.full_like(xi, 2.0), z, z


def _flat_map(xi):
    xi = np.asarray(xi, dtype=complex)
    z = np.zeros_like(xi)
    return xi, z, z, z


def _shifted_target(xi):
    """The true inverse map with its image displaced off the solution set."""
    r, r1, r2, r3 = liouville_derivatives(xi)
    return r + 0.2j, r1, r2, r3


def _shifted_chart_map(chart):
    """The displaced map as an ArchChart reads it, with r as its Chart."""
    r, r1, r2, r3 = _shifted_target(chart.xi)
    return Chart(r), r1, r2, r3


def test_identity_map_transforms_trivially():
    xi = np.linspace(-2.0, 2.0, 41) + 0.3j
    got = transform_potential(lambda r: r**2, 2.0, _identity_map(xi))
    assert np.array_equal(got, xi**2 + 2.0)


def test_affine_map_rescales_by_squared_jacobian():
    xi = np.linspace(-2.0, 2.0, 41) + 0.3j
    got = transform_potential(np.cos, 1.5, _affine_map(xi))
    want = 4.0 * (np.cos(2.0 * xi + 1.0) + 1.5)
    assert np.max(np.abs(got - want)) < 1e-14


def test_vanishing_jacobian_is_rejected():
    with pytest.raises(VanishingJacobian):
        transform_potential(np.cos, 1.0, _flat_map(np.array([0.5 + 0.2j])))


def test_screened_well_emerges_from_the_transform():
    p = HULTHEN_FIXTURE
    deviations = _arch_deviations(p)
    assert [lv for lv, _ in deviations] == hulthen_levels(p).levels
    for _, dev in deviations:
        assert dev < 1e-9


def test_transformed_potential_is_level_independent():
    p = HULTHEN_FIXTURE
    xi = arch_point(np.linspace(-10.0, 10.0, 100), 0.5)
    fulls = []
    for lv in hulthen_levels(p).levels:
        beta_eff = float(lv.internal["beta_eff"].real)
        pt_params = PTParams(p.alpha, beta_eff, 0.5)
        W = lambda r, q=pt_params: v_pt(q, r)  # noqa: E731
        fulls.append(transform_potential(W, lv.energy, liouville_derivatives(xi)) + lv.energy)
    for i in range(len(fulls)):
        for j in range(i + 1, len(fulls)):
            assert np.max(np.abs(fulls[i] - fulls[j])) < 1e-9


def test_apex_value_of_transformed_potential():
    p = HULTHEN_FIXTURE
    lv = hulthen_levels(p).levels[0]
    beta_eff = float(lv.internal["beta_eff"].real)
    W = lambda r: v_pt(PTParams(p.alpha, beta_eff, 0.5), r)  # noqa: E731
    xi0 = arch_point(0.0, 0.5)
    got = transform_potential(W, lv.energy, liouville_derivatives(xi0))
    got = complex(np.asarray(got).reshape(()))
    c2 = math.cos(0.5) ** 2
    want = p.A / c2**2 + p.B / c2 - lv.energy
    assert got == pytest.approx(want, rel=1e-9)


def test_displaced_map_breaks_the_identity():
    p = HULTHEN_FIXTURE
    lv = hulthen_levels(p).levels[0]
    beta_eff = float(lv.internal["beta_eff"].real)
    xi = arch_point(np.linspace(-10.0, 10.0, 100), 0.5)
    W = lambda r: v_pt(PTParams(p.alpha, beta_eff, 0.5), r)  # noqa: E731
    lhs = transform_potential(W, lv.energy, _shifted_target(xi))
    rhs = v_hulthen(p, xi) - lv.energy
    assert np.max(np.abs(lhs - rhs)) > 0.1


def test_identity_holds_across_random_parameters():
    rng = np.random.default_rng(20080308)
    checked = 0
    while checked < 30:
        p = HulthenParams(alpha=rng.uniform(0.1, 3.0), C=rng.uniform(-20.0, -0.5))
        for _, dev in _arch_deviations(p):
            assert dev < 1e-8
            checked += 1
            if checked >= 30:
                break
    assert checked == 30


def test_identity_rejects_foreign_level():
    """The check takes no level: it pairs each deviation with a level of ``p`` itself, never
    with one of other parameters or with a moved energy, both of which ``check_level`` refuses."""
    lv = hulthen_levels(HULTHEN_FIXTURE).levels[0]
    other = HulthenParams(0.6, HULTHEN_FIXTURE.C)
    checked = [level for level, _ in _arch_deviations(other)]
    assert checked and checked == hulthen_levels(other).levels
    assert all(check_level(other, level) == level for level in checked)
    assert lv not in checked
    with pytest.raises(LevelMismatch):
        check_level(other, lv)
    with pytest.raises(LevelMismatch):
        check_level(HULTHEN_FIXTURE, dataclasses.replace(lv, energy=lv.energy + 1.0))


def test_identity_check_refuses_an_empty_grid(monkeypatch):
    """An empty t is refused by name before any point is sampled: the arch has no arch_point here."""
    monkeypatch.setattr(contour, "arch_point", None)
    with pytest.raises(GridTooCoarse, match="at least 1 sample"):
        verify_hulthen_identity(HULTHEN_FIXTURE, ArchContour(0.5), np.array([]))


@pytest.mark.parametrize(
    "p, path, message",
    [
        (HULTHEN_FIXTURE, ShiftedLine(0.5), "runs on the arch only"),
        (PT_FIXTURE, ArchContour(0.5), "takes Hulthen parameters, not PTParams"),
    ],
    ids=["shifted-line", "pt-params"],
)
def test_identity_check_refuses_what_is_not_the_hulthen_arch(p, path, message):
    with pytest.raises(TypeError, match=message):
        verify_hulthen_identity(p, path, np.linspace(-10.0, 10.0, 100))


def test_displaced_inverse_map_fails_the_algebra_check(monkeypatch):
    monkeypatch.setattr(contour, "liouville_derivatives", _shifted_chart_map)
    with pytest.raises(RuntimeError, match="inverse-map algebra broken"):
        _arch_deviations(HULTHEN_FIXTURE)


_CHECK_ARGV = ["liouville-check", "--alpha", "1.7491", "--C", "-20.8404"]


#: calls of each kernel per point set: on the t grid, arch_point's tanh and sinh; on
#: the arch, e^{2i xi} and e^{i xi}, then arcsinh, tanh, cosh and sinh of r once
_KERNELS_PER_POINT_SET = {
    ("tanh", "real"): 1,
    ("sinh", "real"): 1,
    ("exp", "complex"): 2,
    ("arcsinh", "complex"): 1,
    ("tanh", "complex"): 1,
    ("cosh", "complex"): 1,
    ("sinh", "complex"): 1,
}


def _kernel_calls(monkeypatch, capsys, n):
    """Each kernel's calls on arrays in one n-sample check, by (name, real/complex, array size)."""
    calls = collections.Counter()

    def counted(name, kernel):
        def call(x, *args, **kwargs):
            if isinstance(x, np.ndarray):
                calls[name, "complex" if np.iscomplexobj(x) else "real", x.size] += 1
            return kernel(x, *args, **kwargs)

        return call

    for name in ("exp", "cosh", "sinh", "tanh", "arcsinh"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    assert run([*_CHECK_ARGV, "--n-samples", str(n)]) == 0
    assert len(json.loads(capsys.readouterr().out)["per_level"]) >= 2
    return calls


def test_each_transcendental_kernel_runs_once_per_point_set(monkeypatch, capsys):
    """Each kernel once on the one block of points, whatever the number of levels."""
    n = 1000
    assert _kernel_calls(monkeypatch, capsys, n) == {(*k, n): c for k, c in _KERNELS_PER_POINT_SET.items()}


def test_each_transcendental_kernel_runs_once_per_block(monkeypatch, capsys):
    """2 BLOCK_POINTS + 1 samples are two full blocks and one of a single point."""
    full = contour.BLOCK_POINTS
    calls = _kernel_calls(monkeypatch, capsys, 2 * full + 1)
    assert calls == {
        (*k, size): c * blocks for k, c in _KERNELS_PER_POINT_SET.items() for size, blocks in ((full, 2), (1, 1))
    }


def _map_arrays(p, samples):
    """V, sinh r, cosh r, r', both Jacobian terms and each level's transformed V at ``samples``."""
    chart = samples.inverse_map
    r, r1, jac2, jac3 = chart.inverse
    arrays = [samples.v, r.sh, r.ch, r1, jac2, jac3]
    for lv in hulthen_levels(p).levels:
        pt_params = PTParams(p.alpha, float(lv.internal["beta_eff"].real), samples.contour.epsilon)
        arrays.append(transform_potential(lambda rr, q=pt_params: v_pt(q, rr), lv.energy, chart))
    return arrays


@pytest.mark.parametrize("block", [1000, contour.BLOCK_POINTS])
@pytest.mark.parametrize("n", [777, 20001, 100000])
@pytest.mark.parametrize("p", [HULTHEN_FIXTURE, HulthenParams(1.7491, -20.8404)], ids=["fixture", "pool"])
def test_blocks_give_the_whole_grid_bit_for_bit(p, n, block, monkeypatch):
    t = np.linspace(-10.0, 10.0, n)
    arch = ArchContour(0.5)
    whole = _map_arrays(p, SampledContour(arch, t, potential_fn(p)))
    monkeypatch.setattr(contour, "BLOCK_POINTS", block)
    parts = [_map_arrays(p, b) for b in SampledContour.blocks(arch, t, potential_fn(p))]
    assert len(parts) == -(-n // block)
    for i, a in enumerate(whole):
        blocked = np.concatenate([part[i] for part in parts])
        assert np.array_equal(blocked.view(np.float64), a.view(np.float64)), i


def _check_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


#: n in [1, 3 BLOCK_POINTS + 1], drawn as whole blocks plus a rest so most draws span several blocks
_SAMPLE_COUNTS = st.builds(
    lambda blocks, rest: min(blocks * contour.BLOCK_POINTS + rest, 3 * contour.BLOCK_POINTS + 1),
    st.integers(0, 3),
    st.integers(1, contour.BLOCK_POINTS),
)


@settings(max_examples=12, deadline=None)
@given(_SAMPLE_COUNTS, st.data())
def test_liouville_check_stdout_does_not_depend_on_the_blocks(n, data):
    """Byte-identical stdout whether the check runs in blocks or in one block of all n points."""
    (a_lo, a_hi, a_open), (c_lo, c_hi, c_open) = POOL_DOMAINS["hulthen"]
    alpha = data.draw(st.floats(a_lo, a_hi, exclude_min=a_open, exclude_max=True))
    c = data.draw(st.floats(c_lo, c_hi, exclude_min=c_open, exclude_max=True))
    argv = ["liouville-check", "--alpha", repr(alpha), "--C", repr(c), "--n-samples", str(n)]
    blocked = _check_stdout(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contour, "BLOCK_POINTS", data.draw(st.integers(n, 4 * contour.BLOCK_POINTS)))
        assert _check_stdout(argv) == blocked


#: tracemalloc peak of a 1e5-sample check, measured with numpy 2.4.6 (2.34 MiB), plus 4%
_BLOCKED_PEAK = 2.46 * 2**20


def _traced_peak(n, capsys):
    """The tracemalloc peak of one n-sample check, after a small one has done the imports
    and first-call caches outside the measurement."""
    assert run([*_CHECK_ARGV, "--n-samples", "100"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run([*_CHECK_ARGV, "--n-samples", str(n)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_liouville_check_peak_memory_does_not_grow(capsys):
    """The traced peak of one 1e5-sample check stays at one block's working set plus t:
    an array kept alive per point set, one more temporary per level, or a whole-grid
    array, shows here."""
    assert _traced_peak(100_000, capsys) <= _BLOCKED_PEAK


def test_liouville_check_peak_memory_grows_only_by_t(capsys):
    """At 1e6 samples the peak grows only by t's 8 bytes per sample (9.26 MiB measured,
    183 MiB with one whole-grid point set)."""
    assert _traced_peak(1_000_000, capsys) <= 8 * 1_000_000 + _BLOCKED_PEAK
