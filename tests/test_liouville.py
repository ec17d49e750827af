"""Transporting potentials through analytic changes of variables."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import HULTHEN_FIXTURE
from ptspec import contour
from ptspec.cli import run
from ptspec.contour import ArchContour, Chart, arch_point, liouville_derivatives
from ptspec.errors import LevelMismatch, VanishingJacobian
from ptspec.liouville import transform_potential, verify_hulthen_identity
from ptspec.models import HulthenParams, PTParams, potential_fn, v_hulthen, v_pt
from ptspec.spectra import hulthen_levels
from ptspec.wavefun import SampledContour


def _arch_samples(p):
    """The arch as ``liouville-check`` samples it by default."""
    return SampledContour(ArchContour(0.5), np.linspace(-10.0, 10.0, 100), potential_fn(p))


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
    for lv in hulthen_levels(p).levels:
        dev = verify_hulthen_identity(p, _arch_samples(p), lv)
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
        for lv in hulthen_levels(p).levels:
            assert verify_hulthen_identity(p, _arch_samples(p), lv) < 1e-8
            checked += 1
            if checked >= 30:
                break
    assert checked == 30


def test_identity_rejects_foreign_level():
    lv = hulthen_levels(HULTHEN_FIXTURE).levels[0]
    other = HulthenParams(0.6, HULTHEN_FIXTURE.C)
    with pytest.raises(LevelMismatch):
        verify_hulthen_identity(other, _arch_samples(other), lv)
    with pytest.raises(LevelMismatch):
        verify_hulthen_identity(
            HULTHEN_FIXTURE,
            _arch_samples(HULTHEN_FIXTURE),
            dataclasses.replace(lv, energy=lv.energy + 1.0),
        )


def test_displaced_inverse_map_fails_the_algebra_check(monkeypatch):
    monkeypatch.setattr(contour, "liouville_derivatives", _shifted_chart_map)
    lv = hulthen_levels(HULTHEN_FIXTURE).levels[0]
    with pytest.raises(RuntimeError, match="inverse-map algebra broken"):
        verify_hulthen_identity(HULTHEN_FIXTURE, _arch_samples(HULTHEN_FIXTURE), lv)


_CHECK_ARGV = ["liouville-check", "--alpha", "1.7491", "--C", "-20.8404"]


def test_each_transcendental_kernel_runs_once_per_point_set(monkeypatch, capsys):
    """On the t grid, arch_point's tanh and sinh; on the arch, e^{2i xi} and e^{i xi},
    then arcsinh, tanh, cosh and sinh of r once, whatever the number of levels."""
    n = 1000
    calls = collections.Counter()

    def counted(name, kernel):
        def call(x, *args, **kwargs):
            if np.size(x) == n:
                calls[name, "complex" if np.iscomplexobj(x) else "real"] += 1
            return kernel(x, *args, **kwargs)

        return call

    for name in ("exp", "cosh", "sinh", "tanh", "arcsinh"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    assert run([*_CHECK_ARGV, "--n-samples", str(n)]) == 0
    assert len(json.loads(capsys.readouterr().out)["per_level"]) >= 2
    assert calls == {
        ("tanh", "real"): 1,
        ("sinh", "real"): 1,
        ("exp", "complex"): 2,
        ("arcsinh", "complex"): 1,
        ("tanh", "complex"): 1,
        ("cosh", "complex"): 1,
        ("sinh", "complex"): 1,
    }


def test_liouville_check_peak_memory_does_not_grow(capsys):
    """The traced peak of one 1e5-sample check stays at or below 19.08 MiB (numpy
    2.4.6): an array kept alive per point set, or one more temporary per level, shows here."""
    argv = [*_CHECK_ARGV, "--n-samples", "100000"]
    assert run(argv) == 0  # imports and first-call caches outside the measurement
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19.08 * 2**20
