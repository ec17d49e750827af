"""Transporting potentials through analytic changes of variables."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from helpers import HULTHEN_FIXTURE
from ptspec.contour import arch_point, liouville_derivatives
from ptspec.errors import LevelMismatch, VanishingJacobian
from ptspec.liouville import TransformInput, transform_potential, verify_hulthen_identity
from ptspec.models import HulthenParams, PTParams, v_hulthen, v_pt
from ptspec.spectra import hulthen_levels


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


def test_identity_map_transforms_trivially():
    xi = np.linspace(-2.0, 2.0, 41) + 0.3j
    inp = TransformInput(W=lambda r: r**2, kappa_sq=2.0, map=_identity_map)
    got = transform_potential(inp, xi)
    assert np.array_equal(got, xi**2 + 2.0)


def test_affine_map_rescales_by_squared_jacobian():
    xi = np.linspace(-2.0, 2.0, 41) + 0.3j
    inp = TransformInput(W=np.cos, kappa_sq=1.5, map=_affine_map)
    got = transform_potential(inp, xi)
    want = 4.0 * (np.cos(2.0 * xi + 1.0) + 1.5)
    assert np.max(np.abs(got - want)) < 1e-14


def test_vanishing_jacobian_is_rejected():
    inp = TransformInput(W=np.cos, kappa_sq=1.0, map=_flat_map)
    with pytest.raises(VanishingJacobian):
        transform_potential(inp, np.array([0.5 + 0.2j]))


def test_screened_well_emerges_from_the_transform():
    p = HULTHEN_FIXTURE
    for lv in hulthen_levels(p).levels:
        dev = verify_hulthen_identity(p.alpha, p.C, lv)
        assert dev < 1e-9


def test_transformed_potential_is_level_independent():
    p = HULTHEN_FIXTURE
    xi = arch_point(np.linspace(-10.0, 10.0, 100), 0.5)
    fulls = []
    for lv in hulthen_levels(p).levels:
        beta_eff = float(lv.internal["beta_eff"].real)
        pt_params = PTParams(p.alpha, beta_eff, 0.5)
        inp = TransformInput(
            W=lambda r, q=pt_params: v_pt(q, r), kappa_sq=lv.energy, map=liouville_derivatives
        )
        fulls.append(transform_potential(inp, xi) + lv.energy)
    for i in range(len(fulls)):
        for j in range(i + 1, len(fulls)):
            assert np.max(np.abs(fulls[i] - fulls[j])) < 1e-9


def test_apex_value_of_transformed_potential():
    p = HULTHEN_FIXTURE
    lv = hulthen_levels(p).levels[0]
    beta_eff = float(lv.internal["beta_eff"].real)
    inp = TransformInput(
        W=lambda r: v_pt(PTParams(p.alpha, beta_eff, 0.5), r),
        kappa_sq=lv.energy,
        map=liouville_derivatives,
    )
    xi0 = arch_point(0.0, 0.5)
    got = complex(np.asarray(transform_potential(inp, xi0)).reshape(()))
    c2 = math.cos(0.5) ** 2
    want = p.A / c2**2 + p.B / c2 - lv.energy
    assert got == pytest.approx(want, rel=1e-9)


def test_displaced_map_breaks_the_identity():
    p = HULTHEN_FIXTURE
    lv = hulthen_levels(p).levels[0]
    beta_eff = float(lv.internal["beta_eff"].real)
    xi = arch_point(np.linspace(-10.0, 10.0, 100), 0.5)
    inp = TransformInput(
        W=lambda r: v_pt(PTParams(p.alpha, beta_eff, 0.5), r),
        kappa_sq=lv.energy,
        map=_shifted_target,
    )
    lhs = transform_potential(inp, xi)
    rhs = v_hulthen(p, xi) - lv.energy
    assert np.max(np.abs(lhs - rhs)) > 0.1


def test_identity_holds_across_random_parameters():
    rng = np.random.default_rng(20080308)
    checked = 0
    while checked < 30:
        p = HulthenParams(alpha=rng.uniform(0.1, 3.0), C=rng.uniform(-20.0, -0.5))
        for lv in hulthen_levels(p).levels:
            assert verify_hulthen_identity(p.alpha, p.C, lv) < 1e-8
            checked += 1
            if checked >= 30:
                break
    assert checked == 30


def test_identity_rejects_foreign_level():
    lv = hulthen_levels(HULTHEN_FIXTURE).levels[0]
    with pytest.raises(LevelMismatch):
        verify_hulthen_identity(0.6, HULTHEN_FIXTURE.C, lv)
    with pytest.raises(LevelMismatch):
        verify_hulthen_identity(
            HULTHEN_FIXTURE.alpha,
            HULTHEN_FIXTURE.C,
            dataclasses.replace(lv, energy=lv.energy + 1.0),
        )
