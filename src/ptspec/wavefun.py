"""Closed-form eigenfunctions and the contour ODE residual check.

Eigenfunctions are evaluated along ordered contour samples so that complex
powers can be branch-tracked; all checks are normalization-free (ratios,
scaled residuals), since overall constants are meaningless here.

What does not depend on the level is built once per set of points and
shared by every level: a ``contour.SampledContour`` holds the contour at its
parameter values t with its chart (a ``contour.Chart`` of sinh/cosh arrays
on the line, a ``contour.ArchChart`` and its inverse map on the arch), the
checked potential and the residual stencil's geometry.  Each eigenfunction
takes points in its own coordinate (r on the line, xi on the arch) or their
chart; plain points get their own chart, and the same per-level code runs.
"""

from __future__ import annotations

import numpy as np

from .contour import ArchChart, Chart, SampledContour
from .models import EckartParams, HulthenParams, PTParams, model_kind, potential_fn
from .spectra import Level, check_level, hulthen_partner, pt_level
from .specfun import complex_power_tracked, gauss2f1_terminating, tracked_power


# ---- shifted-line eigenfunctions ---------------------------------------------------

def _series(level: Level, z):
    """The level's terminating Gauss series F(a, b; c; z)."""
    return gauss2f1_terminating(level.internal["a"], level.internal["b"], level.internal["c"], z)


def eckart_psi(p: EckartParams, level: Level, r):
    """psi = sinh(r)^-(u+v) * exp((v-u) r) * F(a, b; c; (1 - coth r)/2).

    ``r`` is a scalar or an ordered array of contour points, or their Chart;
    powers are branch-tracked along the order given.
    """
    check_level(p, level)
    chart = Chart.of(r)
    u, v = level.internal["u"], level.internal["v"]
    f = _series(level, chart.z)
    psi = tracked_power(chart.log_sh, -(u + v)) * np.exp((v - u) * chart.r) * f
    return chart.out(psi)


def eckart_psi_second_branch(p: EckartParams, level: Level, r):
    """The redundant solution branch at the same energy.

    Flipping the sign of u and re-terminating the series gives
    sinh^(u-v) * exp((u+v) r) * z^(2u) * F(a, b; c; z) with the same Gauss
    parameters; it must reproduce eckart_psi up to one overall constant.
    """
    check_level(p, level)
    chart = Chart.of(r)
    u, v = level.internal["u"], level.internal["v"]
    f = _series(level, chart.z)
    psi = (
        tracked_power(chart.log_sh, u - v)
        * np.exp((u + v) * chart.r)
        * complex_power_tracked(chart.z, 2.0 * u)
        * f
    )
    return chart.out(psi)


def pt_psi(p: PTParams, level: Level, r):
    """psi = sinh^(tau*beta + 1/2) * cosh^(sigma*alpha + 1/2) * F(a, b; c; -sinh^2 r).

    ``r`` is a scalar or an ordered array of contour points, or their Chart.
    """
    check_level(p, level)
    return _pt_psi_of_checked(p, level, r)


def _pt_psi_of_checked(p: PTParams, level: Level, r):
    """``pt_psi`` for a level that is already ``p``'s own, without checking it again."""
    chart = Chart.of(r, cosh_too=True)
    f = _series(level, chart.minus_sh2)
    psi = (
        tracked_power(chart.log_sh, level.tau * p.beta + 0.5)
        * tracked_power(chart.log_ch, level.sigma * p.alpha + 0.5)
        * f
    )
    return chart.out(psi)


def pt_psi_second_branch(p: PTParams, level: Level, r):
    """Redundant branch: prefactor with tau flipped times (sinh^2 r)^(tau*beta).

    Re-terminating the second series brings back the same Gauss parameters,
    so this reproduces pt_psi up to one overall constant.
    """
    check_level(p, level)
    chart = Chart.of(r, cosh_too=True)
    tb = level.tau * p.beta
    f = _series(level, chart.minus_sh2)
    psi = (
        tracked_power(chart.log_sh, -tb + 0.5)
        * tracked_power(chart.log_ch, level.sigma * p.alpha + 0.5)
        * complex_power_tracked(chart.sh**2, tb)
        * f
    )
    return chart.out(psi)


# ---- hulthen ---------------------------------------------------------------------

def hulthen_psi(p: HulthenParams, level: Level, xi, epsilon: float):
    """Eigenfunction on the arch, via the change of variables.

    Psi(xi) = chi(r(xi)) / sqrt(r'(xi)) where chi is the eigenfunction at the level's
    key in its ``spectra.hulthen_partner`` sinh/cosh well, of derived coupling beta_eff
    and the arch shift epsilon.  ``xi`` is a scalar or an ordered array of arch points, or
    their ArchChart; powers are branch-tracked along the order given.  Only the Hulthen
    level is checked: the partner level is the one ``spectra.pt_level`` builds for it.
    """
    level = check_level(p, level)
    chart = xi if isinstance(xi, ArchChart) else ArchChart(xi)
    pt_params = hulthen_partner(p, level, epsilon)
    partner = pt_level(pt_params, level.sigma, level.tau, level.N)
    chi = _pt_psi_of_checked(pt_params, partner, chart.inverse[0])
    return chart.out(chi / chart.sqrt_r1)


# ---- residual check ----------------------------------------------------------------

def residual_check(samples: SampledContour, energy, psi) -> float:
    """Max scaled ODE residual |-psi'' + (V - E) psi| along a sampled contour.

    ``psi`` is a level's eigenfunction at the samples' points, as
    ``level_samples`` returns it; ``samples.t`` must be a uniform increasing
    grid.  Derivatives in t are taken with centered five-point stencils and
    converted to xi derivatives through the contour's analytic
    derivatives.  The residual at each interior point is scaled by the
    largest |psi| in the stencil window (floored at 1e-30), so tails do not
    produce false alarms and the check is normalization-free.
    """
    h = samples.h
    psi = np.asarray(psi, dtype=complex)

    # five-point centered first and second t-derivatives on the interior
    d1 = (psi[:-4] - 8.0 * psi[1:-3] + 8.0 * psi[3:-1] - psi[4:]) / (12.0 * h)
    d2 = (-psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]) / (
        12.0 * h**2
    )
    xp2, xpp, xp3, v = samples.stencil
    psi_xixi = d2 / xp2 - d1 * xpp / xp3

    res = np.abs(-psi_xixi + (v - energy) * psi[2:-2])
    a = np.abs(psi)
    window = a[2:-2]
    for k in (0, 1, 3, 4):
        window = np.maximum(window, a[k : len(psi) - 4 + k])
    return float(np.max(res / np.maximum(window, 1e-30)))


def level_samples(model, level: Level, contour, t) -> tuple:
    """A level's eigenfunction on its natural contour as arrays (t, xi, psi).

    ``t`` is the parameter values, or a SampledContour of them on
    ``contour``, which a report builds once and passes for every level.
    The eigenfunction gets the samples' chart, and on the arch the shift.
    """
    kind = model_kind(model)
    samples = t if isinstance(t, SampledContour) else SampledContour(contour, t, potential_fn(model))
    shift = (samples.contour.epsilon,) if kind.on_arch else ()
    with np.errstate(all="ignore"):  # a non-finite psi is named by ``finite``
        psi = globals()[kind.psi](model, level, samples.chart, *shift)
    return samples.t, samples.xi, samples.finite("eigenfunction", psi)
