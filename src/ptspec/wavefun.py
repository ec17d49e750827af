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

import sys

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
    psi = chart.power("sh", level.tau * p.beta + 0.5) * chart.power("ch", level.sigma * p.alpha + 0.5) * f
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

    The value has the bits of the plain expression: the stencil sums divided by
    12h and 12h^2, psi_xixi = d2 / xi'^2 - d1 xi'' / xi'^3, and -psi_xixi + (V - E) psi.
    Where |psi| bounds d1 and d2 below overflow, it skips the passes that change no
    bit: numpy divides a complex by a real s as by s + 0j, which multiplies both
    parts by 1/s, so the sums are scaled in place; on the line, whose xi' = 1 and
    xi'' = 0, psi_xixi is d2 itself up to the sign of a zero that ``abs`` drops, and
    d1 is not formed.  Elsewhere the plain expression runs whole, because there the
    division and the chain rule turn an infinite part into nan (inf * 0).
    """
    h = samples.h
    psi = np.asarray(psi, dtype=complex)
    v, chain = samples.stencil
    a = np.abs(psi)

    s1, s2 = 12.0 * h, 12.0 * h**2
    # |d1| <= 18 max|psi| / s1 and |d2| <= 64 max|psi| / s2 (the stencils' weights), doubled for rounding
    if 128.0 * float(a.max()) / min(s1, s2) >= sys.float_info.max:
        psi_xixi = _chain_rule(_d1_sum(psi) / s1, _d2_sum(psi) / s2, chain or samples.chain_rule())
    elif chain is None:
        psi_xixi = _scaled(_d2_sum(psi), 1.0 / s2)
    else:
        psi_xixi = _chain_rule(_scaled(_d1_sum(psi), 1.0 / s1), _scaled(_d2_sum(psi), 1.0 / s2), chain)

    res = np.abs((v - energy) * psi[2:-2] - psi_xixi)
    window = a[2:-2]
    for k in (0, 1, 3, 4):
        window = np.maximum(window, a[k : len(psi) - 4 + k])
    return float(np.max(res / np.maximum(window, 1e-30)))


def _d1_sum(psi: np.ndarray) -> np.ndarray:
    """12h psi_t at the interior points, by the centered five-point stencil."""
    return psi[:-4] - 8.0 * psi[1:-3] + 8.0 * psi[3:-1] - psi[4:]


def _d2_sum(psi: np.ndarray) -> np.ndarray:
    """12h^2 psi_tt at the interior points, by the centered five-point stencil."""
    return 16.0 * psi[1:-3] - psi[:-4] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]


def _scaled(values: np.ndarray, factor: float) -> np.ndarray:
    """``values`` with both parts multiplied by the real ``factor``, in place."""
    np.multiply(values.view(float), factor, out=values.view(float))
    return values


def _chain_rule(d1: np.ndarray, d2: np.ndarray, chain: tuple) -> np.ndarray:
    """psi_xixi from the t-derivatives d1, d2 and xi'^2, xi'', xi'^3."""
    xp2, xpp, xp3 = chain
    return d2 / xp2 - d1 * xpp / xp3


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
