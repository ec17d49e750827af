"""Closed-form eigenfunctions and the contour ODE residual check.

Eigenfunctions are evaluated along ordered contour samples so that complex
powers can be branch-tracked; all checks are normalization-free (ratios,
scaled residuals), since overall constants are meaningless here.  Samples
travel as plain arrays: ``level_samples`` returns (t, xi, psi) and
``residual_check`` takes them.
"""

from __future__ import annotations

import numpy as np

from .contour import arch_point, liouville_derivatives
from .errors import GridTooCoarse, LevelMismatch, SingularPoint
from .models import EckartParams, HulthenParams, PTParams, model_kind
from .spectra import Level, check_level, pt_levels
from .specfun import GaussParams, complex_power_tracked, gauss2f1_terminating


def _on_line(p, level: Level, r, cosh_too: bool = False):
    """Shared preamble of the shifted-line eigenfunctions.

    Checks the level against ``p``, turns the contour points into a 1-d
    array and rejects points where sinh r (and, with ``cosh_too``, cosh r)
    vanishes.  Returns (scalar, r, sinh r, cosh r); ``scalar`` says whether a
    single point came in.
    """
    check_level(p, level)
    r = np.asarray(r, dtype=complex)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    sh = np.sinh(r)
    ch = np.cosh(r)
    if np.any(np.abs(sh) < 1e-12) or (cosh_too and np.any(np.abs(ch) < 1e-12)):
        what = "sinh r or cosh r" if cosh_too else "sinh r"
        raise SingularPoint(f"{what} vanishes on the evaluation set")
    return scalar, r, sh, ch


# ---- eckart ------------------------------------------------------------------

def eckart_psi(p: EckartParams, level: Level, r):
    """psi = sinh(r)^-(u+v) * exp((v-u) r) * F(a, b; c; (1 - coth r)/2).

    ``r`` is a scalar or an ordered array of contour points; powers are
    branch-tracked along the order given.
    """
    scalar, r, sh, ch = _on_line(p, level, r)
    u = level.internal["u"]
    v = level.internal["v"]
    z = 0.5 * (1.0 - ch / sh)
    f = gauss2f1_terminating(
        GaussParams(level.internal["a"], level.internal["b"], level.internal["c"], z)
    )
    psi = complex_power_tracked(sh, -(u + v)) * np.exp((v - u) * r) * np.atleast_1d(f)
    return complex(psi[0]) if scalar else psi


def eckart_psi_second_branch(p: EckartParams, level: Level, r):
    """The redundant solution branch at the same energy.

    Flipping the sign of u and re-terminating the series gives
    sinh^(u-v) * exp((u+v) r) * z^(2u) * F(a, b; c; z) with the same Gauss
    parameters; it must reproduce eckart_psi up to one overall constant.
    """
    scalar, r, sh, ch = _on_line(p, level, r)
    u = level.internal["u"]
    v = level.internal["v"]
    z = 0.5 * (1.0 - ch / sh)
    f = gauss2f1_terminating(
        GaussParams(level.internal["a"], level.internal["b"], level.internal["c"], z)
    )
    psi = (
        complex_power_tracked(sh, u - v)
        * np.exp((u + v) * r)
        * complex_power_tracked(z, 2.0 * u)
        * np.atleast_1d(f)
    )
    return complex(psi[0]) if scalar else psi


# ---- poschl-teller -------------------------------------------------------------

def pt_psi(p: PTParams, level: Level, r):
    """psi = sinh^(tau*beta + 1/2) * cosh^(sigma*alpha + 1/2) * F(a, b; c; -sinh^2 r)."""
    scalar, r, sh, ch = _on_line(p, level, r, cosh_too=True)
    f = gauss2f1_terminating(
        GaussParams(level.internal["a"], level.internal["b"], level.internal["c"], -(sh**2))
    )
    psi = (
        complex_power_tracked(sh, level.tau * p.beta + 0.5)
        * complex_power_tracked(ch, level.sigma * p.alpha + 0.5)
        * np.atleast_1d(f)
    )
    return complex(psi[0]) if scalar else psi


def pt_psi_second_branch(p: PTParams, level: Level, r):
    """Redundant branch: prefactor with tau flipped times (sinh^2 r)^(tau*beta).

    Re-terminating the second series brings back the same Gauss parameters,
    so this reproduces pt_psi up to one overall constant.
    """
    scalar, r, sh, ch = _on_line(p, level, r, cosh_too=True)
    tb = level.tau * p.beta
    f = gauss2f1_terminating(
        GaussParams(level.internal["a"], level.internal["b"], level.internal["c"], -(sh**2))
    )
    psi = (
        complex_power_tracked(sh, -tb + 0.5)
        * complex_power_tracked(ch, level.sigma * p.alpha + 0.5)
        * complex_power_tracked(sh**2, tb)
        * np.atleast_1d(f)
    )
    return complex(psi[0]) if scalar else psi


# ---- hulthen ---------------------------------------------------------------------

def hulthen_psi(p: HulthenParams, level: Level, t, epsilon: float):
    """Eigenfunction on the arch, via the change of variables.

    Psi(xi(t)) = chi(r(xi)) / sqrt(r'(xi)) where chi is the sinh/cosh-well
    eigenfunction with the level's derived coupling beta_eff and the arch is
    parametrized by real t with shift epsilon.
    """
    check_level(p, level)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    xi = arch_point(t_arr, epsilon)
    r, r1, _, _ = liouville_derivatives(xi)

    beta_eff = float(level.internal["beta_eff"].real)
    pt_params = PTParams(p.alpha, beta_eff, epsilon)
    partner = pt_levels(pt_params).find(sigma=level.sigma, tau=level.tau, N=level.N)
    if partner is None:
        raise LevelMismatch(
            f"(sigma={level.sigma}, tau={level.tau}, n={level.N}) has no partner level"
        )
    chi = pt_psi(pt_params, partner, r)
    psi = np.atleast_1d(chi) / complex_power_tracked(r1, 0.5)
    return complex(psi[0]) if scalar else psi


# ---- residual check ----------------------------------------------------------------

def residual_check(v_of_xi, energy, samples, contour) -> float:
    """Max scaled ODE residual |-psi'' + (V - E) psi| along a contour.

    ``samples`` is a triple of arrays (t, xi, psi) on a uniform increasing
    t-grid, as ``level_samples`` returns it; derivatives in t are taken with
    centered five-point stencils and converted to xi derivatives through the
    contour's analytic dpoint/d2point.  The residual at each interior point
    is scaled by the largest |psi| in the stencil window (floored at 1e-30),
    so tails do not produce false alarms and the check is
    normalization-free.
    """
    t, xi, psi = samples
    if len(t) < 5:
        raise GridTooCoarse("need at least 5 samples for the interior stencil")
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)

    dt = np.diff(t)
    h = dt[0]
    if h <= 0 or np.max(np.abs(dt - h)) > 1e-9 * max(1.0, abs(h)):
        raise GridTooCoarse("samples must sit on a uniform increasing t-grid")

    # five-point centered first and second t-derivatives on the interior
    d1 = (psi[:-4] - 8.0 * psi[1:-3] + 8.0 * psi[3:-1] - psi[4:]) / (12.0 * h)
    d2 = (-psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]) / (
        12.0 * h**2
    )
    tc = t[2:-2]
    xp = np.asarray(contour.dpoint(tc), dtype=complex)
    xpp = np.asarray(contour.d2point(tc), dtype=complex)
    psi_xixi = d2 / xp**2 - d1 * xpp / xp**3

    res = np.abs(-psi_xixi + (np.asarray(v_of_xi(xi[2:-2]), dtype=complex) - energy) * psi[2:-2])
    window = np.abs(psi[2:-2])
    for k in (0, 1, 3, 4):
        window = np.maximum(window, np.abs(psi[k : len(psi) - 4 + k]))
    return float(np.max(res / np.maximum(window, 1e-30)))


def level_samples(model, level: Level, contour, t) -> tuple:
    """A level's eigenfunction on its natural contour as arrays (t, xi, psi)."""
    kind = model_kind(model)
    t = np.asarray(t, dtype=float)
    xi = contour.point(t)
    psi_fn = globals()[kind.psi]
    psi = psi_fn(model, level, t, contour.epsilon) if kind.on_arch else psi_fn(model, level, xi)
    return t, xi, psi
