"""Change of variables for Sturm-Liouville operators on contours.

Carries a potential W(r) at fixed energy -kappa^2 through an analytic map
r(xi) and returns the transformed combination V(xi) - E, picking up the
Schwarzian-like correction from the non-constant Jacobian.  The map is any
callable xi -> (r, r', r'', r'''); for the arch it is
``contour.liouville_derivatives``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour import arch_point, liouville_derivatives
from .errors import VanishingJacobian
from .models import HulthenParams, PTParams, v_hulthen, v_pt
from .spectra import Level, check_level


@dataclass(frozen=True)
class TransformInput:
    """Source potential W(r), spectral parameter kappa^2, and the map.

    ``map`` is a callable xi -> (r, r', r'', r''') with analytic
    derivatives; finite differences are not accepted here.
    """

    W: Callable
    kappa_sq: float
    map: Callable


def transform_potential(inp: TransformInput, xi):
    """V(xi) - E = r'^2 (W(r) + kappa^2) + (3/4)(r''/r')^2 - (1/2)(r'''/r').

    The returned combination is the whole left-over once the wavefunction
    is rescaled by 1/sqrt(r'), so it already includes the energy shift.
    """
    xi = np.asarray(xi, dtype=complex)
    r, r1, r2, r3 = inp.map(xi)
    if np.any(np.abs(np.asarray(r1)) < 1e-12):
        raise VanishingJacobian("r'(xi) vanishes on the evaluation set")
    return r1**2 * (inp.W(r) + inp.kappa_sq) + 0.75 * (r2 / r1) ** 2 - 0.5 * (r3 / r1)


def verify_hulthen_identity(
    alpha: float,
    C: float,
    level: Level,
    n_samples: int = 100,
    epsilon: float = 0.5,
) -> float:
    """Max deviation of the transformed sinh/cosh well from the screened well.

    For a level with derived coupling beta_eff and momentum kappa, transports
    W(r) = v_pt(alpha, beta_eff) through the arch map and compares with
    v_hulthen(alpha, C) - kappa^2 on n_samples arch points, evenly spaced in
    the arch parameter t over [-10, 10].  The algebraic building blocks
    sinh^2 r = -e^{2i xi} and cosh^2 r = 1 - e^{2i xi} are checked along the
    way.
    """
    hp = HulthenParams(alpha, C)
    check_level(hp, level)
    beta_eff = float(level.internal["beta_eff"].real)
    pt_params = PTParams(alpha, beta_eff, epsilon)
    kappa_sq = level.energy

    t = np.linspace(-10.0, 10.0, n_samples)
    xi = arch_point(t, epsilon)
    r, _, _, _ = liouville_derivatives(xi)

    q = np.exp(2j * xi)
    scale = np.maximum(1.0, np.abs(q))
    piece = max(
        float(np.max(np.abs(np.sinh(r) ** 2 + q) / scale)),
        float(np.max(np.abs(np.cosh(r) ** 2 - (1.0 - q)) / scale)),
    )
    if piece > 1e-9:
        raise RuntimeError(f"inverse-map algebra broken: sinh^2/cosh^2 identities off by {piece}")

    inp = TransformInput(
        W=lambda rr: v_pt(pt_params, rr), kappa_sq=kappa_sq, map=liouville_derivatives
    )
    lhs = transform_potential(inp, xi)
    rhs = v_hulthen(hp, xi) - kappa_sq
    return float(np.max(np.abs(lhs - rhs)))
