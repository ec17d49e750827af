"""Change of variables for Sturm-Liouville operators on contours.

Carries a potential W(r) at fixed energy -kappa^2 through an analytic map
r(xi) and returns the transformed combination V(xi) - E, picking up the
Schwarzian-like correction from the non-constant Jacobian.  The map enters
as its values (r, r', r'', r''') at the points xi; for the arch they are
``contour.liouville_derivatives(xi)``; ``ArchSamples`` holds r as its
``models.Chart``, whose sinh r and cosh r every level's v_pt reads.
"""

from __future__ import annotations

import numpy as np

from .contour import arch_point, liouville_derivatives
from .errors import VanishingJacobian
from .models import Chart, HulthenParams, PTParams, v_hulthen, v_pt
from .spectra import Level, check_level


def transform_potential(W, kappa_sq: float, derivatives):
    """V(xi) - E = r'^2 (W(r) + kappa^2) + (3/4)(r''/r')^2 - (1/2)(r'''/r').

    ``W`` is the source potential as a callable on r (or on its Chart) and
    ``derivatives`` the map's analytic (r, r', r'', r''') at the points xi;
    finite differences are not accepted here.  The returned combination is
    the whole left-over once the wavefunction is rescaled by 1/sqrt(r'), so
    it already includes the energy shift.
    """
    r, r1, r2, r3 = derivatives
    if np.any(np.abs(np.asarray(r1)) < 1e-12):
        raise VanishingJacobian("r'(xi) vanishes on the evaluation set")
    return r1**2 * (W(r) + kappa_sq) + 0.75 * (r2 / r1) ** 2 - 0.5 * (r3 / r1)


class ArchSamples:
    """The arch at ``n_samples`` values of t evenly spaced over [-10, 10],
    with what every level's identity check shares there: the points xi, the
    inverse map's (r, r', r'', r''') with r as its Chart, and the screened
    well v_hulthen(p, xi).

    The algebraic building blocks sinh^2 r = -e^{2i xi} and
    cosh^2 r = 1 - e^{2i xi} are checked on construction.
    """

    def __init__(self, p: HulthenParams, n_samples: int = 100, epsilon: float = 0.5) -> None:
        self.params = p
        self.epsilon = epsilon
        self.xi = arch_point(np.linspace(-10.0, 10.0, n_samples), epsilon)
        r, *rest = liouville_derivatives(self.xi)
        self.chart = Chart(r)
        self.derivatives = (self.chart, *rest)

        q = np.exp(2j * self.xi)
        scale = np.maximum(1.0, np.abs(q))
        piece = max(
            float(np.max(np.abs(self.chart.sh**2 + q) / scale)),
            float(np.max(np.abs(self.chart.ch**2 - (1.0 - q)) / scale)),
        )
        if piece > 1e-9:
            raise RuntimeError(f"inverse-map algebra broken: sinh^2/cosh^2 identities off by {piece}")
        self.v = v_hulthen(p, self.xi)


def verify_hulthen_identity(samples: ArchSamples, level: Level) -> float:
    """Max deviation of the transformed sinh/cosh well from the screened well.

    For a level of ``samples.params`` with derived coupling beta_eff and
    momentum kappa, transports W(r) = v_pt(alpha, beta_eff) through the arch
    map and compares with v_hulthen(alpha, C) - kappa^2 at the samples.
    """
    p = samples.params
    check_level(p, level)
    pt_params = PTParams(p.alpha, float(level.internal["beta_eff"].real), samples.epsilon)
    kappa_sq = level.energy

    lhs = transform_potential(lambda rr: v_pt(pt_params, rr), kappa_sq, samples.derivatives)
    rhs = samples.v - kappa_sq
    return float(np.max(np.abs(lhs - rhs)))
