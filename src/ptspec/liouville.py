"""Change of variables for Sturm-Liouville operators on contours.

Carries a potential W(r) at fixed energy -kappa^2 through an analytic map
r(xi) and returns the transformed combination V(xi) - E, picking up the
Schwarzian-like correction from the non-constant Jacobian.  The map enters
as its values (r, r', r'', r''') at the points xi or, on the arch, as the
``contour.ArchChart`` that one ``contour.SampledContour`` keeps for every level.
"""

from __future__ import annotations

import numpy as np

from .contour import ArchChart, SampledContour, jacobian_terms
from .models import HulthenParams, PTParams, v_pt
from .spectra import Level, check_level


def transform_potential(W, kappa_sq: float, derivatives):
    """V(xi) - E = r'^2 (W(r) + kappa^2) + (3/4)(r''/r')^2 - (1/2)(r'''/r').

    ``W`` is the source potential as a callable on r (or on its Chart) and
    ``derivatives`` the map's analytic (r, r', r'', r''') at the points xi or
    their ArchChart; finite differences are not accepted here.  The returned
    combination is the whole left-over once the wavefunction is rescaled by
    1/sqrt(r'), so it already includes the energy shift.
    """
    terms = derivatives.inverse if isinstance(derivatives, ArchChart) else jacobian_terms(*derivatives)
    r, r1, jac2, jac3 = terms
    w = W(r) + kappa_sq  # before r'^2 is formed, so W's temporaries are gone by then
    return np.multiply(r1**2, w) + jac2 - jac3


def verify_hulthen_identity(p: HulthenParams, samples: SampledContour, level: Level) -> float:
    """Max deviation of the transformed sinh/cosh well from the screened well.

    ``samples`` is an ``ArchContour`` sampled with ``potential_fn(p)`` as its
    potential.  For a level of ``p`` with derived coupling beta_eff and
    momentum kappa, transports W(r) = v_pt(alpha, beta_eff) through the arch
    map and compares with v_hulthen(alpha, C) - kappa^2 at the samples.
    """
    level = check_level(p, level)
    pt_params = PTParams(p.alpha, float(level.internal["beta_eff"].real), samples.contour.epsilon)
    kappa_sq = level.energy

    lhs = transform_potential(lambda rr: v_pt(pt_params, rr), kappa_sq, samples.inverse_map)
    rhs = samples.v - kappa_sq
    return float(np.max(np.abs(samples.finite("transformed potential", lhs) - rhs)))
