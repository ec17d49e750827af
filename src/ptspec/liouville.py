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
from .models import HulthenParams, PTParams, potential_fn, v_pt
from .spectra import Level, check_level, spectrum_of


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
    return _deviation(samples, *_partner(p, level, samples.contour.epsilon))


def hulthen_identity_deviations(p: HulthenParams, contour, t) -> list[tuple[Level, float]]:
    """Each level of ``p`` with its ``verify_hulthen_identity`` deviation over all of ``t``.

    ``contour`` is an ``ArchContour``, sampled in ``SampledContour.blocks`` of
    at most BLOCK_POINTS values of t; every array here is point by point, so
    each level's largest block deviation is its whole-grid one.  Each level is
    checked and its partner built once, in the first block, and that block
    raises what one whole-grid sample would raise first: the map's checks,
    then the enumeration, then each level's in turn.
    """
    levels, partners, devs = None, [], []
    for samples in SampledContour.blocks(contour, t, potential_fn(p)):
        samples.inverse_map  # built and checked before the levels, even if there are none
        if levels is None:
            levels = spectrum_of(p).levels
            for lv in levels:
                partners.append(_partner(p, lv, contour.epsilon))
                devs.append(_deviation(samples, *partners[-1]))
        else:
            devs = [max(dev, _deviation(samples, *partner)) for dev, partner in zip(devs, partners)]
    return list(zip(levels, devs))


def _partner(p: HulthenParams, level: Level, epsilon: float) -> tuple[PTParams, float]:
    """The sinh/cosh well that ``level``, checked against ``p``, maps to, and its kappa^2."""
    level = check_level(p, level)
    return PTParams(p.alpha, float(level.internal["beta_eff"].real), epsilon), level.energy


def _deviation(samples: SampledContour, pt_params: PTParams, kappa_sq: float) -> float:
    """Max |transformed V_PT - (V - kappa^2)| at ``samples``."""
    inverse = samples.inverse_map
    with np.errstate(all="ignore"):  # a non-finite lhs is named by ``finite``
        lhs = transform_potential(lambda rr: v_pt(pt_params, rr), kappa_sq, inverse)
    rhs = samples.v - kappa_sq
    return float(np.max(np.abs(samples.finite("transformed potential", lhs) - rhs)))
