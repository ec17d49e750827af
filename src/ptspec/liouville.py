"""Change of variables for Sturm-Liouville operators on contours.

Carries a potential W(r) at fixed energy -kappa^2 through an analytic map
r(xi) and returns the transformed combination V(xi) - E, picking up the
Schwarzian-like correction from the non-constant Jacobian.  The map enters
as its values (r, r', r'', r''') at the points xi or, on the arch, as the
``contour.ArchChart`` that one ``contour.SampledContour`` keeps for every level.
"""

from __future__ import annotations

import numpy as np

from .contour import ArchChart, ArchContour, SampledContour, jacobian_terms
from .errors import GridTooCoarse
from .models import HulthenParams, PTParams, potential_fn, v_pt
from .spectra import Level, hulthen_partner, spectrum_of


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


def verify_hulthen_identity(p: HulthenParams, contour: ArchContour, t) -> list[tuple[Level, float]]:
    """Each level of ``p`` with the max deviation of its transformed sinh/cosh well from the screened well.

    For a level with momentum kappa, transports its ``spectra.hulthen_partner``
    well W(r) through the map of the arch ``contour`` and compares with
    v_hulthen(alpha, C) - kappa^2 at ``t``, sampled in ``SampledContour.blocks``:
    every array here is point by point, so each level's largest block deviation
    is its whole-grid one.  The first block enumerates the levels and builds each
    partner once, and raises what one whole-grid sample would raise first: the
    map's checks, then the enumeration, then each level's in turn.  TypeError
    unless ``p`` is Hulthen and ``contour`` the arch, GridTooCoarse for no ``t``.
    """
    if not isinstance(p, HulthenParams):
        raise TypeError(f"the identity check takes Hulthen parameters, not {type(p).__name__}")
    if not isinstance(contour, ArchContour):
        raise TypeError("the identity check runs on the arch only")
    if len(t) == 0:
        raise GridTooCoarse("the identity check needs at least 1 sample")
    levels, partners, devs = None, [], []
    for samples in SampledContour.blocks(contour, t, potential_fn(p)):
        samples.inverse_map  # built and checked before the levels, even if there are none
        if levels is None:
            levels = spectrum_of(p).levels
            for lv in levels:
                partners.append((hulthen_partner(p, lv, contour.epsilon), lv.energy))
                devs.append(_deviation(samples, *partners[-1]))
        else:
            devs = [max(dev, _deviation(samples, *partner)) for dev, partner in zip(devs, partners)]
    return list(zip(levels, devs))


def _deviation(samples: SampledContour, pt_params: PTParams, kappa_sq: float) -> float:
    """Max |transformed V_PT - (V - kappa^2)| at ``samples``."""
    inverse = samples.inverse_map
    with np.errstate(all="ignore"):  # a non-finite lhs is named by ``finite``
        lhs = transform_potential(lambda rr: v_pt(pt_params, rr), kappa_sq, inverse)
    rhs = samples.v - kappa_sq
    return float(np.max(np.abs(samples.finite("transformed potential", lhs) - rhs)))
