"""Exception taxonomy for contour, special-function and solver failures."""

from __future__ import annotations


class PtspecError(Exception):
    """Base class for all errors raised by this package."""


# ---- special functions -----------------------------------------------------

class NonTerminating(PtspecError):
    """Neither upper Gauss parameter is a non-positive integer."""


class PoleInC(PtspecError):
    """The lower Gauss parameter hits a pole before the series terminates."""


class ZeroBase(PtspecError):
    """A branch-tracked power was requested for a vanishing base."""


class PhaseJump(PtspecError):
    """Consecutive contour samples differ in argument by pi or more."""


# ---- contours and maps -----------------------------------------------------

class EpsilonOutOfRange(PtspecError):
    """Contour shift outside the open interval (0, pi/2)."""


class SingularPoint(PtspecError):
    """Evaluation point hits a pole or branch point of the map/potential."""


class AsymmetricGrid(PtspecError):
    """A parity check needs a grid symmetric about t = 0."""


class VanishingJacobian(PtspecError):
    """Change of variables has r'(xi) ~ 0 at an evaluation point."""


class SingularPotentialOnGrid(PtspecError):
    """An array sampled on a contour (its points, the potential, an eigenfunction or a transformed
    potential) is not finite at a point: on or too near a singularity, or past what a float holds."""


# ---- spectra and wavefunctions ----------------------------------------------

class LevelMismatch(PtspecError):
    """A Level record does not belong to the supplied model parameters."""


class IndexOutOfRange(PtspecError):
    """Level index outside the range emitted by the spectrum."""


class OutsideFamily(PtspecError):
    """Quantum numbers violate the family's existence inequality."""


class DegenerateBeta(PtspecError):
    """An enumerated candidate solves for an exactly vanishing coupling."""


class GridTooCoarse(PtspecError):
    """Too few (or non-uniform) samples for the requested stencil."""


# ---- oracle ------------------------------------------------------------------

class LUBreakdown(PtspecError):
    """Tridiagonal factorization failed even after shift perturbation."""


class NoConvergence(PtspecError):
    """Inverse iteration did not settle within the iteration budget."""
