"""Shared test oracles and fixture parameter sets.

Everything here is computed independently of the package internals: direct
term-by-term sums, high-precision arithmetic, or hand-derived closed values.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import loggamma

from ptspec.models import EckartParams, HulthenParams, PTParams
from ptspec.oracle import GridSpec, TridiagonalOperator
from ptspec.spectra import Spectrum

# The three parameter sets used throughout: a three-level complexified well
# with an imaginary tail, a four-level double well split into sign families,
# and a screened well on the arch whose spectrum is entirely positive.
ECKART_FIXTURE = EckartParams(A=3.5, beta=1.0)
PT_FIXTURE = PTParams(alpha=4.3, beta=1.7, epsilon=0.5)
HULTHEN_FIXTURE = HulthenParams(alpha=0.5, C=-9.0)

ECKART_ENERGIES = [-6.09, -65.0 / 36.0, 3.75]
PT_ENERGIES_MM = [-25.0, -9.0, -1.0]
PT_ENERGY_MP = -2.56
HULTHEN_TABLE = [
    # (sigma, n, s, kappa, beta_eff, tau, energy)
    (-1, 0, 0.5, 8.75, 9.25, -1, 76.5625),
    (-1, 1, 2.5, 0.55, 3.05, -1, 0.3025),
    (+1, 0, 1.5, 2.25, 3.75, -1, 5.0625),
]

#: the parameter ranges the benchmark pools draw from (bench/make_pools.py), per model
#: (low, high, low excluded) for its two CLI parameters: open intervals, but Eckart's
#: beta in [0, 3)
POOL_DOMAINS = {
    "eckart": ((1.0, 6.0, True), (0.0, 3.0, False)),
    "pt": ((0.1, 6.0, True), (0.1, 6.0, True)),
    "hulthen": ((0.1, 5.0, True), (-30.0, -0.1, True)),
}


def uniform_grid(window: float, h: float) -> np.ndarray:
    """Symmetric uniform t-grid covering [-window, window] with step h."""
    return np.arange(-window, window + h / 2.0, h)


def rising(w: complex, k: int) -> complex:
    """Rising factorial (w)_k as a from-scratch product."""
    out = complex(1.0)
    for j in range(k):
        out *= w + j
    return out


pochhammer = rising


def free_particle_eigenvalue(grid: GridSpec, m: int = 1) -> float:
    """Exact m-th eigenvalue of the discrete Dirichlet Laplacian on the grid."""
    h = grid.h
    return 2.0 * (1.0 - np.cos(m * np.pi * h / (2.0 * grid.L))) / h**2


def to_dense(opr: TridiagonalOperator) -> np.ndarray:
    """The operator as a dense n x n matrix."""
    m = np.diag(opr.diag)
    idx = np.arange(len(opr.diag) - 1)
    m[idx, idx + 1] = opr.offdiag
    m[idx + 1, idx] = opr.offdiag
    return m


def dense_eigenvalues(opr: TridiagonalOperator) -> np.ndarray:
    """Full non-Hermitian spectrum; debug path, refuses n > 400."""
    if len(opr.diag) > 400:
        raise ValueError("dense solver is a debug path; use n <= 400")
    return np.linalg.eigvals(to_dense(opr))


def energy_sorted(spectrum: Spectrum) -> list:
    """The spectrum's levels ascending in energy (binding order)."""
    return sorted(spectrum.levels, key=lambda lv: lv.energy)


def gauss_sum_direct(a: complex, b: complex, c: complex, z: complex, n: int) -> complex:
    """Terminating Gauss series with every term built independently."""
    return sum(
        rising(a, k) * rising(b, k) / (rising(c, k) * math.factorial(k)) * z**k
        for k in range(n + 1)
    )


def binom_complex(w: complex, m: int) -> complex:
    """Binomial coefficient C(w, m) for complex w via log-Gamma."""
    return complex(np.exp(loggamma(w + 1) - loggamma(m + 1) - loggamma(w - m + 1)))


def jacobi_explicit_loggamma(n: int, alpha: complex, beta: complex, z: complex) -> complex:
    """Explicit monomial-in-(z-1)/2,(z+1)/2 sum with log-Gamma binomials."""
    total = complex(0.0)
    for k in range(n + 1):
        total += (
            binom_complex(n + alpha, n - k)
            * binom_complex(n + beta, k)
            * ((z - 1.0) / 2.0) ** k
            * ((z + 1.0) / 2.0) ** (n - k)
        )
    return total


def jacobi_explicit_highprec(n: int, alpha: complex, beta: complex, z: complex) -> complex:
    """Same explicit sum evaluated at 40 significant digits.

    The double-precision sum loses up to ~6 digits to cancellation at n = 20,
    so a high-precision reference is needed to resolve 1e-11 agreement.  The
    binomials are expanded into linear-factor products, which avoids Gamma
    poles at the (probability-zero but possible) integer parameter draws.
    """
    with mpmath.workdps(40):
        za, zb, zz = mpmath.mpc(alpha), mpmath.mpc(beta), mpmath.mpc(z)
        total = mpmath.mpc(0)
        for k in range(n + 1):
            c1 = mpmath.mpc(1)
            for j in range(k + 1, n + 1):
                c1 *= za + j
            c1 /= mpmath.factorial(n - k)
            c2 = mpmath.mpc(1)
            for j in range(n - k + 1, n + 1):
                c2 *= zb + j
            c2 /= mpmath.factorial(k)
            total += c1 * c2 * ((zz - 1) / 2) ** k * ((zz + 1) / 2) ** (n - k)
        return complex(total)


def plain_residual(samples, energy, psi) -> float:
    """``wavefun.residual_check`` as the plain expression: each stencil sum divided by
    12h or 12h^2 and the chain rule d2 / xi'^2 - d1 xi'' / xi'^3 on every contour."""
    h = samples.h
    psi = np.asarray(psi, dtype=complex)
    d1 = (psi[:-4] - 8.0 * psi[1:-3] + 8.0 * psi[3:-1] - psi[4:]) / (12.0 * h)
    d2 = (-psi[:-4] + 16.0 * psi[1:-3] - 30.0 * psi[2:-2] + 16.0 * psi[3:-1] - psi[4:]) / (12.0 * h**2)
    xp, xpp = samples.contour.derivatives(samples.t[2:-2])
    psi_xixi = d2 / xp**2 - d1 * xpp / xp**3
    res = np.abs(-psi_xixi + (samples.v[2:-2] - energy) * psi[2:-2])
    a = np.abs(psi)
    window = a[2:-2]
    for k in (0, 1, 3, 4):
        window = np.maximum(window, a[k : len(psi) - 4 + k])
    return float(np.max(res / np.maximum(window, 1e-30)))
