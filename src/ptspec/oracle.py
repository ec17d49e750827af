"""Independent finite-difference verification of the closed-form spectra.

Discretizes -d^2/dr^2 + V on the shifted line with a Dirichlet three-point
stencil and finds eigenvalues near analytic targets by shift-inverted inverse
iteration on the complex tridiagonal matrix.  Tolerances come from the h^2
error model of the stencil, not from any external reference values, and the
reports say so.

Inverse iteration stops on the backward error (Parlett, The Symmetric
Eigenvalue Problem, ch. 4), not on the change in the eigenvalue estimate: an
iterate y (||y|| = 1) with Rayleigh quotient e is accepted once
||H y - e y|| <= c * eps * ||H||, with c = RESIDUAL_FACTOR = 4096, eps the
double-precision machine epsilon and ||H|| = max|diag| + 2 |offdiag| a bound
on the operator norm.  ||H|| grows like 4/h^2, so the test follows the
rounding floor of the grid instead of a fixed absolute constant that fine
grids cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contour import ShiftedLine
from .errors import LUBreakdown, NoConvergence, SingularPotentialOnGrid
from .models import potential_fn
from .spectra import Spectrum

#: default seed for start vectors (override via the PTSPEC_SEED environment variable)
DEFAULT_SEED = 20080308

TOL_SOURCE = "finite-difference error model (no external reference values)"

#: c in the stopping rule ||H y - e y|| <= c * eps * ||H||.  The smallest
#: residual an iterate reaches is ~0.3 eps ||H|| on fine grids but up to ~1600
#: eps ||H|| for levels next to the contour continuum on coarse ones, so a
#: smaller c turns such attainable solves into NoConvergence.
RESIDUAL_FACTOR = 4096.0


@dataclass(frozen=True)
class GridSpec:
    """Interior grid for [-L, L] with n points; h = 2L/(n+1), Dirichlet ends."""

    L: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 3 or self.L <= 0:
            raise ValueError("need n >= 3 interior points and L > 0")

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n + 1)

    def points(self) -> np.ndarray:
        return -self.L + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Complex symmetric tridiagonal matrix: diag 2/h^2 + V_j, offdiag -1/h^2."""

    diag: np.ndarray
    offdiag: complex
    grid: GridSpec

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.offdiag * x[1:]
        y[1:] += self.offdiag * x[:-1]
        return y

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        idx = np.arange(len(self.diag) - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        return m


def discretize(model, contour: ShiftedLine, grid: GridSpec) -> TridiagonalOperator:
    """Three-point stencil for -psi'' + V psi on the shifted line.

    ``model`` is a parameter record or a bare callable V(z) (handy for
    controls like the free particle).
    """
    if not isinstance(contour, ShiftedLine):
        raise TypeError("finite differences run on the shifted line only")
    v = model if callable(model) else potential_fn(model)
    vals = np.asarray(v(contour.point(grid.points())), dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise SingularPotentialOnGrid("potential not finite on the grid")
    h = grid.h
    return TridiagonalOperator(diag=2.0 / h**2 + vals, offdiag=-1.0 / h**2, grid=grid)


def free_particle_eigenvalue(grid: GridSpec, m: int = 1) -> float:
    """Exact m-th eigenvalue of the discrete Dirichlet Laplacian on the grid."""
    h = grid.h
    return 2.0 * (1.0 - np.cos(m * np.pi * h / (2.0 * grid.L))) / h**2


def _rayleigh(opr: TridiagonalOperator, x: np.ndarray, hx: np.ndarray | None = None) -> complex:
    """Rayleigh quotient of x; pass hx = H x when the caller already has it."""
    if hx is None:
        hx = opr.matvec(x)
    d = x @ x  # unconjugated: exact for complex symmetric eigenvectors
    if abs(d) > 1e-8:
        return complex((x @ hx) / d)
    xc = np.conj(x)
    return complex((xc @ hx) / (xc @ x))


def residual_floor(opr: TridiagonalOperator) -> float:
    """Backward-error bound RESIDUAL_FACTOR * eps * ||H|| that stops the iteration."""
    norm_h = float(np.max(np.abs(opr.diag))) + 2.0 * abs(opr.offdiag)
    return RESIDUAL_FACTOR * np.finfo(float).eps * norm_h


def shift_invert_eigen(
    opr: TridiagonalOperator,
    shift: complex,
    max_iter: int = 200,
    seed: int = DEFAULT_SEED,
) -> tuple[complex, int]:
    """Eigenvalue of the operator nearest the shift, plus iterations used.

    Inverse iteration on one partial-pivoting LU factorization of H - shift
    (LAPACK zgttrf, then zgttrs on every step); the eigenvalue estimate is the
    Rayleigh quotient of each normalized iterate y.  The iteration stops at the
    first step it >= 2 with ||H y - e y|| <= c * eps * ||H||, where
    c = RESIDUAL_FACTOR = 4096 and ||H|| = max|diag| + 2 |offdiag| (see
    residual_floor), and raises NoConvergence after max_iter steps.  A
    singular factorization retries with the shift perturbed by 1e-8 (1 + i),
    at most three attempts in all.
    """
    # imported here: scipy.linalg costs more to import than every other
    # command takes to run, and only this solver needs it
    from scipy.linalg.lapack import zgttrf, zgttrs

    n = len(opr.diag)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)

    floor = residual_floor(opr)
    work_shift = complex(shift)
    for _attempt in range(3):
        # zgttrf factors in place: the three bands become the first factor arrays
        off = np.full(n - 1, opr.offdiag, dtype=complex)
        *lu, info = zgttrf(
            off, opr.diag - work_shift, off.copy(),
            overwrite_dl=True, overwrite_d=True, overwrite_du=True,
        )
        if info > 0:
            work_shift += 1e-8 * (1.0 + 1.0j)
            continue
        y = x
        for it in range(1, max_iter + 1):
            y, _ = zgttrs(*lu, y, overwrite_b=True)
            y /= np.linalg.norm(y)
            hy = opr.matvec(y)
            e = _rayleigh(opr, y, hy)
            hy -= e * y  # the residual H y - e y, reusing the Rayleigh matvec
            if it >= 2 and np.linalg.norm(hy) <= floor:
                return e, it
        raise NoConvergence(f"no eigenvalue settled near shift {shift} in {max_iter} iterations")
    raise LUBreakdown(f"tridiagonal factorization kept failing near shift {shift}")


def dense_eigenvalues(opr: TridiagonalOperator) -> np.ndarray:
    """Full non-Hermitian spectrum; debug path, refuses n > 400."""
    if len(opr.diag) > 400:
        raise ValueError("dense solver is a debug path; use n <= 400")
    return np.linalg.eigvals(opr.to_dense())


# ---- matching and reports ---------------------------------------------------------

@dataclass
class LevelCheck:
    N: int
    sigma: int | None
    tau: int | None
    energy_analytic: float
    energy_numeric: complex
    abs_delta: float
    im_abs: float
    iterations: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "sigma": self.sigma,
            "tau": self.tau,
            "energy_analytic": self.energy_analytic,
            "energy_numeric": [self.energy_numeric.real, self.energy_numeric.imag],
            "abs_delta": self.abs_delta,
            "im_abs": self.im_abs,
            "iterations": self.iterations,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    model: str
    params: dict
    grid: dict
    tol: float
    seed: int
    checks: list = field(default_factory=list)
    tol_source: str = TOL_SOURCE

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_im(self) -> float:
        return max((c.im_abs for c in self.checks), default=0.0)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "grid": dict(self.grid),
            "tol": self.tol,
            "tol_source": self.tol_source,
            "seed": self.seed,
            "levels": [c.to_dict() for c in self.checks],
            "max_im": self.max_im,
            "all_passed": self.all_passed,
        }


def match_levels(
    spectrum: Spectrum,
    opr: TridiagonalOperator,
    tol: float,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Shift-invert at every analytic level and compare.

    A level passes when |E_numeric - E_analytic| < tol and |Im E_numeric| < tol;
    spurious contour-continuum eigenvalues sit far from the real targets, so
    targeting the analytic energies keeps the iteration away from them.
    """
    report = VerificationReport(
        model=spectrum.model,
        params=spectrum.params,
        grid={"L": opr.grid.L, "n": opr.grid.n, "h": opr.grid.h},
        tol=tol,
        seed=seed,
    )
    for lv in spectrum.levels:
        e_num, iters = shift_invert_eigen(opr, lv.energy, seed=seed)
        delta = abs(e_num - lv.energy)
        im_abs = abs(e_num.imag)
        report.checks.append(
            LevelCheck(
                N=lv.N,
                sigma=lv.sigma,
                tau=lv.tau,
                energy_analytic=lv.energy,
                energy_numeric=e_num,
                abs_delta=delta,
                im_abs=im_abs,
                iterations=iters,
                passed=bool(delta < tol and im_abs < tol),
            )
        )
    return report


def convergence_study(model, contour: ShiftedLine, level, h_list, seed: int = DEFAULT_SEED) -> float:
    """Slope of log|Delta E| against log h over at least three grids.

    Second-order stencils must give a slope near 2; that scaling is the
    evidence the matcher is measuring discretization error and not noise.
    """
    h_list = list(h_list)
    if len(h_list) < 3:
        raise ValueError("need at least 3 grid resolutions")
    hs = []
    errs = []
    for h in h_list:
        n = int(round(2.0 * contour.L / h)) - 1
        grid = GridSpec(L=contour.L, n=n)
        opr = discretize(model, contour, grid)
        e_num, _ = shift_invert_eigen(opr, level.energy, seed=seed)
        err = abs(e_num - level.energy)
        if not err < 0.1:
            raise NoConvergence(f"level not matched at loose tolerance for h={h}")
        hs.append(grid.h)
        errs.append(err)
    slope, _ = np.polyfit(np.log(hs), np.log(errs), 1)
    return float(slope)
