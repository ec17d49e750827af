"""Independent finite-difference verification of the closed-form spectra.

Discretizes -d^2/dr^2 + V on the shifted line with a Dirichlet three-point
stencil and finds eigenvalues near analytic targets by shift-inverted inverse
iteration on the complex tridiagonal matrix.  A level passes when its
eigenvalue is within ``tol`` of the closed form and has |Im| below it; ``tol``
is ``--tol`` or a fixed CLI default (1e-2 here, 1e-6 for the residual scan,
1e-9 for ``liouville-check``), not a bound derived from the stencil's h^2 error.

Inverse iteration stops on the backward error (Parlett, The Symmetric
Eigenvalue Problem, ch. 4), not on the change in the eigenvalue estimate: an
iterate y (||y|| = 1) with Rayleigh quotient e is accepted once
||H y - e y|| <= c * eps * ||H||, with c = RESIDUAL_FACTOR = 4096, eps the
double-precision machine epsilon and ||H|| = max|diag| + 2 |offdiag| a bound
on the operator norm.  ||H|| grows like 4/h^2, so the test follows the
rounding floor of the grid instead of a fixed absolute constant that fine
grids cannot reach.

What does not depend on the level is formed once per operator: the stopping
floor, and the seeded unit start vector (2n standard normals), which is drawn
once per operator and seed and held read-only; each level copies it into its
right-hand side.  A step makes no temporary vector: H y and the residual
H y - e y are written into two buffers per level with the operands and order
of the plain array expressions, whose bits they keep, and each norm is
``np.linalg.norm``'s two real dot products and square root without its
dispatch.

The tridiagonal LU (zgttrf) and solve (zgttrs) come from the LAPACK that numpy
already loads: numpy's wheels bundle an OpenBLAS with 64-bit integers
(scipy-openblas, USE64BITINT), and a ctypes binding to its
``LAPACKE_zgttrf_work``/``LAPACKE_zgttrs_work`` entry points costs nothing to
import.  The ``_work`` variants are used because the plain LAPACKE wrappers
scan every band and the right-hand side for NaNs on every call, which makes
each solve about a third slower.  Where numpy carries no such library (conda
and MKL builds, source builds, 32-bit-integer builds) or it lacks a symbol,
the same two routines come from ``scipy.linalg.lapack``; scipy is needed only
there.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contour import SampledContour, ShiftedLine
from .errors import LUBreakdown, NoConvergence
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
        h2 = self.h * self.h
        if not (h2 > 0.0 and math.isfinite(1.0 / h2)):
            raise ValueError(f"grid step h={self.h:g} is too small: 1/h^2 is not finite")

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

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
        """H x, written into ``out``; ``work`` takes the off-diagonal products.

        Both are complex n-vectors, new ones when not given.  The operands and
        their order are those of ``diag * x`` with each band's product added in
        place, so the bits do not depend on whether buffers are passed.
        """
        n = len(self.diag)
        if out is None:
            out = np.empty(n, dtype=complex)
        if work is None:
            work = np.empty(n, dtype=complex)
        band = work[:-1]
        np.multiply(self.diag, x, out=out)
        np.multiply(self.offdiag, x[1:], out=band)
        np.add(out[:-1], band, out=out[:-1])
        np.multiply(self.offdiag, x[:-1], out=band)
        np.add(out[1:], band, out=out[1:])
        return out

    @functools.cached_property
    def floor(self) -> float:
        """``residual_floor`` of this operator, formed on first use."""
        return residual_floor(self)

    def start_vector(self, seed: int) -> np.ndarray:
        """The seeded unit start vector of inverse iteration (2n standard normals), read-only.

        The vector of the last seed asked for is held, so the levels of one
        report share one draw; another seed draws again.
        """
        held = self.__dict__.get("_start")
        if held is None or held[0] != seed:
            n, rng = len(self.diag), np.random.default_rng(seed)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x /= np.linalg.norm(x)
            x.flags.writeable = False
            held = (seed, x)
            object.__setattr__(self, "_start", held)  # a cache, not a field
        return held[1]


def discretize(model, contour: ShiftedLine, grid: GridSpec) -> TridiagonalOperator:
    """Three-point stencil for -psi'' + V psi on the shifted line.

    ``model`` is a parameter record or a bare callable V on the points'
    ``contour.Chart`` (handy for controls like the free particle).  V is read
    from the ``contour.SampledContour`` of the grid points, whose check raises
    SingularPotentialOnGrid at the first point where V is not finite.
    """
    if not isinstance(contour, ShiftedLine):
        raise TypeError("finite differences run on the shifted line only")
    v = SampledContour(contour, grid.points(), model if callable(model) else potential_fn(model)).v
    return TridiagonalOperator(diag=2.0 / grid.h**2 + v, offdiag=-1.0 / grid.h**2, grid=grid)


def _rayleigh(x: np.ndarray, hx: np.ndarray) -> complex:
    """Rayleigh quotient of x, given hx = H x."""
    d = x @ x  # unconjugated: exact for complex symmetric eigenvectors
    if abs(d) > 1e-8:
        return complex((x @ hx) / d)
    xc = np.conj(x)
    return complex((xc @ hx) / (xc @ x))


def residual_floor(opr: TridiagonalOperator) -> float:
    """Backward-error bound RESIDUAL_FACTOR * eps * ||H|| that stops the iteration."""
    norm_h = float(np.max(np.abs(opr.diag))) + 2.0 * abs(opr.offdiag)
    return RESIDUAL_FACTOR * np.finfo(float).eps * norm_h


def _norm(re: np.ndarray, im: np.ndarray) -> float:
    """The 2-norm of a complex vector from its real and imaginary views, formed
    as ``np.linalg.norm`` forms it: two real dots, their sum, one square root."""
    return math.sqrt(re.dot(re) + im.dot(im))


def _numpy_lapack():
    """(factor, solve) bound to numpy's bundled ILP64 OpenBLAS, or None.

    Takes numpy's word for what it was built with: only a scipy-openblas
    LAPACK with 64-bit integers has the ``scipy_…64_`` symbols bound here.
    """
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):  # numpy before 1.25 reports no build facts
        return None
    if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in lapack.get("openblas configuration", ""):
        return None
    root = Path(np.__file__).parent  # numpy.libs/ next to it on Linux and Windows, .dylibs/ in it on macOS
    paths = sorted([*root.parent.glob("numpy.libs/*scipy_openblas64_*"), *root.glob(".dylibs/*scipy_openblas64_*")])
    try:
        # already loaded by numpy, so no new mapping; PyDLL calls keep the GIL,
        # as scipy's wrappers do, and so cost less than CDLL's on every step
        lib = ctypes.PyDLL(str(paths[0]))
        trf, trs = lib.scipy_LAPACKE_zgttrf_work64_, lib.scipy_LAPACKE_zgttrs_work64_
    except (IndexError, OSError, AttributeError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    trf.restype = trs.restype = i64
    trf.argtypes = [i64, ptr, ptr, ptr, ptr, ptr]
    trs.argtypes = [ctypes.c_int, ctypes.c_char, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64]
    # arguments made once: ctypes converts a Python int on every call
    col_major, no_trans, one = ctypes.c_int(102), ctypes.c_char(b"N"), i64(1)  # 102: LAPACK_COL_MAJOR
    # a zero-length ctypes array over an ndarray's memory: its address is the
    # data pointer, got at half the cost of .ctypes.data, and making it refuses
    # a non-contiguous or read-only array
    view = (ctypes.c_char * 0).from_buffer

    def factor(dl, d, du, b):
        n = len(d)
        if not (dl.dtype == d.dtype == du.dtype == b.dtype == complex and len(dl) == len(du) == n - 1 == len(b) - 1):
            raise ValueError("zgttrf/zgttrs take complex128 arrays of n - 1, n, n - 1 and n")
        arrays = (dl, d, du, np.empty(max(n - 2, 0), dtype=complex), np.empty(n, dtype=np.int64), b)
        ptrs = [ptr(ctypes.addressof(view(a))) for a in arrays]  # once here, not on every solve
        info = trf(i64(n), *ptrs[:5])
        return (*arrays, functools.partial(trs, col_major, no_trans, i64(n), one, *ptrs, i64(n))), info

    def solve(lu):
        lu[-1]()

    return factor, solve


def _scipy_lapack():
    """(factor, solve) from scipy.linalg.lapack, for numpy builds without the library."""
    from scipy.linalg.lapack import zgttrf, zgttrs

    def factor(dl, d, du, b):
        *lu, info = zgttrf(dl, d, du, overwrite_dl=True, overwrite_d=True, overwrite_du=True)
        return (*lu, b), info

    def solve(lu):
        zgttrs(*lu, overwrite_b=True)

    return factor, solve


@functools.cache
def _tridiagonal_lapack():
    """LAPACK's complex tridiagonal LU and solve, bound on the first call.

    ``factor(dl, d, du, b) -> (lu, info)`` overwrites the sub-, main and
    super-diagonal with the factors (info > 0: the matrix is singular); lu
    starts (dl, d, du, du2, ipiv, b), with LAPACK's 1-based pivots.
    ``solve(lu)`` overwrites b with the solution, every time into the same
    buffer.  All four arrays are 1-d, contiguous and complex128.
    """
    return _numpy_lapack() or _scipy_lapack()


def shift_invert_eigen(
    opr: TridiagonalOperator,
    shift: complex,
    max_iter: int = 200,
    seed: int = DEFAULT_SEED,
) -> tuple[complex, int]:
    """Eigenvalue of the operator nearest the shift, plus iterations used.

    Inverse iteration on one partial-pivoting LU factorization of H - shift
    (LAPACK zgttrf, then zgttrs on every step, from numpy's own OpenBLAS or
    else scipy: see the module docstring); the eigenvalue estimate is the
    Rayleigh quotient of each normalized iterate y, from a copy of the
    operator's ``start_vector(seed)``.  The iteration stops at the first step
    it >= 2 with ||H y - e y|| <= c * eps * ||H||, where c = RESIDUAL_FACTOR =
    4096 and ||H|| = max|diag| + 2 |offdiag| (the operator's ``floor``, see
    residual_floor), and raises NoConvergence after max_iter steps.  A
    singular factorization retries with the shift perturbed by 1e-8 (1 + i),
    at most three attempts in all.
    """
    factor, solve = _tridiagonal_lapack()
    n = len(opr.diag)
    floor = opr.floor
    # H y and then the residual go to hy, the off-diagonal and e y products to work
    y = opr.start_vector(seed).copy()
    hy, work = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    y_re, y_im, r_re, r_im = y.real, y.imag, hy.real, hy.imag
    work_shift = complex(shift)
    for _attempt in range(3):
        # the LU is made in place, and every solve overwrites y in place
        off = np.full(n - 1, opr.offdiag, dtype=complex)
        lu, info = factor(off, opr.diag - work_shift, off.copy(), y)
        if info > 0:
            work_shift += 1e-8 * (1.0 + 1.0j)
            continue
        for it in range(1, max_iter + 1):
            solve(lu)
            y /= _norm(y_re, y_im)
            if it < 2:  # the stop test waits for step 2, so step 1's residual goes unread
                continue
            opr.matvec(y, hy, work)
            e = _rayleigh(y, hy)
            np.multiply(e, y, out=work)
            np.subtract(hy, work, out=hy)  # the residual H y - e y, reusing the Rayleigh matvec
            if _norm(r_re, r_im) <= floor:
                return e, it
        raise NoConvergence(f"no eigenvalue settled near shift {shift} in {max_iter} iterations")
    raise LUBreakdown(f"tridiagonal factorization kept failing near shift {shift}")


# ---- matching and reports ---------------------------------------------------------

def match_levels(
    spectrum: Spectrum,
    opr: TridiagonalOperator,
    tol: float,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Shift-invert at every analytic level and compare; returns the report.

    A level passes when |E_numeric - E_analytic| < tol and |Im E_numeric| < tol;
    spurious contour-continuum eigenvalues sit far from the real targets, so
    targeting the analytic energies keeps the iteration away from them.  The
    report is the JSON document that ``verify --method fd`` prints.
    """
    rows = []
    for lv in spectrum.levels:
        e_num, iters = shift_invert_eigen(opr, lv.energy, seed=seed)
        delta = abs(e_num - lv.energy)
        im_abs = abs(e_num.imag)
        rows.append(
            lv.row(
                energy_analytic=lv.energy,
                energy_numeric=[e_num.real, e_num.imag],
                abs_delta=delta,
                im_abs=im_abs,
                iterations=iters,
                passed=bool(delta < tol and im_abs < tol),
            )
        )
    return {
        "model": spectrum.model,
        "params": dict(spectrum.params),
        "grid": {"L": opr.grid.L, "n": opr.grid.n, "h": opr.grid.h},
        "tol": tol,
        "tol_source": TOL_SOURCE,
        "seed": seed,
        "levels": rows,
        "max_im": max((r["im_abs"] for r in rows), default=0.0),
        "all_passed": all(r["passed"] for r in rows),
    }


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
