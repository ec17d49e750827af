"""Special functions with complex parameters.

Terminating Gauss hypergeometric series, Jacobi polynomials by recurrence,
and complex powers with the branch tracked along an ordered contour.
"""

from __future__ import annotations

import numpy as np

from .errors import NonTerminating, PhaseJump, PoleInC, ZeroBase

#: tolerance for "is (numerically) an integer" decisions
INTEGER_TOL = 1e-12


def _as_nonneg_termination_index(w: complex) -> int | None:
    """Return N >= 0 if w is within INTEGER_TOL of -N, else None."""
    w = complex(w)
    n = int(round(w.real))
    if n <= 0 and abs(w - n) <= INTEGER_TOL:
        return -n
    return None


def gauss2f1_terminating(a: complex, b: complex, c: complex, z) -> complex | np.ndarray:
    """Sum the terminating series F(a, b; c; z) by running Pochhammer recurrences.

    z may be a scalar or an ndarray of evaluation points.

    One of a, b must equal -N for an integer N >= 0 (within INTEGER_TOL);
    the sum then has exactly N + 1 terms, the smaller N when both qualify.

    Raises NonTerminating if neither upper parameter is a non-positive
    integer and PoleInC if c is a non-positive integer hit before the
    series terminates.
    """
    candidates = [n for n in map(_as_nonneg_termination_index, (a, b)) if n is not None]
    if not candidates:
        raise NonTerminating(f"neither a={a} nor b={b} is a non-positive integer")
    n_stop = min(candidates)

    m = _as_nonneg_termination_index(c)
    if m is not None and m < n_stop:
        raise PoleInC(f"c={c} poles the series before termination at N={n_stop}")

    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)

    term = np.ones_like(z)
    total = term.copy()
    for k in range(1, n_stop + 1):
        term = term * ((a + k - 1) * (b + k - 1) / ((c + k - 1) * k)) * z
        total = total + term
    return complex(total[0]) if scalar else total


def jacobi_poly(n: int, alpha: complex, beta: complex, z: complex | np.ndarray) -> complex | np.ndarray:
    """Jacobi polynomial P_n^(alpha, beta)(z) by the three-term recurrence.

    The recurrence is run with complex parameters; it is a polynomial
    identity, so no branch choices arise.
    """
    if n < 0:
        raise ValueError("polynomial degree must be >= 0")
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)

    p_prev = np.ones_like(z_arr)
    if n == 0:
        return complex(p_prev[0]) if scalar else p_prev
    s = alpha + beta
    p_cur = (alpha - beta) / 2 + (s + 2) * z_arr / 2
    for k in range(2, n + 1):
        a_k = 2 * k * (k + s) * (2 * k + s - 2)
        b_k = (2 * k + s - 1) * ((2 * k + s) * (2 * k + s - 2) * z_arr + alpha**2 - beta**2)
        c_k = 2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + s)
        p_cur, p_prev = (b_k * p_cur - c_k * p_prev) / a_k, p_cur
    return complex(p_cur[0]) if scalar else p_cur


def tracked_log(base_samples) -> np.ndarray:
    """log|b| + i arg b along an ordered sequence of contour samples b.

    The argument is unwrapped sample-to-sample and anchored to the principal
    argument at the middle sample, so it varies continuously even when the
    principal argument would wrap.  This is the exponent-free half of
    ``complex_power_tracked``: powers of the same samples share it.

    Raises ZeroBase on a vanishing base and PhaseJump when consecutive
    samples differ in argument by pi or more (grid too coarse to track).
    An empty sequence gives an empty array.
    """
    base = np.atleast_1d(np.asarray(base_samples, dtype=complex))
    if not base.size:
        return base
    if np.any(base == 0):
        raise ZeroBase("zero base in branch-tracked power")

    steps = np.angle(base[1:] / base[:-1])
    if steps.size and np.max(np.abs(steps)) >= np.pi:
        raise PhaseJump("consecutive samples differ in argument by >= pi")

    rel = np.concatenate(([0.0], np.cumsum(steps)))
    anchor = base.shape[0] // 2
    phase = np.angle(base[anchor]) + rel - rel[anchor]
    return np.log(np.abs(base)) + 1j * phase


def tracked_power(log_base: np.ndarray, exponent: complex) -> np.ndarray:
    """exp(exponent * log_base) for a ``tracked_log`` array."""
    # The product takes a fresh copy, as the one-step power took a fresh
    # temporary: from 256 KiB on, numpy computes such a product in place with
    # the operands swapped, which moves the last bit of complex products.
    return np.exp(exponent * log_base.copy())


def complex_power_tracked(base_samples, exponent: complex) -> complex | np.ndarray:
    """Raise contour samples to a complex power with a continuous branch.

    ``base_samples`` is an ordered sequence along a contour; the power is
    ``tracked_power(tracked_log(base_samples), exponent)``, whose errors and
    branch rule it shares.
    """
    base = np.asarray(base_samples, dtype=complex)
    out = tracked_power(tracked_log(base), exponent)
    return complex(out[0]) if base.ndim == 0 else out
