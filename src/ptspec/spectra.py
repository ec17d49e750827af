"""Closed-form bound-state spectra.

Every level is emitted together with the intermediate parameters that the
wavefunction builders need, so spectra and eigenfunctions can never drift
apart.  Energies are exact formulas, not numerics.  ``spectrum_of`` picks the
enumerator of any parameter record through the model table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DegenerateBeta, IndexOutOfRange, LevelMismatch, OutsideFamily
from .models import EckartParams, HulthenParams, PTParams, model_kind

_FAMILY_ORDER = ((-1, -1), (-1, +1), (+1, -1), (+1, +1))

#: most levels (Hulthen: candidate indices) one family may enumerate
MAX_LEVELS = 10_000


def _check_count(bound: str, count: float) -> float:
    """``count``; ValueError when this closed-form bound on a loop length exceeds MAX_LEVELS."""
    if count > MAX_LEVELS:
        raise ValueError(f"{bound} = {count:.6g} exceeds MAX_LEVELS = {MAX_LEVELS}")
    return count


def family_key(sigma: int | None, tau: int | None) -> str:
    """Compact family tag: sign pair like '--' or '+-'; 'all' when untagged."""
    if sigma is None and tau is None:
        return "all"
    return ("-" if sigma < 0 else "+") + ("-" if tau < 0 else "+")


@dataclass(frozen=True)
class Level:
    """One bound state: model tag, index, family signs, real energy.

    ``internal`` carries the named complex intermediates used to build the
    eigenfunction (e.g. u, v, a, b, c for the eckart model).
    """

    model: str
    N: int
    sigma: int | None
    tau: int | None
    energy: float
    internal: Mapping[str, complex] = field(default_factory=dict)

    def row(self, **facts) -> dict:
        """The level's row in a report: N, sigma and tau, then ``facts`` in order."""
        return {"N": self.N, "sigma": self.sigma, "tau": self.tau, **facts}


@dataclass
class Spectrum:
    """Ordered level list plus per-family counts for one parameter point."""

    model: str
    params: dict
    levels: list
    family_counts: dict
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "levels": [
                lv.row(
                    energy=lv.energy,
                    internal={k: [complex(v).real, complex(v).imag] for k, v in lv.internal.items()},
                )
                for lv in self.levels
            ],
            "family_counts": dict(self.family_counts),
        }


def spectrum_to_json(spectrum: Spectrum) -> str:
    """Canonical JSON: fixed field order, shortest round-trip floats."""
    return json.dumps(spectrum.to_dict(), indent=2)


def csv_text(header: str, columns) -> str:
    """The header, then one row per sample, each number as its shortest round-trip
    ``repr``; formatting a column at a time is faster than row by row."""
    cells = [map(repr, np.asarray(col).tolist()) for col in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """CSV with one level per row; family signs encoded as -1/0/+1."""
    rows = [(lv.N, lv.sigma or 0, lv.tau or 0, lv.energy) for lv in spectrum.levels]
    return csv_text("N,sigma,tau,energy", zip(*rows))


# ---- eckart ------------------------------------------------------------------

def eckart_level(p: EckartParams, n: int) -> Level:
    """Level N, for 0 <= N < A - 1:  E_N = -(A-N-1)^2 + beta^2/(A-N-1)^2.

    The intermediates satisfy u + v = A - N - 1 and u - v = -i*beta/(u+v);
    both roots are taken with positive real part so the state decays on
    both ends of the shifted line.  OutsideFamily for any other N, ValueError where
    A - 1 exceeds MAX_LEVELS or beta^2/(A-N-1)^2 overflows.
    """
    _check_count("eckart level bound A - 1", p.A - 1.0)
    if not 0 <= n < p.A - 1.0:
        raise OutsideFamily(f"N={n} is not in 0 <= N < A - 1 = {p.A - 1.0}")
    d = p.A - n - 1.0
    if not math.isfinite(p.beta * p.beta / (d * d)):
        raise ValueError(f"beta={p.beta} is too large for A={p.A}: beta^2/(A-N-1)^2 overflows at N={n}")
    u = 0.5 * (d - 1j * p.beta / d)
    v = 0.5 * (d + 1j * p.beta / d)
    internal = {
        "u": u,
        "v": v,
        "a": complex(2.0 * p.A - n - 1.0),
        "b": complex(-n),
        "c": 1.0 + 2.0 * u,
    }
    return Level("eckart", n, None, None, float(-(d**2) + p.beta**2 / d**2), internal)


def _eckart_count(p: EckartParams) -> int:
    """How many levels ``eckart_level`` builds: the N >= 0 below A - 1, which are exactly the N < ceil(A - 1)."""
    return max(0, math.ceil(p.A - 1.0))


def eckart_levels(p: EckartParams) -> Spectrum:
    """All levels N = 0, 1, ... below A - 1, each from ``eckart_level``."""
    levels = [eckart_level(p, n) for n in range(_eckart_count(p))]
    return Spectrum(
        model="eckart",
        params={"A": p.A, "beta": p.beta},
        levels=levels,
        family_counts={"all": len(levels)},
    )


def eckart_gap(p: EckartParams, n: int) -> float:
    """E_N - E_{N-1} for 1 <= N <= N_max; always exceeds 1."""
    if not 1 <= n < _eckart_count(p):
        raise IndexOutOfRange(f"gap index N={n} outside 1..{_eckart_count(p) - 1}")
    return eckart_level(p, n).energy - eckart_level(p, n - 1).energy


# ---- poschl-teller -----------------------------------------------------------

def pt_level(p: PTParams, sigma: int, tau: int, n: int) -> Level:
    """Level (sigma, tau, N), for signs +-1 and 0 <= 2N+1 < -(sigma*alpha + tau*beta).

    E = -(2N + 1 + sigma*alpha + tau*beta)^2.  OutsideFamily for any other key (a
    sign other than +-1 is in no family), ValueError where (alpha + beta - 1)/2 exceeds MAX_LEVELS.
    """
    _check_count("pt level bound (alpha + beta - 1)/2", (p.alpha + p.beta - 1.0) / 2)
    s = sigma * p.alpha + tau * p.beta if sigma in (-1, 1) and tau in (-1, 1) else math.inf
    if n < 0 or not 2 * n + 1 < -s:
        raise OutsideFamily(f"(sigma,tau,N)=({sigma},{tau},{n}): 2N+1 is not below -(sigma*alpha+tau*beta)={-s}")
    internal = {
        "mu": complex(0.5 * (tau * p.beta + 0.5)),
        "nu": complex(0.5 * (sigma * p.alpha + 0.5)),
        "a": complex(n + 1 + s),
        "b": complex(-n),
        "c": complex(tau * p.beta + 1.0),
    }
    return Level("pt", n, sigma, tau, float(-((2 * n + 1 + s) ** 2)), internal)


def pt_levels(p: PTParams) -> Spectrum:
    """The four sign families filled N = 0, 1, ...; (+,+) is empty, and (-,-) fills first as alpha + beta grows."""
    # 2N + 1 < m = -(s*alpha + t*beta) exactly when N < ceil((m - 1)/2): m - 1 and /2 are exact for 1 <= m < 2^53
    counts = {(s, t): max(0, math.ceil((-(s * p.alpha + t * p.beta) - 1.0) / 2)) for s, t in _FAMILY_ORDER}
    return Spectrum(
        model="pt",
        params={"alpha": p.alpha, "beta": p.beta, "epsilon": p.epsilon},
        levels=[pt_level(p, s, t, n) for (s, t), count in counts.items() for n in range(count)],
        family_counts={family_key(s, t): count for (s, t), count in counts.items()},
    )


def pt_levels_complex(alpha: complex, beta: complex, sigma: int, tau: int, n: int) -> complex:
    """Analytic continuation of one level to complex couplings.

    E = -(2n + 1 + sigma*alpha + tau*beta)^2, real exactly when
    Im(sigma*alpha + tau*beta) = 0.  The real part of the combination must
    still satisfy the family inequality.
    """
    s = sigma * complex(alpha) + tau * complex(beta)
    if not 2 * n + 1 < -s.real:
        raise OutsideFamily(f"2N+1={2 * n + 1} is not below -Re(sigma*alpha+tau*beta)={-s.real}")
    return -((2 * n + 1 + s) ** 2)


# ---- hulthen -------------------------------------------------------------------

def hulthen_level(p: HulthenParams, sigma: int, n: int) -> Level:
    """Candidate level for (sigma, n); tau and the coupling are derived.

    With s = sigma*alpha + 2n + 1, the product tau*beta_eff = (C/s - s)/2 and
    kappa = -(s + C/s)/2.  Accepted only if kappa > 0; tau is the sign of the
    derived product.  Raises OutsideFamily when kappa <= 0 (or s = 0, n < 0 or sigma is
    not +-1), DegenerateBeta when the derived coupling vanishes exactly and ValueError
    when kappa^2 overflows or the candidate bound of ``hulthen_levels`` exceeds MAX_LEVELS.
    """
    _hulthen_stop(p)
    if n < 0 or sigma not in (-1, 1):
        raise OutsideFamily(f"(sigma, N) = ({sigma}, {n}) is not a level key")
    s = sigma * p.alpha + 2 * n + 1
    if abs(s) < 1e-12:
        raise OutsideFamily(f"s = sigma*alpha + 2n + 1 vanishes at (sigma={sigma}, n={n})")
    tb = 0.5 * (p.C / s - s)
    kappa = -0.5 * (s + p.C / s)
    if kappa <= 0:
        raise OutsideFamily(f"kappa={kappa} <= 0 at (sigma={sigma}, n={n})")
    if tb == 0:
        raise DegenerateBeta(f"derived coupling vanishes at (sigma={sigma}, n={n})")
    if not math.isfinite(kappa * kappa):
        raise ValueError(f"C={p.C} is too large for alpha={p.alpha}: E = kappa^2 overflows at (sigma={sigma}, n={n})")
    tau = 1 if tb > 0 else -1
    internal = {
        "kappa": complex(kappa),
        "beta_eff": complex(abs(tb)),
        "s": complex(s),
    }
    return Level("hulthen", n, sigma, tau, float(kappa**2), internal)


def hulthen_partner(p: HulthenParams, level: Level, epsilon: float) -> PTParams:
    """The sinh/cosh well that Hulthen ``level`` of ``p`` maps to on the arch of shift epsilon;
    its level at ``level``'s key has kappa^2 = ``level.energy``.  ``level`` is not checked here."""
    return PTParams(p.alpha, float(level.internal["beta_eff"].real), epsilon)


def _hulthen_stop(p: HulthenParams) -> int:
    """The candidate bound of ``hulthen_levels``, checked against MAX_LEVELS."""
    return _check_count("hulthen level bound", math.floor((math.sqrt(max(-p.C, 0.0)) + p.alpha - 1.0) / 2.0) + 1)


def hulthen_levels(p: HulthenParams) -> Spectrum:
    """Enumerate (sigma, n) candidates and keep those with kappa > 0.

    E = kappa^2 = C + (s - C/s)^2 / 4 > 0 for every accepted level.  kappa > 0
    means s + C/s < 0: either 0 < s < sqrt(-C), or s < 0, which needs
    2n + 1 < alpha.  Both give n < (sqrt(max(-C, 0)) + alpha - 1) / 2, and the
    loop runs up to the floor of that bound inclusive.  The acceptance window
    need not be contiguous in n, so every candidate under the bound is tried.
    """
    levels = []
    counts: dict[str, int] = {}
    notes: list[str] = []
    for sigma in (-1, +1):
        for n in range(_hulthen_stop(p)):
            try:
                lv = hulthen_level(p, sigma, n)
            except OutsideFamily:
                continue
            except DegenerateBeta:
                notes.append(f"degenerate coupling at (sigma={sigma}, n={n}); level rejected")
                continue
            levels.append(lv)
            key = family_key(lv.sigma, lv.tau)
            counts[key] = counts.get(key, 0) + 1
    levels.sort(key=lambda lv: (lv.sigma, lv.tau, lv.N))
    return Spectrum(
        model="hulthen",
        params={"alpha": p.alpha, "C": p.C},
        levels=levels,
        family_counts=counts,
        notes=notes,
    )


# ---- shared helpers -------------------------------------------------------------

def spectrum_of(model) -> Spectrum:
    """Closed-form spectrum of any model parameter record."""
    return globals()[model_kind(model).levels](model)


def level_of(model, **key) -> Level | None:
    """The level of ``model`` whose fields equal ``key`` (at least its ``level_key``, e.g. N=2), or None."""
    kind = model_kind(model)
    try:
        lv = globals()[kind.level](model, *(key[k] for k in kind.level_key))
    except (OutsideFamily, DegenerateBeta):
        return None
    return lv if all(getattr(lv, k) == v for k, v in key.items()) else None


def check_level(model, level: Level) -> Level:
    """The model's own level at ``level``'s (sigma, tau, N); LevelMismatch unless ``level`` has its tag and energy."""
    kind = model_kind(model)
    if level.model != kind.name:
        raise LevelMismatch(f"level tagged {level.model!r}, expected {kind.name!r}")
    own = level_of(model, sigma=level.sigma, tau=level.tau, N=level.N)
    if own is None:
        raise LevelMismatch(f"(sigma,tau,N)=({level.sigma},{level.tau},{level.N}) is not a level of {model}")
    if not np.isclose(level.energy, own.energy, rtol=1e-9, atol=1e-9):
        raise LevelMismatch(f"energy {level.energy} does not match parameters (expect {own.energy})")
    return own
