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


@dataclass
class Spectrum:
    """Ordered level list plus per-family counts for one parameter point."""

    model: str
    params: dict
    levels: list
    family_counts: dict
    notes: list = field(default_factory=list)

    def find(self, **key) -> Level | None:
        """First level whose fields equal ``key`` (e.g. sigma=-1, N=2), or None."""
        return next(
            (lv for lv in self.levels if all(getattr(lv, k) == v for k, v in key.items())), None
        )

    def energy_sorted(self) -> list:
        """Merged view, ascending in energy (binding order for reports)."""
        return sorted(self.levels, key=lambda lv: lv.energy)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "levels": [
                {
                    "N": lv.N,
                    "sigma": lv.sigma,
                    "tau": lv.tau,
                    "energy": lv.energy,
                    "internal": {
                        k: [complex(v).real, complex(v).imag]
                        for k, v in lv.internal.items()
                    },
                }
                for lv in self.levels
            ],
            "family_counts": dict(self.family_counts),
        }


def spectrum_to_json(spectrum: Spectrum) -> str:
    """Canonical JSON: fixed field order, shortest round-trip floats."""
    return json.dumps(spectrum.to_dict(), indent=2)


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """CSV with one level per row; family signs encoded as -1/0/+1."""
    lines = ["N,sigma,tau,energy"]
    for lv in spectrum.levels:
        s = 0 if lv.sigma is None else lv.sigma
        t = 0 if lv.tau is None else lv.tau
        lines.append(f"{lv.N},{s},{t},{lv.energy!r}")
    return "\n".join(lines) + "\n"


# ---- eckart ------------------------------------------------------------------

def eckart_levels(p: EckartParams) -> Spectrum:
    """All N with N < A - 1:  E_N = -(A-N-1)^2 + beta^2/(A-N-1)^2.

    The intermediates satisfy u + v = A - N - 1 and u - v = -i*beta/(u+v);
    both roots are taken with positive real part so the state decays on
    both ends of the shifted line.
    """
    levels = []
    n = 0
    while n < p.A - 1.0:
        d = p.A - n - 1.0
        u = 0.5 * (d - 1j * p.beta / d)
        v = 0.5 * (d + 1j * p.beta / d)
        energy = -(d**2) + p.beta**2 / d**2
        internal = {
            "u": u,
            "v": v,
            "a": complex(2.0 * p.A - n - 1.0),
            "b": complex(-n),
            "c": 1.0 + 2.0 * u,
        }
        levels.append(Level("eckart", n, None, None, float(energy), internal))
        n += 1
    return Spectrum(
        model="eckart",
        params={"A": p.A, "beta": p.beta},
        levels=levels,
        family_counts={"all": len(levels)},
    )


def eckart_gap(p: EckartParams, n: int) -> float:
    """E_N - E_{N-1} for 1 <= N <= N_max; always exceeds 1."""
    spectrum = eckart_levels(p)
    if not 1 <= n < len(spectrum.levels):
        raise IndexOutOfRange(f"gap index N={n} outside 1..{len(spectrum.levels) - 1}")
    return spectrum.levels[n].energy - spectrum.levels[n - 1].energy


# ---- poschl-teller -----------------------------------------------------------

def pt_levels(p: PTParams) -> Spectrum:
    """Four sign families (sigma, tau); levels where 2N+1 < -(sigma*alpha + tau*beta).

    E = -(2N + 1 + sigma*alpha + tau*beta)^2.  The (+,+) family is empty for
    positive couplings; (-,-) fills first as alpha + beta grows.
    """
    levels = []
    counts = {}
    for sigma, tau in _FAMILY_ORDER:
        s = sigma * p.alpha + tau * p.beta
        fam = []
        n = 0
        while 2 * n + 1 < -s:
            internal = {
                "mu": complex(0.5 * (tau * p.beta + 0.5)),
                "nu": complex(0.5 * (sigma * p.alpha + 0.5)),
                "a": complex(n + 1 + s),
                "b": complex(-n),
                "c": complex(tau * p.beta + 1.0),
            }
            levels.append(Level("pt", n, sigma, tau, float(-((2 * n + 1 + s) ** 2)), internal))
            fam.append(n)
            n += 1
        counts[family_key(sigma, tau)] = len(fam)
    return Spectrum(
        model="pt",
        params={"alpha": p.alpha, "beta": p.beta, "epsilon": p.epsilon},
        levels=levels,
        family_counts=counts,
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
    derived product.  Raises OutsideFamily when kappa <= 0 (or s = 0) and
    DegenerateBeta when the derived coupling vanishes exactly.
    """
    s = sigma * p.alpha + 2 * n + 1
    if abs(s) < 1e-12:
        raise OutsideFamily(f"s = sigma*alpha + 2n + 1 vanishes at (sigma={sigma}, n={n})")
    tb = 0.5 * (p.C / s - s)
    kappa = -0.5 * (s + p.C / s)
    if kappa <= 0:
        raise OutsideFamily(f"kappa={kappa} <= 0 at (sigma={sigma}, n={n})")
    if tb == 0:
        raise DegenerateBeta(f"derived coupling vanishes at (sigma={sigma}, n={n})")
    tau = 1 if tb > 0 else -1
    internal = {
        "kappa": complex(kappa),
        "beta_eff": complex(abs(tb)),
        "s": complex(s),
    }
    return Level("hulthen", n, sigma, tau, float(kappa**2), internal)


def hulthen_levels(p: HulthenParams) -> Spectrum:
    """Enumerate (sigma, n) candidates and keep those with kappa > 0.

    E = kappa^2 = C + (s - C/s)^2 / 4 > 0 for every accepted level.  The n
    loop is bounded by sqrt(|C|) + alpha + 1, beyond which s + C/s stays
    positive; the acceptance window need not be contiguous in n, so every
    candidate under the bound is tried.
    """
    levels = []
    counts: dict[str, int] = {}
    notes: list[str] = []
    n_bound = int(math.ceil(math.sqrt(abs(p.C)) + p.alpha + 1.0))
    for sigma in (-1, +1):
        for n in range(n_bound + 1):
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


def check_level(model, level: Level) -> None:
    """Guard that a Level record is one of the given model's own levels.

    The level is looked up in the model's enumeration by (sigma, tau, N) and
    its energy compared with the enumerated one.
    """
    spectrum = spectrum_of(model)
    if level.model != spectrum.model:
        raise LevelMismatch(f"level tagged {level.model!r}, expected {spectrum.model!r}")
    own = spectrum.find(sigma=level.sigma, tau=level.tau, N=level.N)
    if own is None:
        raise LevelMismatch(
            f"(sigma,tau,N)=({level.sigma},{level.tau},{level.N}) is not a level of {model}"
        )
    if not np.isclose(level.energy, own.energy, rtol=1e-9, atol=1e-9):
        raise LevelMismatch(
            f"energy {level.energy} does not match parameters (expect {own.energy})"
        )
