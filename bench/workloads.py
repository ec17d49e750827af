"""Seeded request sets for the four benchmark workloads.

A workload is a fixed list of ``ptspec`` argv lists (one "pass") that the
benchmark replays in a closed loop.  The workload seed picks the list from
the pools in ``pools/``, recorded by ``make_pools.py``, a fixed number of
entries per stratum.  Strata fix the shape of a pass (subcommand, model,
level count and, for ``fd-grid``, the outcome when the pool was recorded),
so the work in a pass barely depends on the seed while the parameter values
do.

Pool entries of ``residual-scan``, ``export`` and ``cli-cold`` carry the
SHA-256 of their recorded exit code and stdout, so every output is checked
byte for byte whatever the seed.  Finite-difference reports are checked
against closed forms written out in this file instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL_DIR = Path(__file__).resolve().parent / "pools"

WORKLOADS = ("fd-grid", "residual-scan", "export", "cli-cold")

FD_GRIDS = (1500, 6000, 24000, 48000)
FD_L = "12"

ECKART_FIXTURE = ("--model", "eckart", "--A", "3.5", "--beta", "1.0")
PT_FIXTURE = ("--model", "pt", "--alpha", "4.3", "--beta", "1.7", "--eps", "0.5")

_PT_FAMILIES = ((-1, -1), (-1, +1), (+1, -1), (+1, +1))


@dataclass(frozen=True)
class Request:
    """One ``ptspec`` invocation and what its output must satisfy."""

    argv: tuple
    #: PTSPEC_SEED for this request; None leaves the program's default seed
    ptspec_seed: int | None = None
    #: golden SHA-256 of exit code and stdout; None for FD reports
    sha256: str | None = None
    #: levels a digest-checked request enumerates, verifies or samples
    levels: int = 0
    #: FD only: closed-form (N, sigma, tau, energy) of every level
    expect: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple
    warmup: Request
    in_process: bool


def output_digest(code: int, stdout: bytes) -> str:
    return hashlib.sha256(b"%d\n" % code + stdout).hexdigest()


# ---- closed forms, written out here so the FD check shares no code with ptspec ----


def eckart_expected(A: float, beta: float) -> tuple:
    """Levels N < A - 1 with E_N = -(A-N-1)^2 + beta^2/(A-N-1)^2."""
    out = []
    n = 0
    while n < A - 1.0:
        d = A - n - 1.0
        out.append((n, None, None, -(d**2) + beta**2 / d**2))
        n += 1
    return tuple(out)


def pt_expected(alpha: float, beta: float) -> tuple:
    """Per sign family, levels 2N+1 < -(sigma*alpha + tau*beta), E = -(2N+1+s)^2."""
    out = []
    for sigma, tau in _PT_FAMILIES:
        s = sigma * alpha + tau * beta
        n = 0
        while 2 * n + 1 < -s:
            out.append((n, sigma, tau, float(-((2 * n + 1 + s) ** 2))))
            n += 1
    return tuple(out)


def fd_expected(argv) -> tuple:
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts["--model"] == "eckart":
        return eckart_expected(float(opts["--A"]), float(opts["--beta"]))
    return pt_expected(float(opts["--alpha"]), float(opts["--beta"]))


# ---- request lists ------------------------------------------------------------


def _fd_request(model_argv: tuple, n: int) -> Request:
    argv = ("verify", *model_argv, "--method", "fd", "--grid-n", str(n), "--grid-L", FD_L)
    return Request(argv=argv, expect=fd_expected(model_argv))


def load_pool(name: str) -> dict:
    with open(POOL_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _from_entry(entry: dict, ptspec_seed: int) -> Request:
    argv = tuple(entry["argv"])
    ptspec_seed = entry.get("ptspec_seed", ptspec_seed)
    if entry["sha256"] is None:
        return Request(argv=argv, ptspec_seed=ptspec_seed, expect=fd_expected(argv[1:]))
    return Request(argv=argv, ptspec_seed=ptspec_seed, sha256=entry["sha256"], levels=entry["levels"])


def _pick(pool: dict, rng, tiny: bool) -> tuple:
    """``draws[stratum]`` entries of each stratum (default 1), without replacement."""
    reqs = []
    for stratum in sorted(pool["strata"])[: 2 if tiny else None]:
        entries = pool["strata"][stratum]
        k = 1 if tiny else pool.get("draws", {}).get(stratum, 1)
        for i in sorted(rng.choice(len(entries), size=k, replace=False)):
            reqs.append(_from_entry(entries[int(i)], int(rng.integers(1, 2**31))))
    return tuple(reqs)


def fd_grid(seed: int, tiny: bool = False) -> Workload:
    """The README fixtures on every grid, run with the program's default start
    vector as a user runs them, plus seeded points from the fd-grid pool at
    n = 1500, each with the PTSPEC_SEED it was recorded with."""
    rng = np.random.default_rng([seed % 2**63, 1])
    grids = FD_GRIDS[:1] if tiny else FD_GRIDS
    fixtures = tuple(_fd_request(fx, n) for n in grids for fx in (ECKART_FIXTURE, PT_FIXTURE))
    drawn = _pick(load_pool("fd-grid"), rng, tiny)
    return Workload("fd-grid", fixtures + drawn, _fd_request(PT_FIXTURE, FD_GRIDS[0]), in_process=True)


def pooled(name: str, seed: int, tiny: bool = False) -> Workload:
    """Entries picked per stratum by the seed; PTSPEC_SEED is seeded per request."""
    pool = load_pool(name)
    rng = np.random.default_rng([seed % 2**63, 2])
    reqs = _pick(pool, rng, tiny)
    warmup = _from_entry(pool["warmup"], int(rng.integers(1, 2**31)))
    return Workload(name, reqs, warmup, in_process=name != "cli-cold")


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "fd-grid":
        return fd_grid(seed, tiny)
    if name in WORKLOADS:
        return pooled(name, seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
