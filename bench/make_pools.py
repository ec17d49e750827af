"""Record the request pools and golden digests used by the benchmark.

    python3 bench/make_pools.py [WORKLOAD...]   # rewrite bench/pools/*.json

Each pool holds, per stratum, a fixed list of ``ptspec`` argv lists drawn from
the domains below, together with the SHA-256 of the exit code and stdout this
commit produces for each.  The benchmark replays a seeded choice of entries
and compares digests, so a moved energy, residual or CSV/JSON byte shows up as
a failed request.  Re-record only on purpose: the digests are the reference.

Domains (all inside the paper's family inequalities):

* Eckart: A with the top level at distance d = A - N_top - 1 >= 0.2 from the
  edge N < A - 1, beta in [0.1, 3).
* Pöschl–Teller: alpha, beta in (0.1, 6), eps in [0.4, 1.2), every family's
  top level at |2N + 1 + sigma*alpha + tau*beta| >= 0.2.
* Hulthén: alpha in (0.1, 5), C in (-30, -0.1), kappa >= 0.2 for every level.

Every level also stays at |E| <= 100.  Outside these bounds the residual
check (five-point stencil, h = 1e-3, tol 1e-6) amplifies rounding past its
tolerance at this commit, a limit of the check rather than of the formulas:

* ``--model hulthen --alpha 4.0089 --C -23.0137``: E = 124, residual 1.3e-6;
* ``--model pt --alpha 1.3088 --beta 4.2799 --eps 0.2094``: residual 6.5e-6;
* ``--model eckart --A 4.0473 --beta 2.8514``: E = 3634, residual 5.5e-4.

Inside them the check still fails at isolated points, where an eigenfunction
nearly vanishes on the contour (``--model eckart --A 3.3716 --beta 1.2510``:
residual 1.1e-6 at E = 11.2, against 2e-8 at A = 3.30 or 3.44).  Such draws
are redrawn, and each pool lists them under ``redrawn`` with their digest,
so the limit stays on record.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ptspec import cli  # noqa: E402
from ptspec.models import HulthenParams  # noqa: E402
from ptspec.spectra import hulthen_levels  # noqa: E402

from execute import run_in_process  # noqa: E402
from workloads import POOL_DIR, Request, eckart_expected, fd_expected, output_digest, pt_expected  # noqa: E402

POOL_SEED = 20260101
E_CAP = 100.0
MARGIN = 0.2

#: fd-grid: recorded points per model and level count, and how many of them a
#: pass draws.  Drawing two thirds of a small pool, rather than a sliver of a
#: large one, keeps the latency percentiles of a pass close across seeds.
FD_POOL = 24
FD_DRAWS = 16
FD_OUTCOMES = {0: "pass", 1: "missed", 2: "refused"}


def f2(x: float) -> str:
    return f"{x:.2f}"


def f4(x: float) -> str:
    return f"{x:.4f}"


# ---- points of the three models, rejection-sampled on level count -----------


def eckart_point(rng, levels: int):
    while True:
        A = float(f4(levels + rng.uniform(MARGIN, 1.0)))
        beta = float(f4(rng.uniform(0.1, 3.0)))
        lv = eckart_expected(A, beta)
        if len(lv) == levels and max(abs(e[3]) for e in lv) <= E_CAP:
            return ["--model", "eckart", "--A", f4(A), "--beta", f4(beta)], lv


def pt_point(rng, levels: int):
    while True:
        alpha, beta = float(f4(rng.uniform(0.1, 6.0))), float(f4(rng.uniform(0.1, 6.0)))
        lv = pt_expected(alpha, beta)
        if len(lv) != levels or any(not MARGIN**2 <= abs(e[3]) <= E_CAP for e in lv):
            continue
        eps = f4(rng.uniform(0.4, 1.2))
        return ["--model", "pt", "--alpha", f4(alpha), "--beta", f4(beta), "--eps", eps], lv


def hulthen_point(rng, levels: int, eps=None):
    while True:
        alpha, C = float(f4(rng.uniform(0.1, 5.0))), float(f4(rng.uniform(-30.0, -0.1)))
        lv = hulthen_levels(HulthenParams(alpha, C)).levels
        if len(lv) != levels:
            continue
        if any(lv_.energy > E_CAP or lv_.internal["kappa"].real < MARGIN for lv_ in lv):
            continue
        argv = ["--model", "hulthen", "--alpha", f4(alpha), "--C", f4(C)]
        if eps is not None:
            argv += ["--eps", eps]
        return argv, [(x.N, x.sigma, x.tau, x.energy) for x in lv]


def _jitter(rng, center: float, half: float) -> str:
    return f2(center + rng.uniform(-half, half))


# ---- strata -------------------------------------------------------------------


def residual_strata(rng) -> dict:
    strata = {}
    for k in (2, 3, 4, 5):
        strata[f"eckart-{k}"] = lambda k=k: ["verify", *eckart_point(rng, k)[0], "--method", "residual"]
        strata[f"pt-{k}"] = lambda k=k: ["verify", *pt_point(rng, k)[0], "--method", "residual"]
    for k in (1, 2, 3, 4):
        strata[f"hulthen-{k}"] = lambda k=k: ["verify", *hulthen_point(rng, k)[0], "--method", "residual"]
    for k in (2, 3):
        strata[f"liouville-{k}"] = lambda k=k: [
            "liouville-check", *hulthen_point(rng, k)[0][2:], "--n-samples", "100000"
        ]
    return strata


def _psi_argv(rng, model: str) -> list:
    k = int(rng.integers(2, 5))
    if model == "eckart":
        argv, lv = eckart_point(rng, k)
    elif model == "pt":
        argv, lv = pt_point(rng, k)
    else:
        argv, lv = hulthen_point(rng, k - 1, eps=f4(rng.uniform(0.4, 1.2)))
    n, sigma, tau, _ = lv[int(rng.integers(len(lv)))]
    picks = ["--N", str(n)]
    if sigma is not None:
        picks += ["--sigma", str(sigma)]
    if tau is not None and model == "pt":
        picks += ["--tau", str(tau)]
    return ["sample", "--what", "psi", *argv, *picks, "--samples", "100000"]


def _any_point(rng, model: str) -> list:
    k = int(rng.integers(2, 5))
    if model == "eckart":
        return eckart_point(rng, k)[0]
    if model == "pt":
        return pt_point(rng, k)[0]
    return hulthen_point(rng, k - 1)[0]


def export_strata(rng) -> dict:
    """Bulk output: wide sweeps, 1e5-sample CSVs and spectra of every model."""
    models = ("eckart", "pt", "hulthen")

    def sweep_eckart():
        a = float(f2(rng.uniform(2.0, 3.0)))
        return ["sweep", "--model", "eckart", "--A", f"{a:.2f}:{a + 16:.2f}:0.01",
                "--beta", f2(rng.uniform(0.2, 3.0))]

    def sweep_pt():
        a = float(f2(rng.uniform(0.2, 1.0)))
        return ["sweep", "--model", "pt", "--alpha", f"{a:.2f}:{a + 16:.2f}:0.01",
                "--beta", f2(rng.uniform(0.5, 3.0)), "--eps", f2(rng.uniform(0.2, 1.2))]

    def sweep_hulthen():
        a = float(f2(rng.uniform(0.1, 0.5)))
        return ["sweep", "--model", "hulthen", "--alpha", f"{a:.2f}:{a + 8:.2f}:0.005",
                "--C", f2(rng.uniform(-30.0, -2.0))]

    def contour(arch: list):
        return ["sample", "--what", "contour", *arch, "--eps", f4(rng.uniform(0.2, 1.2)), "--samples", "100000"]

    strata = {
        "sweep-eckart": sweep_eckart,
        "sweep-pt": sweep_pt,
        "sweep-hulthen": sweep_hulthen,
        "sample-contour-line": lambda: contour([]),
        "sample-contour-arch": lambda: contour(["--arch"]),
    }
    for model in models:
        strata[f"sample-psi-{model}"] = lambda model=model: _psi_argv(rng, model)
        strata[f"sample-potential-{model}"] = lambda model=model: [
            "sample", "--what", "potential", *_any_point(rng, model), "--samples", "100000"
        ]
        strata[f"spectrum-{model}"] = lambda model=model: [
            "spectrum", *_any_point(rng, model), "--format", ("json", "csv")[int(rng.integers(2))]
        ]
    return strata


def cli_cold_strata(rng) -> dict:
    """The README's fixture commands with small seeded parameter variations."""

    def eckart():
        return ["--model", "eckart", "--A", _jitter(rng, 3.5, 0.3), "--beta", _jitter(rng, 1.0, 0.3)]

    def pt():
        return ["--model", "pt", "--alpha", _jitter(rng, 4.3, 0.2), "--beta", _jitter(rng, 1.7, 0.2),
                "--eps", _jitter(rng, 0.5, 0.1)]

    def hulthen():
        return ["--model", "hulthen", "--alpha", _jitter(rng, 0.5, 0.05), "--C", _jitter(rng, -9.0, 0.5)]

    return {
        "spectrum-eckart": lambda: ["spectrum", *eckart()],
        "spectrum-hulthen-csv": lambda: ["spectrum", *hulthen(), "--format", "csv"],
        "verify-fd-pt": lambda: ["verify", *pt(), "--method", "fd", "--grid-n", "1500", "--grid-L", "12"],
        "verify-residual-hulthen": lambda: ["verify", *hulthen(), "--method", "residual"],
        "sample-contour": lambda: ["sample", "--what", "contour", "--arch", "--eps",
                                   _jitter(rng, 0.5, 0.1), "--samples", "1001"],
        "sample-potential": lambda: ["sample", "--what", "potential", *eckart(), "--samples", "11"],
        "sample-psi": lambda: ["sample", "--what", "psi", *pt(), "--sigma", "-1", "--tau", "-1", "--N", "2"],
        "sweep-eckart": lambda: ["sweep", "--model", "eckart", "--A", "2:4:0.5", "--beta",
                                 _jitter(rng, 1.0, 0.3)],
        "sweep-hulthen": lambda: ["sweep", "--model", "hulthen", "--alpha", "0.2:2.2:0.2", "--C",
                                  _jitter(rng, -9.0, 1.0)],
        "liouville-check": lambda: ["liouville-check", *hulthen()[2:]],
    }


def fd_point(rng, model: str, levels: int) -> list:
    """The whole family-inequality domain, without the margins above: the
    solver's failures near the edges belong in the workload."""
    while True:
        if model == "eckart":
            argv = ["--model", "eckart", "--A", f4(levels + rng.uniform(0.0, 1.0)),
                    "--beta", f4(rng.uniform(0.0, 3.0))]
        else:
            argv = ["--model", "pt", "--alpha", f4(rng.uniform(0.1, 6.0)), "--beta", f4(rng.uniform(0.1, 6.0)),
                    "--eps", f4(rng.uniform(0.2, 1.2))]
        if len(fd_expected(argv)) == levels:
            return argv


def shares(counts: dict, total: int) -> dict:
    """Split `total` draws in proportion to `counts` (largest remainder)."""
    n = sum(counts.values())
    exact = {k: total * c / n for k, c in counts.items()}
    out = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: out[k] - exact[k])[: total - sum(out.values())]:
        out[k] += 1
    return out


def fd_pool(rng) -> dict:
    """Seeded FD points at n = 1500, each with its own PTSPEC_SEED, grouped by
    model, level count and outcome at this commit (passed, a level missed
    `tol`, or refused with exit 2).  A pass draws each outcome in proportion
    to its share of the pool, so the seed moves the points but not the
    failure share."""
    strata, draws = {}, {}
    for model in ("eckart", "pt"):
        for levels in (2, 3, 4, 5):
            groups: dict = {}
            for _ in range(FD_POOL):
                argv = ["verify", *fd_point(rng, model, levels), "--method", "fd", "--grid-n", "1500", "--grid-L", "12"]
                seed = int(rng.integers(1, 2**31))
                out = run_in_process(cli.run, Request(argv=tuple(argv), ptspec_seed=seed))
                if out.crash or out.code not in FD_OUTCOMES:
                    raise SystemExit(f"unexpected outcome (exit {out.code}): {' '.join(argv)}\n{out.crash}")
                entry = {"argv": argv, "ptspec_seed": seed, "sha256": None, "levels": 0}
                groups.setdefault(f"{model}-{levels}-{FD_OUTCOMES[out.code]}", []).append(entry)
            strata.update(groups)
            draws.update(shares({k: len(v) for k, v in groups.items()}, FD_DRAWS))
    return {"workload": "fd-grid", "strata": strata, "draws": draws}


# ---- recording ------------------------------------------------------------------


def count_levels(argv: list, stdout: bytes) -> int:
    """Levels the output enumerates, verifies or samples."""
    cmd = argv[0]
    if cmd == "sample":
        return 1 if argv[argv.index("--what") + 1] == "psi" else 0
    if cmd == "sweep":
        return stdout.count(b"\n") - 1
    doc = stdout.decode()
    if cmd == "spectrum" and "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        return doc.count("\n") - 1
    data = json.loads(doc)
    return len(data["per_level"] if cmd == "liouville-check" else data["levels"])


def record(argv: list) -> dict:
    """Pool entry with the digest of what this commit prints; FD reports get none."""
    if argv[0] == "verify" and argv[argv.index("--method") + 1] == "fd":
        return {"argv": argv, "sha256": None, "levels": 0, "code": 0}
    out = run_in_process(cli.run, Request(argv=tuple(argv)))
    if out.crash:
        raise SystemExit(f"traceback at this commit: {' '.join(argv)}\n{out.crash}")
    levels = count_levels(argv, out.stdout) if out.code == 0 else 0
    return {"argv": argv, "sha256": output_digest(out.code, out.stdout), "levels": levels, "code": out.code}


def collect(draw, per: int, redrawn: list) -> list:
    """`per` entries that succeed at this commit; the others are kept in `redrawn`."""
    entries = []
    while len(entries) < per:
        entry = record(draw())
        (entries if entry.pop("code") == 0 else redrawn).append(entry)
    return entries


WARMUPS = {
    "residual-scan": ["verify", "--model", "hulthen", "--alpha", "0.5", "--C", "-9", "--method", "residual"],
    "export": ["sample", "--what", "psi", "--model", "pt", "--alpha", "4.3", "--beta", "1.7", "--eps", "0.5",
               "--sigma", "-1", "--tau", "-1", "--N", "2"],
    "cli-cold": ["spectrum", "--model", "eckart", "--A", "3.5", "--beta", "1.0"],
}


def _write(name: str, pool: dict) -> None:
    with open(POOL_DIR / f"{name}.json", "w") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")


def main() -> None:
    makers = {"residual-scan": (residual_strata, 12), "export": (export_strata, 8), "cli-cold": (cli_cold_strata, 12)}
    POOL_DIR.mkdir(exist_ok=True)
    only = sys.argv[1:]
    if not only or "fd-grid" in only:
        pool = fd_pool(np.random.default_rng([POOL_SEED, len(makers)]))
        _write("fd-grid", pool)
        print(f"fd-grid: draws per pass {pool['draws']}")
    for i, (name, (make, per)) in enumerate(makers.items()):
        if only and name not in only:
            continue
        rng = np.random.default_rng([POOL_SEED, i])
        redrawn: list = []
        strata = {k: collect(draw, per, redrawn) for k, draw in make(rng).items()}
        warmup = record(WARMUPS[name])
        warmup.pop("code")
        _write(name, {"workload": name, "warmup": warmup, "strata": strata, "redrawn": redrawn})
        print(f"{name}: {sum(len(v) for v in strata.values())} entries in {len(strata)} strata, "
              f"{len(redrawn)} redrawn")


if __name__ == "__main__":
    main()
