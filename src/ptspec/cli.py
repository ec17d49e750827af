"""Command-line interface.

Subcommands: spectrum, verify, sample, sweep, liouville-check.
Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import oracle
from .contour import ArchContour, ShiftedLine
from .errors import PtspecError
from .liouville import verify_hulthen_identity
from .models import MODELS, HulthenParams, potential_fn
from .spectra import family_key, hulthen_levels, spectrum_of, spectrum_to_csv, spectrum_to_json
from .wavefun import level_samples, residual_check

RESIDUAL_H = 1e-3


def _fmt(x: float) -> str:
    return repr(float(x))


def _seed() -> int:
    raw = os.environ.get("PTSPEC_SEED")
    if raw is None:
        return oracle.DEFAULT_SEED
    return int(raw)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset options from --config JSON; explicit flags win."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, val)


def _resolve(args, name, default):
    val = getattr(args, name, None)
    return default if val is None else val


def _kind(name):
    kind = MODELS.get(name)
    if kind is None:
        raise ValueError(f"unknown model {name!r}")
    return kind


def _model_from_args(args) -> tuple:
    """The table row of ``--model`` and the parameter record built from the flags."""
    kind = _kind(args.model)
    a, b = (getattr(args, f) for f in kind.flags)
    if a is None or b is None:
        raise ValueError(f"{kind.name} needs --{kind.flags[0]} and --{kind.flags[1]}")
    return kind, kind.build(float(a), float(b), float(_resolve(args, "eps", 0.5)))


# ---- subcommands ------------------------------------------------------------


def cmd_spectrum(args) -> int:
    _, model = _model_from_args(args)
    spectrum = spectrum_of(model)
    fmt = _resolve(args, "format", "json")
    text = spectrum_to_json(spectrum) + "\n" if fmt == "json" else spectrum_to_csv(spectrum)
    _write(text, args.out)
    if not spectrum.levels:
        print("note: all families empty", file=sys.stderr)
    for note in spectrum.notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    kind, model = _model_from_args(args)
    method = _resolve(args, "method", "fd")
    eps = float(_resolve(args, "eps", 0.5))
    spectrum = spectrum_of(model)

    if method == "fd":
        if kind.on_arch:
            raise ValueError("finite differences run on the shifted line; use --method residual")
        tol = float(_resolve(args, "tol", 1e-2))
        grid = oracle.GridSpec(
            L=float(_resolve(args, "grid_L", 12.0)), n=int(_resolve(args, "grid_n", 1500))
        )
        contour = ShiftedLine(epsilon=eps, L=grid.L)
        opr = oracle.discretize(model, contour, grid)
        report = oracle.match_levels(spectrum, opr, tol=tol, seed=_seed())
        _write(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
        return 0 if report.all_passed else 1

    if method == "residual":
        tol = float(_resolve(args, "tol", 1e-6))
        window = float(_resolve(args, "grid_L", kind.residual_window))
        contour = kind.contour(epsilon=eps, L=window)
        t = np.arange(-window, window + RESIDUAL_H / 2, RESIDUAL_H)
        v = potential_fn(model)
        rows = []
        for lv in spectrum.levels:
            res = residual_check(v, lv.energy, level_samples(model, lv, contour, t), contour)
            rows.append(
                {
                    "N": lv.N,
                    "sigma": lv.sigma,
                    "tau": lv.tau,
                    "energy": lv.energy,
                    "residual": res,
                    "passed": bool(res < tol),
                }
            )
        out = {
            "model": spectrum.model,
            "params": dict(spectrum.params),
            "method": "residual",
            "tol": tol,
            "tol_source": oracle.TOL_SOURCE,
            "grid": {"window": window, "h": RESIDUAL_H},
            "levels": rows,
            "all_passed": all(r["passed"] for r in rows),
        }
        _write(json.dumps(out, indent=2) + "\n", args.out)
        return 0 if out["all_passed"] else 1

    raise ValueError(f"unknown method {method!r}")


def _csv_lines(header: str, rows) -> str:
    return "\n".join([header] + rows) + "\n"


def cmd_sample(args) -> int:
    what = args.what
    eps = float(_resolve(args, "eps", 0.5))
    n_samples = int(_resolve(args, "samples", 1001))

    if what == "contour":
        shape = ArchContour if getattr(args, "arch", False) else ShiftedLine
        L = float(_resolve(args, "L", shape.L))
        contour = shape(eps, L)
        t = np.linspace(-L, L, n_samples)
        xi = contour.point(t)
        rows = [f"{_fmt(a)},{_fmt(x.real)},{_fmt(x.imag)}" for a, x in zip(t, xi)]
        _write(_csv_lines("t,ReXi,ImXi", rows), args.out)
        return 0

    kind, model = _model_from_args(args)
    L = float(_resolve(args, "L", kind.contour.L))
    contour = kind.contour(eps, L)
    t = np.linspace(-L, L, n_samples)

    if what == "potential":
        vals = potential_fn(model)(contour.point(t))
        rows = [f"{_fmt(a)},{_fmt(v.real)},{_fmt(v.imag)}" for a, v in zip(t, vals)]
        _write(_csv_lines("t,ReV,ImV", rows), args.out)
        return 0

    if what == "psi":
        if args.N is None:
            raise ValueError("sample --what psi needs --N")
        want = {
            "sigma": None if args.sigma is None else int(args.sigma),
            "tau": None if args.tau is None else int(args.tau),
            "N": int(args.N),
        }
        level = spectrum_of(model).find(**{k: want[k] for k in kind.level_key})
        if level is None:
            raise ValueError(f"no such level: sigma={args.sigma} tau={args.tau} N={args.N}")
        t, xi, psi = level_samples(model, level, contour, t)
        rows = [
            f"{_fmt(a)},{_fmt(x.real)},{_fmt(x.imag)},"
            f"{_fmt(p.real)},{_fmt(p.imag)},{_fmt(abs(p))}"
            for a, x, p in zip(t, xi, psi)
        ]
        _write(_csv_lines("t,ReXi,ImXi,RePsi,ImPsi,AbsPsi", rows), args.out)
        return 0

    raise ValueError(f"unknown --what {what!r}")


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("range step must be positive")
    count = int(np.floor((stop - start) / step + 1e-9))
    if count < 0:
        raise ValueError(f"empty range {text!r}")
    return [start + k * step for k in range(count + 1)]


def cmd_sweep(args) -> int:
    kind = _kind(args.model)
    swept = [f for f in kind.flags if getattr(args, f) is not None and ":" in str(getattr(args, f))]
    if len(swept) != 1:
        raise ValueError("give exactly one parameter as start:stop:step")
    sweep_flag = swept[0]
    values = _parse_range(str(getattr(args, sweep_flag)))
    fixed = {}
    for f in kind.flags:
        if f != sweep_flag:
            if getattr(args, f) is None:
                raise ValueError(f"sweep needs a fixed value for --{f}")
            fixed[f] = float(getattr(args, f))
    eps = float(_resolve(args, "eps", 0.5))

    rows = []
    for value in values:
        kw = dict(fixed, **{sweep_flag: value})
        spectrum = spectrum_of(kind.build(*(kw[f] for f in kind.flags), eps))
        for lv in spectrum.levels:
            s = 0 if lv.sigma is None else lv.sigma
            tau = 0 if lv.tau is None else lv.tau
            count = spectrum.family_counts.get(family_key(lv.sigma, lv.tau), 0)
            rows.append(f"{_fmt(value)},{s},{tau},{lv.N},{_fmt(lv.energy)},{count}")
    _write(_csv_lines("value,sigma,tau,N,energy,family_count", rows), args.out)
    return 0


def cmd_liouville_check(args) -> int:
    if args.alpha is None or args.C is None:
        raise ValueError("liouville-check needs --alpha and --C")
    alpha = float(args.alpha)
    c_val = float(args.C)
    eps = float(_resolve(args, "eps", 0.5))
    n_samples = int(_resolve(args, "n_samples", 100))
    tol = float(_resolve(args, "tol", 1e-9))

    spectrum = hulthen_levels(HulthenParams(alpha, c_val))
    per_level = []
    for lv in spectrum.levels:
        dev = verify_hulthen_identity(alpha, c_val, lv, n_samples=n_samples, epsilon=eps)
        per_level.append(
            {
                "sigma": lv.sigma,
                "n": lv.N,
                "tau": lv.tau,
                "beta_eff": lv.internal["beta_eff"].real,
                "kappa": lv.internal["kappa"].real,
                "max_deviation": dev,
            }
        )
    max_dev = max((p["max_deviation"] for p in per_level), default=0.0)
    out = {
        "alpha": alpha,
        "C": c_val,
        "epsilon": eps,
        "n_samples": n_samples,
        "tol": tol,
        "per_level": per_level,
        "max_deviation": max_dev,
        "passed": bool(max_dev < tol),
    }
    _write(json.dumps(out, indent=2) + "\n", args.out)
    return 0 if out["passed"] else 1


# ---- parser ----------------------------------------------------------------


def _add_model_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", choices=("eckart", "pt", "hulthen"))
    sp.add_argument("--A", type=float, default=None, help="eckart well strength")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--C", type=float, default=None, help="hulthen combination A + B")
    sp.add_argument("--eps", type=float, default=None, help="contour shift in (0, pi/2)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ptspec", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form bound-state spectrum")
    _add_model_options(sp)
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("verify", help="independent numerical check of the spectrum")
    _add_model_options(sp)
    sp.add_argument("--method", choices=("fd", "residual"), default=None)
    sp.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    sp.add_argument("--grid-L", type=float, default=None, dest="grid_L")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sample", help="CSV samples of contours, potentials, eigenfunctions")
    _add_model_options(sp)
    sp.add_argument("--what", choices=("potential", "psi", "contour"), required=True)
    sp.add_argument("--arch", action="store_true", help="sample the arch contour")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--sigma", type=int, choices=(-1, 1), default=None)
    sp.add_argument("--tau", type=int, choices=(-1, 1), default=None)
    sp.add_argument("--L", type=float, default=None, help="half-width of the t window")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("sweep", help="spectrum across a parameter range")
    sp.add_argument("--model", choices=("eckart", "pt", "hulthen"), required=True)
    sp.add_argument("--A", type=str, default=None)
    sp.add_argument("--alpha", type=str, default=None)
    sp.add_argument("--beta", type=str, default=None)
    sp.add_argument("--C", type=str, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("liouville-check", help="transform identity across all levels")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--C", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--n-samples", type=int, default=None, dest="n_samples")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=cmd_liouville_check)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _merge_config(args)
        return args.fn(args)
    except (PtspecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
