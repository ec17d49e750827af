"""Command-line interface.

Subcommands: spectrum, verify, sample, sweep, liouville-check.
Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys

import numpy as np

from . import oracle
from .contour import ArchContour, SampledContour, ShiftedLine
from .errors import PtspecError
from .liouville import verify_hulthen_identity
from .models import MODELS, potential_fn
from .spectra import csv_text, family_key, level_of, spectrum_of, spectrum_to_csv, spectrum_to_json
from .wavefun import level_samples, residual_check

RESIDUAL_H = 1e-3

#: most values one ``sweep`` range may expand to, and most points of any sample grid
MAX_SWEEP_VALUES = 1_000_000


def _seed() -> int:
    return int(os.environ.get("PTSPEC_SEED", oracle.DEFAULT_SEED))


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(doc: dict, passed: bool, out: str | None) -> int:
    """Write a JSON report; exit 0 if its check passed, 1 if it failed."""
    _write(json.dumps(doc, indent=2) + "\n", out)
    return 0 if passed else 1


def _config_value(action: argparse.Action, key: str, val):
    """A --config value as the option's flag would give it: a JSON string is
    read as the flag's text, a JSON number must suit the option's type."""
    kind = action.type or str
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    try:
        if not (isinstance(val, str) or number and (kind is not int or isinstance(val, int))):
            raise ValueError
        out = kind(val)
    except (ValueError, OverflowError):  # OverflowError: an integer too large for a float
        raise ValueError(f"config key {key!r}: {reprlib.repr(val)} is not a valid {kind.__name__}") from None
    if action.choices is not None and out not in action.choices:
        raise ValueError(f"config key {key!r}: {out!r} is not one of {', '.join(map(str, action.choices))}")
    return out


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset options from --config JSON; explicit flags win, and keys that
    name no option of the subcommand, or hold null, are ignored."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    options = _OPTIONS[args.command]
    for key, val in cfg.items():
        action = options.get(key.replace("-", "_"))
        if action is not None and val is not None and getattr(args, action.dest) is None:
            setattr(args, action.dest, _config_value(action, key, val))


def _check_points(option: str, count: float) -> None:
    """ValueError naming ``option`` if its grid would exceed MAX_SWEEP_VALUES points."""
    if not count <= MAX_SWEEP_VALUES:
        raise ValueError(f"{option} asks for {count:.0f} points; at most {MAX_SWEEP_VALUES} are allowed")


def _check_window(option: str, half_width: float) -> float:
    """``half_width``; ValueError naming ``option`` unless it is a positive finite half-width."""
    if not 0.0 < half_width < math.inf:
        raise ValueError(f"{option} must be a positive finite half-width, got {half_width}")
    return half_width


def _resolve(args, name, default):
    val = getattr(args, name, None)
    return default if val is None else val


def _tol(args, default: float) -> float:
    """``--tol`` (from the flag, --config or ``default``); ValueError unless it is finite and positive."""
    tol = float(_resolve(args, "tol", default))
    if not math.isfinite(tol):
        raise ValueError(f"--tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError(f"--tol must be positive, got {tol}")
    return tol


def _model_from_args(args, **override) -> tuple:
    """The table row of ``--model`` and the parameter record built from the flags;
    ``override`` replaces a flag's value (``sweep`` passes its points this way)."""
    kind = MODELS.get(args.model)
    if kind is None:
        raise ValueError(f"unknown model {args.model!r}")
    a, b = (override.get(f, getattr(args, f)) for f in kind.flags)
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
        tol = _tol(args, 1e-2)
        n = int(_resolve(args, "grid_n", 1500))
        _check_points("--grid-n", n)
        grid = oracle.GridSpec(L=_check_window("--grid-L", float(_resolve(args, "grid_L", 12.0))), n=n)
        opr = oracle.discretize(model, ShiftedLine(epsilon=eps, L=grid.L), grid)
        doc = oracle.match_levels(spectrum, opr, tol=tol, seed=_seed())
    elif method == "residual":
        tol = _tol(args, 1e-6)
        window = _check_window("--grid-L", float(_resolve(args, "grid_L", kind.residual_window)))
        contour = kind.contour(epsilon=eps, L=window)
        _check_points("--grid-L", 2 * window / RESIDUAL_H + 1)
        t = np.arange(-window, window + RESIDUAL_H / 2, RESIDUAL_H)
        samples = SampledContour(contour, t, potential_fn(model))
        rows = []
        for lv in spectrum.levels:
            _, _, psi = level_samples(model, lv, contour, samples)
            res = residual_check(samples, lv.energy, psi)
            rows.append(lv.row(energy=lv.energy, residual=res, passed=bool(res < tol)))
        doc = {
            "model": spectrum.model,
            "params": dict(spectrum.params),
            "method": "residual",
            "tol": tol,
            "tol_source": oracle.TOL_SOURCE,
            "grid": {"window": window, "h": RESIDUAL_H},
            "levels": rows,
            "all_passed": all(r["passed"] for r in rows),
        }
    else:
        raise ValueError(f"unknown method {method!r}")
    return _report(doc, doc["all_passed"], args.out)


def cmd_sample(args) -> int:
    n_samples = int(_resolve(args, "samples", 1001))

    if args.what == "contour":
        shape, potential = ArchContour if args.arch else ShiftedLine, None
    else:
        kind, model = _model_from_args(args)
        shape, potential = kind.contour, potential_fn(model)
    L = _check_window("--L", float(_resolve(args, "L", shape.L)))
    contour = shape(float(_resolve(args, "eps", 0.5)), L)
    _check_points("--samples", n_samples)
    samples = SampledContour(contour, np.linspace(-L, L, n_samples), potential)

    if args.what == "psi":
        if args.N is None:
            raise ValueError("sample --what psi needs --N")
        level = level_of(model, **{k: getattr(args, k) for k in kind.level_key})
        if level is None:
            raise ValueError(f"no such level: sigma={args.sigma} tau={args.tau} N={args.N}")
        t, xi, psi = level_samples(model, level, contour, samples)
        # abs() per element: numpy's vectorised abs can differ in the last digit
        columns = (t, xi.real, xi.imag, psi.real, psi.imag, [abs(p) for p in psi])
        text = csv_text("t,ReXi,ImXi,RePsi,ImPsi,AbsPsi", columns)
    else:
        z, name = (samples.xi, "Xi") if args.what == "contour" else (samples.v, "V")
        text = csv_text(f"t,Re{name},Im{name}", (samples.t, z.real, z.imag))
    _write(text, args.out)
    return 0


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("range step must be positive")
    count = np.floor((stop - start) / step + 1e-9)
    if count < 0:
        raise ValueError(f"empty range {text!r}")
    if not count < MAX_SWEEP_VALUES:
        raise ValueError(f"range {text!r} must give at most {MAX_SWEEP_VALUES} values")
    return [start + k * step for k in range(int(count) + 1)]


def cmd_sweep(args) -> int:
    kind = MODELS[args.model]
    swept = [f for f in kind.flags if getattr(args, f) is not None and ":" in str(getattr(args, f))]
    if len(swept) != 1:
        raise ValueError("give exactly one parameter as start:stop:step")
    flag = swept[0]
    rows = []
    for value in _parse_range(str(getattr(args, flag))):
        spectrum = spectrum_of(_model_from_args(args, **{flag: value})[1])
        for lv in spectrum.levels:
            count = spectrum.family_counts.get(family_key(lv.sigma, lv.tau), 0)
            rows.append((value, lv.sigma or 0, lv.tau or 0, lv.N, lv.energy, count))
    _write(csv_text("value,sigma,tau,N,energy,family_count", zip(*rows)), args.out)
    return 0


def cmd_liouville_check(args) -> int:
    _, model = _model_from_args(args)
    eps = float(_resolve(args, "eps", 0.5))
    n_samples = int(_resolve(args, "n_samples", 100))
    if n_samples < 1:
        raise ValueError(f"--n-samples must be at least 1, got {n_samples}")
    _check_points("--n-samples", n_samples)
    tol = _tol(args, 1e-9)

    t = np.linspace(-10.0, 10.0, n_samples)
    per_level = [
        {
            "sigma": lv.sigma,
            "n": lv.N,
            "tau": lv.tau,
            "beta_eff": lv.internal["beta_eff"].real,
            "kappa": lv.internal["kappa"].real,
            "max_deviation": dev,
        }
        for lv, dev in verify_hulthen_identity(model, ArchContour(eps), t)
    ]
    max_dev = max((p["max_deviation"] for p in per_level), default=0.0)
    doc = {
        "alpha": model.alpha,
        "C": model.C,
        "epsilon": eps,
        "n_samples": n_samples,
        "tol": tol,
        "per_level": per_level,
        "max_deviation": max_dev,
        "passed": bool(max_dev < tol),
    }
    return _report(doc, doc["passed"], args.out)


# ---- parser ----------------------------------------------------------------

_FLAG_HELP = {"A": "eckart well strength", "C": "hulthen combination A + B"}


def _subcommand(sub, name: str, fn, help: str, flag_type=float, model: str | None = None):
    """A subparser with ``--model``, the parameter flags and ``--eps``.  ``model`` fixes
    the model and keeps its own flags; ``flag_type=str`` (``sweep``) makes ``--model``
    required and the flags ``start:stop:step`` ranges."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(fn=fn)
    if model:
        sp.set_defaults(model=model)
    else:
        sp.add_argument("--model", choices=tuple(MODELS), required=flag_type is str)
    for flag in MODELS[model].flags if model else ("A", "alpha", "beta", "C"):
        sp.add_argument(f"--{flag}", type=flag_type, default=None, help=_FLAG_HELP.get(flag))
    sp.add_argument("--eps", type=float, default=None, help="contour shift in (0, pi/2)")
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ptspec", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "spectrum", cmd_spectrum, "closed-form bound-state spectrum")
    sp.add_argument("--format", choices=("json", "csv"), default=None)

    sp = _subcommand(sub, "verify", cmd_verify, "independent numerical check of the spectrum")
    sp.add_argument("--method", choices=("fd", "residual"), default=None)
    sp.add_argument("--grid-n", type=int, default=None, dest="grid_n")
    sp.add_argument("--grid-L", type=float, default=None, dest="grid_L")
    sp.add_argument("--tol", type=float, default=None)

    sp = _subcommand(sub, "sample", cmd_sample,
                     "CSV samples of contours, potentials, eigenfunctions")
    sp.add_argument("--what", choices=("potential", "psi", "contour"), required=True)
    sp.add_argument("--arch", action="store_true", help="sample the arch contour")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--sigma", type=int, choices=(-1, 1), default=None)
    sp.add_argument("--tau", type=int, choices=(-1, 1), default=None)
    sp.add_argument("--L", type=float, default=None, help="half-width of the t window")
    sp.add_argument("--samples", type=int, default=None)

    _subcommand(sub, "sweep", cmd_sweep, "spectrum across a parameter range", flag_type=str)

    sp = _subcommand(sub, "liouville-check", cmd_liouville_check,
                     "transform identity across all levels", model="hulthen")
    sp.add_argument("--n-samples", type=int, default=None, dest="n_samples")
    sp.add_argument("--tol", type=float, default=None)

    for sp in sub.choices.values():  # added last, so they stay last in --help
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None)
    return ap


#: built once per process; parsing leaves it unchanged, and --config fills
#: only the namespace of its own call
_PARSER = build_parser()
#: each subcommand's options by dest, for checking --config values
_OPTIONS = {
    name: {a.dest: a for a in sp._actions if a.option_strings}
    for name, sp in next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices.items()
}


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _merge_config(args)
        return args.fn(args)
    except (PtspecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an input no check foresaw: still exit 2, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


main = run

if __name__ == "__main__":
    sys.exit(main())
