"""Running one request, in process or as a ``python -m ptspec`` child, and
checking what it printed."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

from workloads import Request, output_digest


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: str
    #: text of an exception that escaped ``cli.run`` (a traceback in a child)
    crash: str | None = None


@dataclass
class Verdict:
    #: the request failed: non-zero exit, a traceback, or a wrong output
    failed: bool
    #: the output contradicts its check (wrong digest, inconsistent FD report, traceback)
    wrong: bool
    #: levels verified, enumerated or sampled by a successful request
    levels: int
    reason: str = ""


@contextlib.contextmanager
def ptspec_seed_env(seed: int | None):
    old = os.environ.pop("PTSPEC_SEED", None)
    if seed is not None:
        os.environ["PTSPEC_SEED"] = str(seed)
    try:
        yield
    finally:
        os.environ.pop("PTSPEC_SEED", None)
        if old is not None:
            os.environ["PTSPEC_SEED"] = old


def run_in_process(run, req: Request) -> Outcome:
    """Call ``run(argv)`` (``ptspec.cli.run`` or a traced stand-in) capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with ptspec_seed_env(req.ptspec_seed), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(req.argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the benchmark must keep going and report it
            code, crash = 1, f"{type(exc).__name__}: {exc}"
    return Outcome(int(code), out.getvalue().encode(), err.getvalue(), crash)


def child_env(src: str, ptspec_seed: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PTSPEC_SEED", None)
    if ptspec_seed is not None:
        env["PTSPEC_SEED"] = str(ptspec_seed)
    return env


def run_child(cmd: list, env: dict, cwd: str) -> Outcome:
    """One child process, waited for; at most one runs at a time."""
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, timeout=120)
    err = proc.stderr.decode(errors="replace")
    crash = err if "Traceback (most recent call last)" in err else None
    return Outcome(proc.returncode, proc.stdout, err, crash)


def run_subprocess(src: str, cwd: str, req: Request) -> Outcome:
    cmd = [sys.executable, "-m", "ptspec", *req.argv]
    return run_child(cmd, child_env(src, req.ptspec_seed), cwd)


def check(req: Request, out: Outcome) -> Verdict:
    if out.crash is not None:
        return Verdict(True, True, 0, reason=f"traceback: {out.crash.strip().splitlines()[-1]}")
    if req.sha256 is not None:
        if output_digest(out.code, out.stdout) != req.sha256:
            return Verdict(True, True, 0, reason=f"digest mismatch (exit {out.code})")
        return Verdict(out.code != 0, False, req.levels if out.code == 0 else 0)
    return check_fd(req, out)


def check_fd(req: Request, out: Outcome) -> Verdict:
    """FD reports get no digest: the solver's numbers are meant to change.

    Every closed-form level must be present with its energy, ``passed`` must
    agree with ``abs_delta``, ``im_abs`` and ``tol``, and the exit code with
    ``all_passed``.  Exit 2 with a clean error line is a refusal: failed,
    but not a wrong output.
    """
    if out.code == 2:
        clean = not out.stdout and out.stderr.startswith("error:")
        if not clean:
            return Verdict(True, True, 0, reason="exit 2 without a clean error line")
        return Verdict(True, False, 0, reason=out.stderr.strip())
    if out.code not in (0, 1):
        return Verdict(True, True, 0, reason=f"exit {out.code}")
    try:
        report = json.loads(out.stdout)
        rows = report["levels"]
        tol = float(report["tol"])
        got = [(r["N"], r["sigma"], r["tau"], r["energy_analytic"]) for r in rows]
        consistent = all(
            math.isclose(r["abs_delta"], abs(complex(*r["energy_numeric"]) - r["energy_analytic"]),
                         rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(r["im_abs"], abs(r["energy_numeric"][1]), rel_tol=1e-12, abs_tol=0.0)
            and r["passed"] == (r["abs_delta"] < tol and r["im_abs"] < tol)
            for r in rows
        )
        all_passed = report["all_passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(True, True, 0, reason=f"unreadable FD report: {exc}")
    want = {e[:3]: e[3] for e in req.expect}
    have = {g[:3]: g[3] for g in got}
    same_levels = len(got) == len(want) and have.keys() == want.keys() and all(
        math.isclose(have[k], want[k], rel_tol=1e-12, abs_tol=1e-12) for k in want
    )
    if not same_levels:
        return Verdict(True, True, 0, reason="closed-form levels missing or moved")
    if not consistent or all_passed != all(r["passed"] for r in rows):
        return Verdict(True, True, 0, reason="passed flags disagree with abs_delta and tol")
    if (out.code == 0) != bool(all_passed):
        return Verdict(True, True, 0, reason=f"exit {out.code} disagrees with all_passed={all_passed}")
    reason = "" if all_passed else "a level missed its tolerance"
    return Verdict(out.code != 0, False, len(rows), reason=reason)
