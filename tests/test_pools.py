"""What the benchmark in ``bench/`` relies on, checked without running it.

* Pool replay: every digest entry of the ``residual-scan`` and ``cli-cold``
  pools, and of the ``export`` pool's ``spectrum-*`` and ``sweep-*`` strata
  (the enumerators' JSON and CSV bytes), replayed in process with its
  PTSPEC_SEED, must print the bytes the pool recorded, and every FD entry of
  the ``fd-grid`` and ``cli-cold`` pools must exit with the code it exits with
  today and print the same report.  A benchmark run counts a moved digest as a
  failed request, and an FD request's exit code is what its failure share
  counts; the pools record no digest for FD reports, so one SHA-256 over all
  of them is pinned here.  (The export pool's ``sample-*`` strata take about
  half a minute in process, so they are replayed by hand, not here.)
* The tracing table: every ``(module, function)`` that ``bench/tracing.py``
  wraps must exist, and the arguments its facts read by position must still
  be the points arguments.  A renamed or reordered function would otherwise
  leave a per-layer metric at 0 without any error, and so would a command that
  calls a path around its traced function (a traced ``liouville-check`` must
  show its one identity span).

Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptspec.cli import run
from ptspec.contour import ArchChart, ArchContour, Chart, ShiftedLine
from ptspec.spectra import spectrum_of

from helpers import ECKART_FIXTURE, HULTHEN_FIXTURE, PT_FIXTURE

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"

#: exit codes of the fd-grid pool's entries, strata in sorted order: 111 pass (0),
#: 79 fail a level (1) and 2 are refused (2)
FD_GRID_CODES = (
    "111111111111000000000000111111111000000000000002111111111111110000110000010100111211111111100111"
    "110000000000000000000000111000000000000000000000111111000000000000001000111111110000000100101101"
)

#: SHA-256 over ``b"%d\n" % code + stdout`` of the FD entries in the same order, recorded
#: on a 2-vCPU x86-64 Xeon with numpy 2.4.6's bundled OpenBLAS; another LAPACK build
#: may move the last digits of a report
FD_GRID_DIGEST = "05919e2dceaf88930bc057061b212393faed5104e7d7d878995d910f8414731d"
CLI_COLD_FD_DIGEST = "744c6e5dacaaf42138acecc337ef6bdc79553f4bc34ab4f7a210c684ca63b36b"

#: SHA-256 over ``b"%d\n" % code + stdout`` of the fd-grid workload's 8 fixture reports
#: (Eckart (3.5, 1), then PT (4.3, 1.7, 0.5), at n = 1500, 6000, 24000, 48000 with L = 12 and
#: no PTSPEC_SEED), recorded as FD_GRID_DIGEST was, with one BLAS thread as ``bench/run.py``
#: runs them: on the n >= 24000 grids OpenBLAS splits the norms' and Rayleigh quotients'
#: dot products across its threads, and the split moves last digits
FD_FIXTURE_DIGEST = "9905dbdf39264dda141e5cee1f0054562fa673527266f89bed59b45cf61a3d07"
FD_FIXTURES = (
    ("--model", "eckart", "--A", "3.5", "--beta", "1.0"),
    ("--model", "pt", "--alpha", "4.3", "--beta", "1.7", "--eps", "0.5"),
)

#: prints ``b"%d\n" % code + stdout`` of ``cli.run`` for each argv in the JSON list argv[1]
_REPORTS_CHILD = """
import contextlib, io, json, sys
from ptspec.cli import run
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    sys.stdout.buffer.write(b"%d\\n" % code + out.getvalue().encode())
"""


def _pool(name: str) -> dict:
    return json.loads((BENCH / "pools" / f"{name}.json").read_text())


def _replay(entry, monkeypatch, capsys) -> tuple:
    """Exit code and stdout bytes of one pool entry, run with its PTSPEC_SEED."""
    monkeypatch.delenv("PTSPEC_SEED", raising=False)
    if entry.get("ptspec_seed") is not None:
        monkeypatch.setenv("PTSPEC_SEED", str(entry["ptspec_seed"]))
    code = run(list(entry["argv"]))
    return code, capsys.readouterr().out.encode()


def _digest_strata():
    for name, prefixes in (("residual-scan", ("",)), ("cli-cold", ("",)), ("export", ("spectrum-", "sweep-"))):
        for stratum, entries in sorted(_pool(name)["strata"].items()):
            if entries[0]["sha256"] is not None and stratum.startswith(prefixes):
                yield pytest.param(entries, id=f"{name}/{stratum}")


@pytest.mark.parametrize("entries", _digest_strata())
def test_pool_entry_prints_its_recorded_bytes(entries, capsys, monkeypatch):
    for i, entry in enumerate(entries):
        code, stdout = _replay(entry, monkeypatch, capsys)
        assert hashlib.sha256(b"%d\n" % code + stdout).hexdigest() == entry["sha256"], f"entry {i}: {entry['argv']}"


@pytest.mark.parametrize(
    "name, codes, digest",
    [
        pytest.param("fd-grid", FD_GRID_CODES, FD_GRID_DIGEST, id="fd-grid"),
        pytest.param("cli-cold", "0" * 12, CLI_COLD_FD_DIGEST, id="cli-cold"),
    ],
)
def test_fd_pool_entries_keep_their_exit_codes(name, codes, digest, capsys, monkeypatch):
    entries = [e for _, es in sorted(_pool(name)["strata"].items()) for e in es if e["sha256"] is None]
    replies = [_replay(e, monkeypatch, capsys) for e in entries]
    assert "".join(str(code) for code, _ in replies) == codes
    assert hashlib.sha256(b"".join(b"%d\n" % code + out for code, out in replies)).hexdigest() == digest


def test_fd_fixture_reports_keep_their_bytes_on_fine_grids():
    """From n = 16384 (256 KiB) on, numpy may compute an expression in place of a
    temporary with the operands swapped, so these grids pin what n = 1500 cannot."""
    argvs = [
        ["verify", *model, "--method", "fd", "--grid-n", str(n), "--grid-L", "12"]
        for n in (1500, 6000, 24000, 48000)
        for model in FD_FIXTURES
    ]
    env = {k: v for k, v in os.environ.items() if k != "PTSPEC_SEED"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _REPORTS_CHILD, json.dumps(argvs)], env=env, capture_output=True, check=True
    )
    assert child.stdout.count(b"0\n{") == len(argvs)
    assert hashlib.sha256(child.stdout).hexdigest() == FD_FIXTURE_DIGEST


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_function_exists(tracing):
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


_N_POINTS = 7


def _points_calls(points, arch_points):
    """A call with _N_POINTS points for every function whose facts count points;
    ``points`` makes the shifted-line points (plain or a Chart), ``arch_points``
    the arch points (plain or an ArchChart)."""
    t = np.linspace(-3.0, 3.0, _N_POINTS)
    line, arch = ShiftedLine(0.5), ArchContour(0.5)
    eck, pt, hul = (spectrum_of(p).levels[0] for p in (ECKART_FIXTURE, PT_FIXTURE, HULTHEN_FIXTURE))
    return {
        "eckart_psi": (ECKART_FIXTURE, eck, points(line.point(t))),
        "eckart_psi_second_branch": (ECKART_FIXTURE, eck, points(line.point(t))),
        "pt_psi": (PT_FIXTURE, pt, points(line.point(t))),
        "pt_psi_second_branch": (PT_FIXTURE, pt, points(line.point(t))),
        "hulthen_psi": (HULTHEN_FIXTURE, hul, arch_points(arch.point(t)), 0.5),
        "level_samples": (HULTHEN_FIXTURE, hul, arch, t),
        "v_eckart": (ECKART_FIXTURE, points(line.point(t))),
        "v_pt": (PT_FIXTURE, points(line.point(t))),
        "v_hulthen": (HULTHEN_FIXTURE, arch_points(arch.point(t))),
    }


def test_traced_points_arguments_are_the_points(tracing):
    counted = {
        (module, name): span for (module, name), span in tracing.TRACED.items()
        if span in ("wavefun.psi", "wavefun.level_samples", "models.potential")
    }
    for points, arch_points in ((np.asarray, np.asarray), (Chart, ArchChart)):
        calls = _points_calls(points, arch_points)
        assert {name for _, name in counted} == set(calls)
        for (module, name), span in counted.items():
            tracer = tracing.Tracer()
            tracer.wrap(span, getattr(importlib.import_module(module), name))(*calls[name])
            assert tracer.spans[0].facts == {"points": _N_POINTS}, f"{module}.{name} on {points.__name__}"


def test_traced_liouville_check_runs_one_identity_check(tracing, capsys):
    """A traced 1e5-sample ``liouville-check`` shows its work as one identity span, which
    checks no level it has just enumerated itself."""
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        code = run(["liouville-check", "--alpha", "1.7491", "--C", "-20.8404", "--n-samples", "100000"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["per_level"]) == 3
    names = [span.name for span in tracer.spans]
    assert names.count("liouville.identity") == 1
    assert "spectra.check_level" not in names
