"""What the benchmark in ``bench/`` relies on, checked without running it.

* Pool digests: the first entry of every digest-carrying stratum of the
  ``residual-scan`` and ``cli-cold`` pools, replayed in process with its
  PTSPEC_SEED, must print the bytes the pool recorded.  These are the outputs
  a benchmark run counts as failed when they move.
* The tracing table: every ``(module, function)`` that ``bench/tracing.py``
  wraps must exist, and the arguments its facts read by position must still
  be the points arguments.  A renamed or reordered function would otherwise
  leave a per-layer metric at 0 without any error.

Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ptspec.cli import run
from ptspec.contour import ArchContour, ShiftedLine
from ptspec.spectra import spectrum_of

from helpers import ECKART_FIXTURE, HULTHEN_FIXTURE, PT_FIXTURE

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _first_digest_entries():
    for name in ("residual-scan", "cli-cold"):
        pool = json.loads((BENCH / "pools" / f"{name}.json").read_text())
        for stratum, entries in sorted(pool["strata"].items()):
            if entries[0]["sha256"] is not None:
                yield pytest.param(entries[0], id=f"{name}/{stratum}")


@pytest.mark.parametrize("entry", _first_digest_entries())
def test_pool_entry_prints_its_recorded_bytes(entry, capsys, monkeypatch):
    monkeypatch.delenv("PTSPEC_SEED", raising=False)
    if entry.get("ptspec_seed") is not None:
        monkeypatch.setenv("PTSPEC_SEED", str(entry["ptspec_seed"]))
    code = run(list(entry["argv"]))
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(b"%d\n" % code + stdout).hexdigest() == entry["sha256"]


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


def _points_calls():
    """A call with _N_POINTS points for every function whose facts count points."""
    t = np.linspace(-3.0, 3.0, _N_POINTS)
    line, arch = ShiftedLine(0.5), ArchContour(0.5)
    eck, pt, hul = (spectrum_of(p).levels[0] for p in (ECKART_FIXTURE, PT_FIXTURE, HULTHEN_FIXTURE))
    return {
        "eckart_psi": (ECKART_FIXTURE, eck, line.point(t)),
        "eckart_psi_second_branch": (ECKART_FIXTURE, eck, line.point(t)),
        "pt_psi": (PT_FIXTURE, pt, line.point(t)),
        "pt_psi_second_branch": (PT_FIXTURE, pt, line.point(t)),
        "hulthen_psi": (HULTHEN_FIXTURE, hul, t, 0.5),
        "level_samples": (HULTHEN_FIXTURE, hul, arch, t),
        "v_eckart": (ECKART_FIXTURE, line.point(t)),
        "v_pt": (PT_FIXTURE, line.point(t)),
        "v_hulthen": (HULTHEN_FIXTURE, arch.point(t)),
    }


def test_traced_points_arguments_are_the_points(tracing):
    calls = _points_calls()
    counted = {
        (module, name): span for (module, name), span in tracing.TRACED.items()
        if span in ("wavefun.psi", "wavefun.level_samples", "models.potential")
    }
    assert {name for _, name in counted} == set(calls)
    for (module, name), span in counted.items():
        tracer = tracing.Tracer()
        tracer.wrap(span, getattr(importlib.import_module(module), name))(*calls[name])
        assert tracer.spans[0].facts == {"points": _N_POINTS}, f"{module}.{name}"
