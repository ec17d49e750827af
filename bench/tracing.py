"""Spans around calls into ptspec's modules, recorded from the benchmark's side.

A traced pass wraps each public function listed in ``TRACED`` at every
``ptspec`` module that holds a reference to it (``ptspec.cli.level_samples``,
``ptspec.liouville.v_pt``, the package namespace, ...), so calls are seen
whichever import path they take.  Every call records a span (name, start,
end, parent span, request id) in memory; ``patched`` restores every name it
replaced when the pass ends.

A layer's self time is the summed duration of its spans minus the time their
child spans cover, so the self times of all spans add up to the time spent
inside the request spans.

Run as a script, this file is the child of a traced ``cli-cold`` request:

    python bench/tracing.py SPANS.json ARGV...

imports ``ptspec.cli`` inside a ``cli.import`` span, runs ARGV traced, and
writes its spans to SPANS.json.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

FD_GRIDS = (1500, 6000, 24000, 48000)

#: (module, function) -> span name; the span name's prefix is the layer
TRACED = {
    ("ptspec.spectra", "eckart_levels"): "spectra.enumerate",
    ("ptspec.spectra", "pt_levels"): "spectra.enumerate",
    ("ptspec.spectra", "hulthen_levels"): "spectra.enumerate",
    ("ptspec.spectra", "spectrum_to_json"): "spectra.serialize",
    ("ptspec.spectra", "spectrum_to_csv"): "spectra.serialize",
    ("ptspec.spectra", "check_level"): "spectra.check_level",
    ("ptspec.oracle", "discretize"): "oracle.discretize",
    ("ptspec.oracle", "shift_invert_eigen"): "oracle.solve",
    ("ptspec.oracle", "match_levels"): "oracle.match",
    ("ptspec.wavefun", "eckart_psi"): "wavefun.psi",
    ("ptspec.wavefun", "eckart_psi_second_branch"): "wavefun.psi",
    ("ptspec.wavefun", "pt_psi"): "wavefun.psi",
    ("ptspec.wavefun", "pt_psi_second_branch"): "wavefun.psi",
    ("ptspec.wavefun", "hulthen_psi"): "wavefun.psi",
    ("ptspec.wavefun", "level_samples"): "wavefun.level_samples",
    ("ptspec.wavefun", "residual_check"): "wavefun.residual",
    ("ptspec.specfun", "gauss2f1_terminating"): "specfun.gauss2f1",
    ("ptspec.specfun", "complex_power_tracked"): "specfun.power_tracked",
    ("ptspec.contour", "arch_point"): "contour.arch_point",
    ("ptspec.contour", "liouville_derivatives"): "contour.liouville_derivatives",
    ("ptspec.models", "v_eckart"): "models.potential",
    ("ptspec.models", "v_pt"): "models.potential",
    ("ptspec.models", "v_hulthen"): "models.potential",
    ("ptspec.liouville", "verify_hulthen_identity"): "liouville.identity",
}

#: per-layer metrics of a traced run: name -> (unit, better)
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "spectra.enumerate_calls": ("count", "lower"),
    "spectra.enumerate_s": ("s", "lower"),
    "spectra.levels": ("count", "higher"),
    "spectra.serialize_s": ("s", "lower"),
    "spectra.check_level_calls": ("count", "lower"),
    "spectra.check_level_s": ("s", "lower"),
    "oracle.discretize_s": ("s", "lower"),
    "oracle.solve_calls": ("count", "lower"),
    "oracle.solve_s": ("s", "lower"),
    "oracle.iterations": ("count", "lower"),
    "oracle.noconverge": ("count", "lower"),
    **{f"oracle.iterations.n{n}": ("count", "lower") for n in FD_GRIDS},
    **{f"oracle.iter_ms.n{n}": ("ms", "lower") for n in FD_GRIDS},
    "oracle.computed_mb": ("MB", "lower"),
    "wavefun.psi_calls": ("count", "lower"),
    "wavefun.psi_s": ("s", "lower"),
    "wavefun.level_samples_self_s": ("s", "lower"),
    "wavefun.residual_s": ("s", "lower"),
    "wavefun.points": ("count", "lower"),
    "specfun.gauss2f1_calls": ("count", "lower"),
    "specfun.gauss2f1_s": ("s", "lower"),
    "specfun.power_tracked_calls": ("count", "lower"),
    "specfun.power_tracked_s": ("s", "lower"),
    "contour.arch_point_s": ("s", "lower"),
    "contour.liouville_derivatives_s": ("s", "lower"),
    "models.potential_calls": ("count", "lower"),
    "models.potential_s": ("s", "lower"),
    "liouville.identity_calls": ("count", "lower"),
    "liouville.identity_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: bytes one inverse-iteration step streams, in complex n-vectors: band (3) and
#: its LU copy (4), right-hand side and solution (2), normalisation (1),
#: Rayleigh quotient matvec in/out and diagonal (3).  A model from array
#: sizes, not a measurement: cache behaviour is ignored.
VECTORS_PER_STEP = 13


@dataclass
class Span:
    id: int
    parent: int | None
    request: str | None
    name: str
    start: float
    end: float
    facts: dict = field(default_factory=dict)


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= d
        return n
    try:
        return len(x)
    except TypeError:
        return 1


def _solve_facts(fn):
    sig = inspect.signature(fn)

    def facts(args, kwargs, out, exc):
        n = len(args[0].diag)
        if exc is None:
            return {"n": n, "iterations": int(out[1])}
        if type(exc).__name__ == "NoConvergence":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return {"n": n, "iterations": int(bound.arguments["max_iter"]), "noconverge": 1}
        return {"n": n}

    return facts


def _arg_points(index):
    return lambda args, kwargs, out, exc: {"points": _size(args[index])} if len(args) > index else {}


def _levels(args, kwargs, out, exc):
    return {"levels": len(out.levels)} if exc is None else {}


FACTS = {
    "spectra.enumerate": lambda fn: _levels,
    "oracle.solve": _solve_facts,
    "wavefun.psi": lambda fn: _arg_points(2),
    "wavefun.level_samples": lambda fn: _arg_points(3),
    "models.potential": lambda fn: _arg_points(1),
}


class Tracer:
    """Collects spans in memory; ``request`` tags every span opened under it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        make_facts = FACTS.get(name)
        facts = make_facts(fn) if make_facts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, parent, self.request, name, 0.0, 0.0)
            self.spans.append(span)
            self._stack.append(sid)
            out = exc = None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                span.facts["error"] = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if facts is not None:
                    span.facts.update(facts(args, kwargs, out, exc))

        return traced

    def add(self, name: str, start: float, end: float) -> int:
        """Record a root span timed by the caller; returns its id."""
        sid = len(self.spans)
        self.spans.append(Span(sid, None, self.request, name, start, end))
        return sid

    def adopt(self, child_spans: list, parent: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for s in child_spans:
            self.spans.append(Span(base + s["id"], parent if s["parent"] is None else base + s["parent"],
                                   self.request, s["name"], s["start"], s["end"], s["facts"]))


def ptspec_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ptspec" or name.startswith("ptspec."))]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Replace every reference to a TRACED function by its traced wrapper."""
    modules = ptspec_modules()
    saved = []
    try:
        for (home, attr), span_name in TRACED.items():
            orig = getattr(sys.modules.get(home), attr, None)
            if orig is None:
                continue
            wrapper = tracer.wrap(span_name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, key, val))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, val in reversed(saved):
            setattr(mod, key, val)


# ---- reading spans ------------------------------------------------------------


def self_times(spans: list) -> dict:
    covered: dict = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def request_trees(spans: list) -> dict:
    """request id -> list of root spans, each as {"name", "dur", "children": [...]}."""
    nodes = {s.id: {"name": s.name, "dur": s.end - s.start, "children": []} for s in spans}
    trees: dict = defaultdict(list)
    for s in spans:
        if s.parent is None:
            trees[s.request].append(nodes[s.id])
        else:
            nodes[s.parent]["children"].append(nodes[s.id])
    return dict(trees)


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and self times of one traced pass (cli import and
    trace.* figures are filled in by the caller)."""
    own = self_times(spans)
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    total: dict = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        for key, val in s.facts.items():
            if key != "error":
                total[(s.name, key)] += val
    iters = defaultdict(int)
    solve_time = defaultdict(float)
    for s in spans:
        if s.name == "oracle.solve":
            iters[s.facts["n"]] += s.facts.get("iterations", 0)
            solve_time[s.facts["n"]] += own[s.id]
    m = {
        "cli.self_s": self_s["cli.run"],
        "spectra.enumerate_calls": calls["spectra.enumerate"],
        "spectra.enumerate_s": self_s["spectra.enumerate"],
        "spectra.levels": int(total[("spectra.enumerate", "levels")]),
        "spectra.serialize_s": self_s["spectra.serialize"],
        "spectra.check_level_calls": calls["spectra.check_level"],
        "spectra.check_level_s": self_s["spectra.check_level"],
        "oracle.discretize_s": self_s["oracle.discretize"],
        "oracle.solve_calls": calls["oracle.solve"],
        "oracle.solve_s": self_s["oracle.solve"],
        "oracle.iterations": int(total[("oracle.solve", "iterations")]),
        "oracle.noconverge": int(total[("oracle.solve", "noconverge")]),
        "oracle.computed_mb": sum(VECTORS_PER_STEP * 16 * n * k for n, k in iters.items()) / 1e6,
        "wavefun.psi_calls": calls["wavefun.psi"],
        "wavefun.psi_s": self_s["wavefun.psi"],
        "wavefun.level_samples_self_s": self_s["wavefun.level_samples"],
        "wavefun.residual_s": self_s["wavefun.residual"],
        "wavefun.points": int(total[("wavefun.level_samples", "points")]),
        "specfun.gauss2f1_calls": calls["specfun.gauss2f1"],
        "specfun.gauss2f1_s": self_s["specfun.gauss2f1"],
        "specfun.power_tracked_calls": calls["specfun.power_tracked"],
        "specfun.power_tracked_s": self_s["specfun.power_tracked"],
        "contour.arch_point_s": self_s["contour.arch_point"],
        "contour.liouville_derivatives_s": self_s["contour.liouville_derivatives"],
        "models.potential_calls": calls["models.potential"],
        "models.potential_s": self_s["models.potential"],
        "liouville.identity_calls": calls["liouville.identity"],
        "liouville.identity_s": self_s["liouville.identity"],
    }
    for n in FD_GRIDS:
        m[f"oracle.iterations.n{n}"] = iters[n]
        m[f"oracle.iter_ms.n{n}"] = 1e3 * solve_time[n] / iters[n] if iters[n] else 0.0
    return m


def write_spans(path, spans: list) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")


# ---- child of a traced cli-cold request -------------------------------------------


def _child(spans_path: str, argv: list) -> int:
    tracer = Tracer()
    start = time.perf_counter()
    from ptspec import cli

    tracer.add("cli.import", start, time.perf_counter())
    code = 1
    try:
        with patched(tracer):
            code = tracer.wrap("cli.run", cli.run)(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump([asdict(s) for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
