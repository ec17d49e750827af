"""ptspec benchmark: seeded closed-loop workloads, end-to-end metrics and a
traced per-layer run.

    python3 bench/run.py --workload fd-grid --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50   # one row per workload

Run from a checkout: ``ptspec`` is imported from ``src/`` next to this
directory, never from an installed copy.  One caller sends one request at a
time and waits for it (a closed loop).  The workload's request list (one
"pass") is replayed until ``--seconds`` have gone by, finishing the pass in
progress.  Every output is checked.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; inherited by every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fresh interpreters timed for setup_s (upper quartile reported): one before
#: the timed phase, the rest spread evenly over it
SETUP_SAMPLES = 11
#: fresh interpreters timed for cli.import_s and cli.import_scipy_s in a traced run
IMPORT_REPEATS = 3

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "levels_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a failing warm-up, ...)."""


def load_cli():
    """Import ptspec.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "ptspec" / "__init__.py").is_file():
        raise BenchError(f"no ptspec sources at {SRC}; run from a ptspec checkout")
    sys.path.insert(0, str(SRC))
    from ptspec import cli

    if Path(cli.__file__).resolve().parent != (SRC / "ptspec").resolve():
        raise BenchError(f"imported ptspec from {cli.__file__}, not from {SRC}")
    return cli


sys.path.insert(0, str(HERE))
from execute import Outcome, check, child_env, run_child, run_in_process, run_subprocess  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics, patched, write_spans  # noqa: E402
from workloads import WORKLOADS, Workload, build, output_digest  # noqa: E402


# ---- one pass --------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0
    latencies_ms: list = field(default_factory=list)
    levels: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    refused: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    out_bytes: int = 0


def run_pass(wl: Workload, execute, checker=check, between=None) -> Pass:
    """One pass; ``between()``, if given, runs before each request, untimed."""
    p = Pass()
    start = time.perf_counter()
    for i, req in enumerate(wl.requests):
        if between is not None:
            between()
        t0 = time.perf_counter()
        out = execute(i, req)
        p.latencies_ms.append(1e3 * (time.perf_counter() - t0))
        verdict = checker(req, out)
        p.digests.append(output_digest(out.code, out.stdout))
        p.out_bytes += len(out.stdout)
        p.levels += verdict.levels
        p.failed += verdict.failed
        if verdict.wrong:
            p.wrong.append(f"{' '.join(req.argv)}: {verdict.reason}")
        elif verdict.failed:
            p.refused.append(f"{' '.join(req.argv)}: {verdict.reason}")
    p.wall = time.perf_counter() - start
    return p


def plain_executor(cli, wl: Workload):
    if wl.in_process:
        return lambda i, req: run_in_process(cli.run, req)
    return lambda i, req: run_subprocess(str(SRC), str(ROOT), req)


def traced_executor(cli, wl: Workload, tracer: Tracer, tag: str, scratch: Path):
    if wl.in_process:
        traced_run = tracer.wrap("cli.run", cli.run)

        def execute(i, req):
            tracer.request = f"{tag}r{i}"
            return run_in_process(traced_run, req)

        return execute

    def execute_child(i, req):
        tracer.request = f"{tag}r{i}"
        spans_path = scratch / f"{tag}r{i}.json"
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *req.argv]
        start = time.perf_counter()
        out = run_child(cmd, child_env(str(SRC), req.ptspec_seed), str(ROOT))
        sid = tracer.add("bench.process", start, time.perf_counter())
        with open(spans_path) as fh:
            tracer.adopt(json.load(fh), sid)
        return out

    return execute_child


# ---- set-up ----------------------------------------------------------------------


def set_up(wl: Workload) -> float:
    """One fresh-interpreter set-up, ``python -m ptspec <warm-up>``: interpreter
    start, ``import ptspec.cli`` and one request; returns its time in seconds."""
    t0 = time.perf_counter()
    out = run_subprocess(str(SRC), str(ROOT), wl.warmup)
    elapsed = time.perf_counter() - t0
    _require(wl, out)
    return elapsed


def warm_up(cli, wl: Workload) -> float:
    """One set-up, then the in-process warm-up; returns the set-up time."""
    elapsed = set_up(wl)
    if wl.in_process:
        _require(wl, run_in_process(cli.run, wl.warmup))
    return elapsed


def _require(wl: Workload, out: Outcome) -> None:
    verdict = check(wl.warmup, out)
    if verdict.failed:
        raise BenchError(f"warm-up request failed ({verdict.reason}): {' '.join(wl.warmup.argv)}")


def import_times() -> tuple:
    """Median wall time of ``import ptspec.cli`` in a fresh interpreter, and
    the cumulative ``scipy.linalg`` import time that ``-X importtime`` reports."""
    code = "import time; t = time.perf_counter(); import ptspec.cli; print(time.perf_counter() - t)"
    walls, scipy_s = [], []
    for _ in range(IMPORT_REPEATS):
        out = run_child([sys.executable, "-X", "importtime", "-c", code], child_env(str(SRC), None), str(ROOT))
        if out.code != 0:
            raise BenchError(f"importing ptspec.cli failed: {out.stderr[-500:]}")
        walls.append(float(out.stdout.decode().strip()))
        cumulative = [
            int(line.split("|")[1]) for line in out.stderr.splitlines()
            if line.startswith("import time:") and line.split("|")[-1].strip() == "scipy.linalg"
        ]
        scipy_s.append(max(cumulative, default=0) / 1e6)
    return statistics.median(walls), statistics.median(scipy_s)


# ---- metrics ---------------------------------------------------------------------


def quantile(values: list, q: int) -> float:
    """q-th percentile, interpolated between the values around it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(wl: Workload) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def request_latencies_ms(passes: list) -> list:
    """Each request's 90th-percentile latency over the passes of a run.

    On a shared host, other tenants slow a CPU down by as much as 50% for
    tens of seconds at a time, and a run may see mostly one speed or the
    other.  A request's 90th percentile over the passes reports the
    contended speed whenever a tenth of the run saw it, where whole-pass
    wall times or a median over every sample follow whichever speed the run
    happened to hit.
    """
    return [quantile(list(lat), 90) for lat in zip(*(p.latencies_ms for p in passes))]


def untraced(cli, wl: Workload, seconds: float) -> tuple:
    """Replay passes for `seconds` of request time.

    Set-up time swings by half on a shared host, in phases of a
    few to tens of seconds, so set-ups done back to back all land in one
    phase.  After the first, the set-ups are spread evenly over the timed
    phase, between requests and outside their latencies, and the time they
    take is added to the run rather than taken from the requests.  For the
    reason given in `request_latencies_ms`, `setup_s` is their upper
    quartile, which reports the contended speed whenever a quarter of the
    run saw it; their median follows whichever speed held most of the run.
    """
    setups = [warm_up(cli, wl)]
    execute = plain_executor(cli, wl)
    passes = []
    interval = seconds / (SETUP_SAMPLES - 1)
    start = time.perf_counter()
    spent = 0.0  # in set-ups since `start`

    def between():
        nonlocal spent
        if len(setups) < SETUP_SAMPLES and time.perf_counter() - start - spent >= interval * len(setups):
            setups.append(set_up(wl))
            spent += setups[-1]

    while True:
        passes.append(run_pass(wl, execute, between=between))
        if time.perf_counter() - start - spent >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:  # a last pass that ended early
        setups.append(set_up(wl))
    per_request = request_latencies_ms(passes)
    wall = sum(per_request) / 1e3
    levels = statistics.median(p.levels for p in passes)
    timed = len(passes) * len(wl.requests)
    metrics = {
        "setup_s": (quantile(setups, 75), len(setups)),
        "wall_s": (wall, timed),
        "ops_per_s": (len(wl.requests) / wall, timed),
        "levels_per_s": (levels / wall, timed),
        "op_p50_ms": (statistics.median(per_request), timed),
        "op_p90_ms": (quantile(per_request, 90), timed),
        "peak_rss_mb": (peak_rss_mb(wl), 1),
    }
    return metrics, passes, {"elapsed_s": time.perf_counter() - start, "setup_samples_s": setups}


def traced(cli, wl: Workload, seconds: float, spans_file: Path) -> tuple:
    """Alternate an untraced and a traced pass until `seconds` have gone by.

    Per-layer values are medians over the traced passes; counts repeat
    exactly from pass to pass.  Every traced output must be byte-identical
    to the untraced one, or the run is not correct.
    """
    warm_up(cli, wl)
    plain = plain_executor(cli, wl)
    plain_passes, traced_passes, per_pass, all_spans = [], [], [], []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        while True:
            tag = f"p{len(traced_passes)}"
            plain_passes.append(run_pass(wl, plain))
            tracer = Tracer()
            execute = traced_executor(cli, wl, tracer, tag, Path(scratch))
            with patched(tracer):
                p = run_pass(wl, execute, checker=tracer.wrap("bench.check", check))
            traced_passes.append(p)
            m = layer_metrics(tracer.spans)
            m["cli.out_bytes"] = p.out_bytes
            per_pass.append(m)
            all_spans.extend(tracer.spans)
            if time.perf_counter() - start >= seconds:
                break
    write_spans(spans_file, all_spans)
    mismatched = sum(
        a != b for u, t in zip(plain_passes, traced_passes) for a, b in zip(u.digests, t.digests)
    )
    metrics = {name: (statistics.median(m[name] for m in per_pass), len(per_pass)) for name in per_pass[0]}
    import_s, scipy_s = import_times()
    metrics["cli.import_s"] = (import_s, IMPORT_REPEATS)
    metrics["cli.import_scipy_s"] = (scipy_s, IMPORT_REPEATS)
    wall_t = sum(request_latencies_ms(traced_passes)) / 1e3
    wall_u = sum(request_latencies_ms(plain_passes)) / 1e3
    metrics["trace.wall_s"] = (wall_t, len(traced_passes))
    metrics["trace.overhead_s"] = (wall_t - wall_u, len(traced_passes))
    counts = [k for k in per_pass[0] if PER_LAYER[k][0] not in ("s", "ms")]
    repeat = all(m[k] == per_pass[0][k] for m in per_pass for k in counts)
    extra = {"traced_outputs_mismatched": mismatched, "counts_repeat": repeat, "spans_file": str(spans_file)}
    return metrics, plain_passes + traced_passes, extra


# ---- provenance --------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(str(ROOT / ".git" / ref)).strip()
        if not sha:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        size = _read(base + "size").strip()
        if size:
            caches[f"L{_read(base + 'level').strip()}{_read(base + 'type').strip()[:1].lower()}"] = size
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "argv": sys.argv,
    }


# ---- entry points --------------------------------------------------------------------


def run_one(args) -> int:
    cli = load_cli()
    wl = build(args.workload, args.seed, tiny=args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, passes, extra = traced(cli, wl, args.seconds, OUT_DIR / f"spans-{stem}.jsonl")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics, passes, extra = untraced(cli, wl, args.seconds)
        units = E2E
    attempted = sum(len(p.latencies_ms) for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    refused = sorted({r for p in passes for r in p.refused})
    correct = not wrong and not extra.get("traced_outputs_mismatched")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} passes of {len(wl.requests)} requests")
    print(f"{'metric':34s} {'value':>14s} {'unit':6s} samples")
    for name, unit in units.items():
        value, samples = metrics[name]
        print(f"{name:34s} {value:14.6g} {unit:6s} {samples}")
    print(f"{'failed_ratio':34s} {failed / attempted:14.6g} {'ratio':6s} {attempted}")
    for line in refused:
        print(f"failed at this commit: {line}")
    for line in wrong[:20]:
        print(f"WRONG OUTPUT: {line}")
    prov = provenance(args)
    print("provenance " + json.dumps(prov))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    detail = {**result, "samples": {k: v[1] for k, v in metrics.items()}, "failed_ratio": failed / attempted,
              "failed_requests": refused, "wrong_outputs": wrong, "provenance": prov, **extra}
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after another; one row
    each, every cell a value with its sample count in parentheses."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        with open(OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json") as fh:
            rows[name] = json.load(fh)
    units = {n: u for n, (u, _) in PER_LAYER.items()} if args.trace else E2E
    print(f"{'workload':14s} {'correct':>7s} {'attempted':>9s} {'failed':>6s}  " +
          "  ".join(f"{n} [{u}]" for n, u in units.items()))
    for name, res in rows.items():
        cells = (f"{res['metrics'][n]['value']:.6g} ({res['samples'][n]})" for n in units)
        print(f"{name:14s} {str(res['correct']):>7s} {res['attempted']:9d} {res['failed']:6d}  " + "  ".join(cells))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({"workloads": {name: {k: res[k] for k in keys} for name, res in rows.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny request lists (the benchmark's own tests)")
    args = ap.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
