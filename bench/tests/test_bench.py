"""The benchmark's own tests.

    python3 -m pytest bench/tests -q

They run the benchmark in its tiny smoke mode, so they take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from execute import Outcome, check, run_in_process  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

#: share of a traced pass's wall time that may fall outside every span
SELF_SUM_TOL = 0.05


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke():
    """Every workload, untraced and traced, in the tiny smoke mode."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--smoke", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = proc.stdout
    return out


def test_benchmark_json_follows_its_format(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][1] == "bench/run.py"
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS) and len(spec["workloads"]) >= 2
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (u, _) in tracing.PER_LAYER.items()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_mode_runs_every_workload_and_prints_every_metric_with_its_unit(smoke, spec):
    for (name, trace), stdout in smoke.items():
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
        table = "\n".join(lines[:-1])
        for m in wanted:
            assert re.search(rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+\d+$", table, re.M), m


def test_traced_outputs_are_byte_identical_to_untraced(smoke):
    for name in WORKLOADS:
        with open(ROOT / ".bench_out" / f"result-{name}-seed3-trace1.json") as fh:
            detail = json.load(fh)
        assert detail["traced_outputs_mismatched"] == 0
        assert detail["counts_repeat"] is True


def test_same_seed_gives_the_same_requests():
    for name in WORKLOADS:
        assert build(name, 5) == build(name, 5)
        assert build(name, 5).requests != build(name, 6).requests


def test_corrupted_digest_counts_as_failure(cli):
    wl = build("residual-scan", 3, tiny=True)
    bad = dataclasses.replace(wl.requests[0], sha256="0" * 64)
    wl = dataclasses.replace(wl, requests=(bad, *wl.requests[1:]))
    p = run.run_pass(wl, run.plain_executor(cli, wl))
    assert p.failed == 1 and len(p.wrong) == 1 and "digest mismatch" in p.wrong[0]


def test_inconsistent_fd_report_is_a_wrong_output(cli):
    req = build("fd-grid", 3, tiny=True).requests[0]
    out = run_in_process(cli.run, req)
    assert not check(req, out).failed
    report = json.loads(out.stdout)
    report["levels"][0]["passed"] = not report["levels"][0]["passed"]
    forged = Outcome(out.code, json.dumps(report).encode(), out.stderr)
    verdict = check(req, forged)
    assert verdict.failed and verdict.wrong
    missing = dict(report, levels=report["levels"][1:])
    assert check(req, Outcome(out.code, json.dumps(missing).encode(), out.stderr)).wrong


def test_patching_restores_every_name(cli):
    before = {m.__name__: dict(vars(m)) for m in tracing.ptspec_modules()}
    level_samples, v_pt = cli.level_samples, sys.modules["ptspec.models"].v_pt
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert cli.level_samples is not level_samples
        assert sys.modules["ptspec.liouville"].v_pt is not v_pt
        assert sys.modules["ptspec"].v_pt is sys.modules["ptspec.models"].v_pt is not v_pt
    after = {m.__name__: dict(vars(m)) for m in tracing.ptspec_modules()}
    assert before.keys() == after.keys()
    for mod, names in before.items():
        assert all(after[mod][k] is v for k, v in names.items()), mod


def _traced_pass(cli, name):
    wl = build(name, 3, tiny=True)
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as scratch:
        execute = run.traced_executor(cli, wl, tracer, "p0", Path(scratch))
        with tracing.patched(tracer):
            p = run.run_pass(wl, execute, checker=tracer.wrap("bench.check", check))
    return p, tracer.spans


@pytest.mark.parametrize("name", ["residual-scan", "cli-cold"])
def test_traced_self_times_sum_to_the_traced_wall_time(cli, name):
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    p, spans = _traced_pass(cli, name)
    own = tracing.self_times(spans)
    assert all(t >= -1e-6 for t in own.values())
    assert abs(sum(own.values()) - p.wall) <= SELF_SUM_TOL * p.wall


def test_spans_sharing_a_request_id_rebuild_each_request_tree(cli):
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    p, spans = _traced_pass(cli, "residual-scan")
    trees = tracing.request_trees(spans)
    assert set(trees) == {f"p0r{i}" for i in range(len(p.latencies_ms))}
    for roots in trees.values():
        assert [r["name"] for r in roots] == ["cli.run", "bench.check"]
        assert roots[0]["children"], "a residual request calls into the layers"
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.request == s.request and parent.start <= s.start <= s.end <= parent.end


def test_fails_without_the_program_sources():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_bench("--workload", "fd-grid", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
