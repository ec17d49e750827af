"""Command-line interface: subcommands, formats, exit codes, config."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptspec import cli, models, spectra
from ptspec.cli import build_parser, run

ECKART_ARGS = ["--model", "eckart", "--A", "3.5", "--beta", "1.0"]
PT_ARGS = ["--model", "pt", "--alpha", "4.3", "--beta", "1.7"]
HULTHEN_ARGS = ["--model", "hulthen", "--alpha", "0.5", "--C", "-9"]


# ---- spectrum ---------------------------------------------------------------


def test_spectrum_json_output(capsys):
    assert run(["spectrum", *ECKART_ARGS]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["model"] == "eckart"
    assert [lv["N"] for lv in doc["levels"]] == [0, 1, 2]
    assert doc["levels"][0]["energy"] == pytest.approx(-6.09, rel=1e-12)
    # canonical form: re-serializing the parsed document reproduces the bytes
    assert out == json.dumps(doc, indent=2) + "\n"


def test_spectrum_empty_families_note(capsys):
    assert run(["spectrum", "--model", "pt", "--alpha", "0.4", "--beta", "0.4"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["levels"] == []
    assert "all families empty" in captured.err


def test_spectrum_csv_output(capsys):
    assert run(["spectrum", *HULTHEN_ARGS, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "N,sigma,tau,energy"
    assert len(lines) == 4
    assert "0.30250000000000005" in out


def test_spectrum_out_file(tmp_path, capsys):
    target = tmp_path / "spec.json"
    assert run(["spectrum", *PT_ARGS, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["family_counts"] == {"--": 3, "-+": 1, "+-": 0, "++": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "pt", "--alpha", "nan", "--beta", "1.7"],
        ["--model", "hulthen", "--alpha", "1.5", "--C", "inf"],
        ["--model", "eckart", "--A", "3.5", "--beta", "inf"],
    ],
)
def test_spectrum_non_finite_parameters_are_bad_input(argv, capsys):
    assert run(["spectrum", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "hulthen", "--alpha", "0.5", "--C=-1e300"],
        ["spectrum", "--model", "eckart", "--A", "1e9", "--beta", "1.0"],
        ["spectrum", "--model", "pt", "--alpha", "1e9", "--beta", "1.7"],
        ["sweep", "--model", "pt", "--alpha", "0.5:1e9:1e-9", "--beta", "1.7"],
        ["verify", "--model", "eckart", "--A", "1e9", "--beta", "1.0", "--method", "residual"],
        ["sample", "--what", "psi", "--model", "eckart", "--A", "1e9", "--beta", "1.0", "--N", "0"],
        ["liouville-check", "--alpha", "0.5", "--C=-1e300"],
        ["sample", "--what", "psi", "--model", "hulthen", "--alpha", "0.5", "--C=-1e12", "--sigma", "-1", "--N", "0",
         "--samples", "3"],
    ],
)
def test_unbounded_enumerations_are_bad_input(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "level_args, message",
    [
        (["--model", "eckart", "--A", "1e9", "--beta", "1.0", "--N", "0"],
         "eckart level bound A - 1 = 1e+09 exceeds MAX_LEVELS = 10000"),
        (["--model", "pt", "--alpha", "1e9", "--beta", "1.7", "--sigma", "-1", "--tau", "-1", "--N", "0"],
         "pt level bound (alpha + beta - 1)/2 = 5e+08 exceeds MAX_LEVELS = 10000"),
        (["--model", "hulthen", "--alpha", "0.5", "--C=-1e12", "--sigma", "-1", "--N", "0"],
         "hulthen level bound = 500000 exceeds MAX_LEVELS = 10000"),
    ],
    ids=["eckart", "pt", "hulthen"],
)
def test_a_level_lookup_is_refused_by_its_own_model_bound(level_args, message, capsys):
    assert run(["sample", "--what", "psi", *level_args, "--samples", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, enumerations",
    [
        (["verify", *ECKART_ARGS, "--method", "residual"], 1),
        (["verify", *PT_ARGS, "--method", "residual"], 1),
        (["verify", *HULTHEN_ARGS, "--method", "residual"], 1),
        (["liouville-check", "--alpha", "0.5", "--C", "-9", "--n-samples", "50"], 1),
        (["sample", "--what", "psi", *HULTHEN_ARGS, "--sigma", "-1", "--N", "1", "--samples", "50"], 0),
        (["sample", "--what", "psi", *PT_ARGS, "--sigma", "-1", "--tau", "-1", "--N", "2", "--samples", "50"], 0),
    ],
    ids=["verify-eckart", "verify-pt", "verify-hulthen", "liouville-check", "sample-hulthen", "sample-pt"],
)
def test_a_report_enumerates_its_spectrum_at_most_once(argv, enumerations, monkeypatch, capsys):
    calls = []
    for name in ("eckart_levels", "pt_levels", "hulthen_levels"):
        enumerate_levels = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda p, f=enumerate_levels: calls.append(p) or f(p))
    assert run(argv) in (0, 1)
    assert capsys.readouterr().out.count("\n") > 3
    assert len(calls) == enumerations


def test_hulthen_without_levels_is_not_refused(capsys):
    assert run(["spectrum", "--model", "hulthen", "--alpha", "0.5", "--C", "1e9"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["levels"] == []
    assert "note: all families empty" in captured.err


def test_spectrum_missing_parameters(capsys):
    assert run(["spectrum", "--model", "pt", "--alpha", "4.3"]) == 2
    assert "error:" in capsys.readouterr().err


# ---- verify -----------------------------------------------------------------


def test_verify_fd_passes_for_line_models(capsys):
    assert run(["verify", *PT_ARGS]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True
    assert len(doc["levels"]) == 4
    assert doc["seed"] == 20080308
    assert run(["verify", *ECKART_ARGS]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is True and len(doc["levels"]) == 3


def test_verify_fd_rejects_arch_model(capsys):
    assert run(["verify", *HULTHEN_ARGS, "--method", "fd"]) == 2
    assert "residual" in capsys.readouterr().err


def test_verify_fd_fails_at_unreachable_tolerance(capsys):
    assert run(["verify", *PT_ARGS, "--grid-n", "400", "--tol", "1e-9"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is False


def test_verify_fd_fine_grid_passes(capsys):
    argv = ["verify", *PT_ARGS, "--eps", "0.5", "--method", "fd"]
    argv += ["--grid-n", "48000", "--grid-L", "12"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"]
    assert len(doc["levels"]) == 4


def test_verify_fd_level_by_the_continuum_stays_a_failed_check(monkeypatch, capsys):
    # the E ~ 77.2 level sits next to the contour continuum, where the solver's
    # residual stalls well above eps ||H||; the stopping rule must still let it
    # settle, so the run ends as a failed check with every level reported
    monkeypatch.setenv("PTSPEC_SEED", "1600859781")
    argv = ["verify", "--model", "eckart", "--A", "4.2936", "--beta", "2.5817"]
    argv += ["--method", "fd", "--grid-n", "1500", "--grid-L", "12"]
    assert run(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [lv["passed"] for lv in doc["levels"]] == [True, True, True, False]


def test_verify_epsilon_out_of_range(capsys):
    assert run(["verify", *PT_ARGS, "--eps", "2.0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("model_args", [ECKART_ARGS, PT_ARGS, HULTHEN_ARGS])
def test_verify_residual_on_an_empty_window_is_bad_input(model_args, capsys):
    assert run(["verify", *model_args, "--method", "residual", "--grid-L", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_verify_residual_method(capsys):
    assert run(["verify", *HULTHEN_ARGS, "--method", "residual"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "residual"
    assert doc["all_passed"] is True
    assert all(r["residual"] < 1e-6 for r in doc["levels"])
    assert run(["verify", *ECKART_ARGS, "--method", "residual"]) == 0
    assert json.loads(capsys.readouterr().out)["all_passed"] is True


# ---- sample -----------------------------------------------------------------


def test_sample_arch_contour_apex(capsys):
    assert run(["sample", "--what", "contour", "--arch"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,ReXi,ImXi"
    assert len(lines) == 1002
    middle = lines[1 + 500].split(",")
    assert middle[2] == "0.7351666863853142"  # log(1/sin eps) at the apex


def test_sample_potential_header(capsys):
    assert run(["sample", "--what", "potential", *ECKART_ARGS, "--samples", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,ReV,ImV"
    assert len(lines) == 12


def test_sample_psi_decays(tmp_path, capsys):
    target = tmp_path / "psi.csv"
    rc = run(
        [
            "sample",
            "--what",
            "psi",
            *PT_ARGS,
            "--sigma",
            "-1",
            "--tau",
            "-1",
            "--N",
            "2",
            "--out",
            str(target),
        ]
    )
    assert rc == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "t,ReXi,ImXi,RePsi,ImPsi,AbsPsi"
    amps = [float(row.split(",")[5]) for row in lines[1:]]
    assert amps[0] < 0.05 * max(amps) and amps[-1] < 0.05 * max(amps)


@pytest.mark.parametrize(
    "level_args",
    [
        [*ECKART_ARGS, "--N", "0"],
        [*PT_ARGS, "--sigma", "-1", "--tau", "-1", "--N", "2"],
        [*HULTHEN_ARGS, "--sigma", "-1", "--N", "1"],
    ],
)
def test_sample_psi_without_samples_prints_the_header(level_args, capsys):
    assert run(["sample", "--what", "psi", *level_args, "--samples", "0"]) == 0
    assert capsys.readouterr().out == "t,ReXi,ImXi,RePsi,ImPsi,AbsPsi\n"


def test_sample_psi_level_selection_errors(capsys):
    assert run(["sample", "--what", "psi", *ECKART_ARGS, "--N", "7"]) == 2
    assert "no such level" in capsys.readouterr().err
    assert run(["sample", "--what", "psi", *ECKART_ARGS]) == 2
    assert "--N" in capsys.readouterr().err


# ---- sweep ------------------------------------------------------------------


def test_sweep_eckart_staircase(capsys):
    assert run(["sweep", "--model", "eckart", "--A", "2:4:0.5", "--beta", "1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "value,sigma,tau,N,energy,family_count"
    per_value: dict[str, int] = {}
    for row in lines[1:]:
        per_value[row.split(",")[0]] = per_value.get(row.split(",")[0], 0) + 1
    assert [per_value[v] for v in ("2.0", "2.5", "3.0", "3.5", "4.0")] == [1, 2, 2, 3, 3]
    for row in lines[1:]:
        cols = row.split(",")
        assert int(cols[5]) == per_value[cols[0]]


def test_sweep_pt_family_onset(capsys):
    assert run(
        ["sweep", "--model", "pt", "--alpha", "1.0", "--beta", "0.25:3.75:0.25"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    onset = {row.split(",")[0] for row in lines if row.split(",")[1:3] == ["1", "-1"]}
    assert onset == {"2.25", "2.5", "2.75", "3.0", "3.25", "3.5", "3.75"}


def test_sweep_runs_give_identical_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["sweep", "--model", "hulthen", "--alpha", "0.2:2.2:0.2", "--C", "-9"]
    assert run([*base, "--out", str(out1)]) == 0
    assert run([*base, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_has_no_jobs_flag():
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--model", "hulthen", "--alpha", "0.2:2.2:0.2", "--C", "-9", "--jobs", "2"])
    assert exc.value.code == 2


def test_sweep_range_validation(capsys):
    assert run(["sweep", "--model", "eckart", "--A", "5:4:0.5", "--beta", "1.0"]) == 2
    assert run(["sweep", "--model", "pt", "--alpha", "1:2:1", "--beta", "1:2:1"]) == 2
    assert run(["sweep", "--model", "eckart", "--A", "3.5", "--beta", "1.0"]) == 2
    assert run(["sweep", "--model", "eckart", "--A", "2:4:0.5"]) == 2
    capsys.readouterr()


def test_sweep_range_size_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_SWEEP_VALUES", 10)
    assert run(["sweep", "--model", "eckart", "--A", "2:11:1", "--beta", "1.0"]) == 0
    assert {row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]} == {
        f"{a}.0" for a in range(2, 12)
    }
    assert run(["sweep", "--model", "eckart", "--A", "2:12:1", "--beta", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 10 values" in captured.err


# ---- liouville-check ----------------------------------------------------------


def test_liouville_check_passes(capsys):
    assert run(["liouville-check", "--alpha", "0.5", "--C", "-9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert len(doc["per_level"]) == 3
    assert doc["max_deviation"] < 1e-9
    assert {"sigma", "n", "tau", "beta_eff", "kappa", "max_deviation"} == set(doc["per_level"][0])


def test_liouville_check_tolerance_gate(capsys):
    assert run(["liouville-check", "--alpha", "0.5", "--C", "-9", "--tol", "1e-20"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


_OVER = str(cli.MAX_SWEEP_VALUES + 1)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["sample", "--what", "contour", "--samples", _OVER], "--samples"),
        (["sample", "--what", "psi", *HULTHEN_ARGS, "--N", "1", "--samples", _OVER], "--samples"),
        (["liouville-check", "--alpha", "0.5", "--C", "-9", "--n-samples", _OVER], "--n-samples"),
        (["verify", *PT_ARGS, "--grid-n", _OVER], "--grid-n"),
        # 2 * window / h + 1 residual points, one over the cap at h = 1e-3
        (["verify", *PT_ARGS, "--method", "residual", "--grid-L", str(cli.MAX_SWEEP_VALUES * 1e-3 / 2)], "--grid-L"),
    ],
)
def test_sample_grids_over_the_cap_exit_2_before_allocating(argv, option, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and option in err and f"at most {cli.MAX_SWEEP_VALUES}" in err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_liouville_check_needs_a_positive_sample_count(n, capsys):
    assert run(["liouville-check", "--alpha", "0.5", "--C", "-9", "--n-samples", n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "--n-samples" in err
    # also for a model without levels, where no sample would be evaluated
    assert run(["liouville-check", "--alpha", "0.5", "--C", "1", "--n-samples", n]) == 2
    assert "--n-samples" in capsys.readouterr().err


def test_liouville_check_rejects_a_bad_shift_without_levels(capsys):
    # the arch is sampled before the levels are visited, so a model without
    # levels gets its shift checked too
    assert run(["liouville-check", "--alpha", "0.5", "--C", "1", "--eps", "2"]) == 2
    assert "epsilon=2.0 not in (0, pi/2)" in capsys.readouterr().err
    # and the inverse map built: at the largest shift below pi/2, t = 0 sits on its branch point
    assert run(["liouville-check", "--alpha", "0.5", "--C", "1", "--eps", "1.5707963267948963", "--n-samples", "101"]) == 2
    assert "branch point of the inverse map" in capsys.readouterr().err


# ---- config, environment, entry points ----------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "eckart", "A": 3.5, "beta": 1.0}))
    assert run(["spectrum", "--config", str(cfg)]) == 0
    assert len(json.loads(capsys.readouterr().out)["levels"]) == 3


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "eckart", "A": 99.0, "beta": 1.0}))
    assert run(["spectrum", "--A", "3.5", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["A"] == 3.5
    assert len(doc["levels"]) == 3


@pytest.mark.parametrize(
    "argv, config, flags",
    [
        (
            ["verify"],
            {"model": "pt", "alpha": 4.3, "beta": "1.7", "grid-n": 300, "grid-L": 12, "tol": "10"},
            [*PT_ARGS, "--grid-n", "300", "--grid-L", "12", "--tol", "10"],
        ),
        (
            ["verify"],
            {"model": "eckart", "A": "3.5", "beta": 1, "method": "residual", "grid-L": 6},
            [*ECKART_ARGS, "--method", "residual", "--grid-L", "6"],
        ),
        (
            ["sample", "--what", "psi"],
            {"model": "pt", "alpha": "4.3", "beta": 1.7, "eps": 0.5, "N": 2, "sigma": -1,
             "tau": "-1", "samples": "51", "L": 8},
            [*PT_ARGS, "--eps", "0.5", "--N", "2", "--sigma", "-1", "--tau", "-1",
             "--samples", "51", "--L", "8"],
        ),
        (
            ["sweep", "--model", "pt"],
            {"alpha": 1, "beta": "0.25:3.75:0.25", "eps": "0.4"},
            ["--alpha", "1", "--beta", "0.25:3.75:0.25", "--eps", "0.4"],
        ),
        (
            ["liouville-check"],
            {"alpha": 0.5, "C": "-9", "eps": "0.5", "n-samples": "50", "tol": 1e-9},
            ["--alpha", "0.5", "--C", "-9", "--eps", "0.5", "--n-samples", "50", "--tol", "1e-9"],
        ),
    ],
    ids=["verify-fd", "verify-residual", "sample-psi", "sweep", "liouville-check"],
)
def test_config_gives_the_bytes_of_the_same_flags(argv, config, flags, tmp_path, capsys):
    # config values arrive as raw JSON numbers and strings and are coerced
    assert run([*argv, *flags]) == 0
    want = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == want


def test_invalid_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["spectrum", *ECKART_ARGS, "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["spectrum", "--model", "eckart"], {"A": [1], "beta": 1}, "A"),
        (["spectrum", "--model", "eckart"], {"A": 3.5, "beta": True}, "beta"),
        (["spectrum", "--model", "eckart"], {"A": 3.5, "beta": 1, "format": "xml"}, "format"),
        (["spectrum", "--model", "eckart"], {"A": 3.5, "beta": 1, "eps": {"x": 1}}, "eps"),
        (["spectrum", "--model", "eckart"], {"A": 3.5, "beta": 1, "out": [1]}, "out"),
        (["verify", *PT_ARGS], {"grid-n": 300.5}, "grid-n"),
        (["spectrum", "--model", "eckart"], {"A": 10**400, "beta": 1}, "A"),
    ],
)
def test_config_value_of_the_wrong_type_names_its_key(argv, config, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([*argv, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r}: ")
    assert "Traceback" not in err


def test_unexpected_exception_is_a_usage_error(monkeypatch, capsys):
    def broken(model):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "spectrum_of", broken)
    assert run(["spectrum", *ECKART_ARGS]) == 2
    assert capsys.readouterr().err == "error: KeyError: 'boom'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["liouville-check", "--alpha", "1e300", "--C", "4.3"], "alpha=1e+300 is too large"),
        (["sample", "--what", "potential", "--model", "hulthen", "--alpha", "1e300", "--C", "4.3", "--samples", "5"],
         "alpha=1e+300 is too large"),
        (["sample", "--what", "potential", "--model", "hulthen", "--alpha", "1e154", "--C", "1.7e308", "--samples", "3"],
         "B = C - A overflows"),
        (["verify", "--model", "pt", "--alpha", "1.7", "--beta", "12", "--method", "fd",
          "--grid-L", "1e-300", "--grid-n", "100"], "1/h^2 is not finite"),
        (["spectrum", "--model", "eckart", "--A", "3.5", "--beta", "1e160"], "beta=1e+160 is too large"),
        (["spectrum", "--model", "hulthen", "--alpha", "1.2", "--C", "5.7e198"], "C=5.7e+198 is too large"),
        (["spectrum", "--model", "eckart", "--A", "1.0000000000000002", "--beta", "1e150"], "beta=1e+150 is too large"),
        (["sample", "--model", "eckart", "--A", "1e154", "--beta", "-0.4331", "--what", "potential", "--samples", "3"],
         "potential not finite at t = 0.0 (1 of 3 points)"),
        (["liouville-check", "--alpha", "1.48", "--C", "0", "--eps", "1e-320", "--n-samples", "7"],
         "epsilon=1e-320 is too small: sin(epsilon)^2 is not a normal float"),
        (["sample", "--what", "potential", "--model", "pt", "--alpha", "2", "--beta", "1e308", "--samples", "3"],
         "beta=1e+308 is too large: beta^2 overflows"),
        (["sample", "--what", "psi", *ECKART_ARGS, "--N", "1", "--samples", "5", "--L", "1e6"],
         "eigenfunction not finite at t = -1000000.0 (5 of 5 points)"),
        (["sample", "--what", "contour", "--arch", "--samples", "3", "--L", "800"],
         "contour point not finite at t = -800.0 (2 of 3 points)"),
        (["sample", "--what", "contour", "--samples", "3", "--L", "inf"],
         "--L must be a positive finite half-width, got inf"),
        (["verify", "--model", "eckart", "--A", "1.0000000000000002", "--beta", "1e6", "--method", "residual"],
         "eigenfunction not finite at t = -8.0 (16001 of 16001 points)"),
        (["liouville-check", "--alpha", "1.5707963", "--C", "1e154", "--n-samples", "50"],
         "transformed potential not finite at t = -0.204081632653061 (2 of 50 points)"),
    ],
    ids=["liouville-check", "sample-potential", "sample-potential-B", "verify-fd",
         "eckart-beta-squared", "hulthen-kappa-squared", "eckart-energy", "eckart-potential", "subnormal-eps",
         "pt-beta-squared", "eckart-psi-far-out", "arch-points", "line-points", "eckart-residual-psi",
         "liouville-transformed-potential"],
)
def test_inputs_that_overflowed_have_checks_of_their_own(argv, message, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert not re.match(r"error: [A-Za-z]+Error: ", err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--model", "eckart", "--A", "1e154", "--beta", "-0.4331", "--what", "potential", "--samples", "3"],
         "potential not finite at t = 0.0 (1 of 3 points)"),
        (["liouville-check", "--alpha", "1.5707963", "--C", "1e154", "--n-samples", "50"],
         "transformed potential not finite at t = -0.204081632653061 (2 of 50 points)"),
        (["liouville-check", "--alpha", "1.5707963", "--C", "1e154", "--n-samples", "100000"],
         "transformed potential not finite at t = -0.4027040270402704 "
         "(1166 of this block's 8192 points, of 100000 in all)"),
        (["sample", "--what", "psi", *ECKART_ARGS, "--N", "1", "--samples", "5", "--L", "1e6"],
         "eigenfunction not finite at t = -1000000.0 (5 of 5 points)"),
        (["sample", "--what", "contour", "--arch", "--samples", "3", "--L", "800"],
         "contour point not finite at t = -800.0 (2 of 3 points)"),
    ],
    ids=["eckart-potential", "liouville-transformed-potential", "liouville-in-blocks", "eckart-psi-far-out", "arch-points"],
)
def test_an_overflow_is_reported_once_by_name(argv, message, capsys):
    """No numpy RuntimeWarning ahead of the named error: stderr is the one error line,
    whatever earlier requests in the process printed."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert [str(w.message) for w in seen] == []
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", *ECKART_ARGS, "--method", "fd"], "v_eckart"),
        (["verify", *PT_ARGS, "--method", "residual"], "v_pt"),
        (["sample", "--what", "potential", *PT_ARGS, "--samples", "5"], "v_pt"),
        (["liouville-check", "--alpha", "0.5", "--C", "-9", "--n-samples", "7"], "v_hulthen"),
    ],
    ids=["verify-fd", "verify-residual", "sample-potential", "liouville-check"],
)
def test_a_potential_not_finite_at_one_point_is_bad_input(argv, name, monkeypatch, capsys):
    v = getattr(models, name)

    def poisoned(p, points):  # the model's potential with NaN at its middle point
        out = np.array(v(p, points))
        out[len(out) // 2] = np.nan
        return out

    monkeypatch.setattr(models, name, poisoned)  # potential_fn looks the function up when called
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: potential not finite at t = \S+ \(1 of \d+ points\)\n", err), err


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", *PT_ARGS, "--method", "fd", "--grid-n", "200"],
        ["verify", *PT_ARGS, "--method", "residual", "--grid-L", "2"],
        ["liouville-check", "--alpha", "0.5", "--C", "-9", "--n-samples", "7"],
    ],
    ids=["verify-fd", "verify-residual", "liouville-check"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_tolerance_that_is_not_finite_is_bad_input(source, argv, tol, tmp_path, capsys):
    if source == "flag":
        argv = [*argv, f"--tol={tol}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": float(tol)}))
        argv = [*argv, "--config", str(cfg)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: --tol must be finite, got {float(tol)}\n")


@pytest.mark.parametrize("tol", ["0", "-1", "-0.0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", *PT_ARGS, "--method", "fd", "--grid-n", "200"],
        ["verify", *PT_ARGS, "--method", "residual", "--grid-L", "2"],
        ["liouville-check", "--alpha", "0.5", "--C", "-9", "--n-samples", "7"],
    ],
    ids=["verify-fd", "verify-residual", "liouville-check"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_tolerance_that_is_not_positive_is_bad_input(source, argv, tol, tmp_path, capsys):
    # a check "< tol" fails every level here, so this would read as a failed verification (exit 1)
    if source == "flag":
        argv = [*argv, f"--tol={tol}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": float(tol)}))
        argv = [*argv, "--config", str(cfg)]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: --tol must be positive, got {float(tol)}\n")


@pytest.mark.parametrize("width", ["0", "-2", "inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["sample", "--what", "contour", "--samples", "3"], "--L"),
        (["sample", "--what", "contour", "--arch", "--samples", "3"], "--L"),
        (["sample", "--what", "psi", *PT_ARGS, "--sigma", "-1", "--tau", "-1", "--N", "0", "--samples", "3"], "--L"),
        (["verify", *PT_ARGS, "--method", "fd", "--grid-n", "200"], "--grid-L"),
        (["verify", *PT_ARGS, "--method", "residual"], "--grid-L"),
    ],
    ids=["sample-line", "sample-arch", "sample-psi", "verify-fd", "verify-residual"],
)
def test_a_window_that_is_not_a_positive_finite_half_width_is_bad_input(argv, option, width, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option.lstrip("-"): float(width)}))
    message = f"error: {option} must be a positive finite half-width, got {float(width)}\n"
    for args in ([*argv, f"{option}={width}"], [*argv, "--config", str(cfg)]):
        assert run(args) == 2
        assert capsys.readouterr() == ("", message)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: spectrum's options but --out and --config, whose text values are file paths
_SPECTRUM_KEYS = ["model", "A", "alpha", "beta", "C", "eps", "format"]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(_SPECTRUM_KEYS), _JSON | st.sampled_from(["eckart", "pt", "hulthen", "csv"])))
def test_spectrum_config_of_any_json_exits_0_or_2(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["spectrum", "--config", cfg])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_seed_environment_override(monkeypatch, capsys):
    monkeypatch.setenv("PTSPEC_SEED", "123")
    assert run(["verify", *PT_ARGS, "--grid-n", "300", "--tol", "10.0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123
    monkeypatch.setenv("PTSPEC_SEED", "abc")
    assert run(["verify", *PT_ARGS, "--grid-n", "300", "--tol", "10.0"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ptspec", "spectrum", *ECKART_ARGS],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "eckart"


def test_unknown_flag_is_a_parser_error():
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--bogus"])
    assert exc.value.code == 2


def test_run_reuses_one_parser(monkeypatch, capsys):
    def no_new_parser():
        raise AssertionError("run built a parser")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    assert run(["spectrum", *ECKART_ARGS]) == 0
    assert json.loads(capsys.readouterr().out)["model"] == "eckart"


def test_config_values_do_not_leak_into_the_next_run(tmp_path, capsys):
    assert run(["spectrum", *ECKART_ARGS]) == 0
    plain = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "pt", "alpha": 4.3, "beta": 1.7, "format": "csv"}))
    assert run(["spectrum", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("N,sigma,tau,energy\n")
    # the config's model, parameters and format are gone again
    assert run(["spectrum", *ECKART_ARGS]) == 0
    assert capsys.readouterr().out == plain
    assert run(["spectrum", "--alpha", "4.3"]) == 2
    assert "unknown model None" in capsys.readouterr().err


def test_no_command_imports_scipy():
    # the fd solver binds the LAPACK inside numpy's own wheel; scipy is only
    # the fallback for numpy builds that carry none
    script = """
import contextlib, io, sys
from ptspec.cli import run
eckart = ["--model", "eckart", "--A", "3.5", "--beta", "1.0"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        run(["spectrum", *eckart]),
        run(["verify", *eckart, "--method", "residual"]),
        run(["liouville-check", "--alpha", "0.5", "--C", "-9"]),
        run(["verify", *eckart, "--method", "fd", "--grid-n", "300", "--tol", "10.0"]),
    ]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0] []"]


# ---- option surface -----------------------------------------------------------

# Every option of every subcommand: (flag, dest, type, required, choices, default).
MODEL = ("--model", "model", None, False, ("eckart", "pt", "hulthen"), None)
EPS = ("--eps", "eps", "float", False, None, None)
OUT = ("--out", "out", None, False, None, None)
CONFIG = ("--config", "config", None, False, None, None)
MODEL_PARAMS = [
    ("--A", "A", "float", False, None, None),
    ("--C", "C", "float", False, None, None),
    ("--alpha", "alpha", "float", False, None, None),
    ("--beta", "beta", "float", False, None, None),
]
OPTION_SURFACE = {
    "spectrum": sorted(
        [MODEL, *MODEL_PARAMS, EPS, OUT, CONFIG, ("--format", "format", None, False, ("json", "csv"), None)]
    ),
    "verify": sorted(
        [
            MODEL, *MODEL_PARAMS, EPS, OUT, CONFIG,
            ("--method", "method", None, False, ("fd", "residual"), None),
            ("--grid-n", "grid_n", "int", False, None, None),
            ("--grid-L", "grid_L", "float", False, None, None),
            ("--tol", "tol", "float", False, None, None),
        ]
    ),
    "sample": sorted(
        [
            MODEL, *MODEL_PARAMS, EPS, OUT, CONFIG,
            ("--what", "what", None, True, ("potential", "psi", "contour"), None),
            ("--arch", "arch", None, False, None, False),
            ("--N", "N", "int", False, None, None),
            ("--sigma", "sigma", "int", False, (-1, 1), None),
            ("--tau", "tau", "int", False, (-1, 1), None),
            ("--L", "L", "float", False, None, None),
            ("--samples", "samples", "int", False, None, None),
        ]
    ),
    "sweep": sorted(
        [
            ("--model", "model", None, True, ("eckart", "pt", "hulthen"), None),
            ("--A", "A", "str", False, None, None),
            ("--C", "C", "str", False, None, None),
            ("--alpha", "alpha", "str", False, None, None),
            ("--beta", "beta", "str", False, None, None),
            EPS, OUT, CONFIG,
        ]
    ),
    "liouville-check": sorted(
        [
            ("--alpha", "alpha", "float", False, None, None),
            ("--C", "C", "float", False, None, None),
            EPS, OUT, CONFIG,
            ("--n-samples", "n_samples", "int", False, None, None),
            ("--tol", "tol", "float", False, None, None),
        ]
    ),
}


def test_option_surface_is_unchanged():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: sorted(
            (a.option_strings[0], a.dest, getattr(a.type, "__name__", None), a.required,
             a.choices, a.default)
            for a in sp._actions
            if a.option_strings and a.dest != "help"
        )
        for name, sp in sub.choices.items()
    }
    assert surface == OPTION_SURFACE


# ---- the exit-code contract as a property ------------------------------------------

#: numbers the argv property draws from: edge values, and uniform floats on a 0.01 grid in [-10, 10]
_EDGE_NUMBERS = ("0", "1", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e154", "1.0000000000000002")
_NUMBERS = st.sampled_from(_EDGE_NUMBERS) | st.integers(-1000, 1000).map(lambda k: repr(k / 100))
#: --grid-n, --samples, --n-samples and --N stay small, so one example costs milliseconds
_INTS = st.integers(-2, 40).map(str)
_RANGES = st.tuples(_NUMBERS, _NUMBERS, _NUMBERS).map(":".join)


def _option_value(option):
    """Values for one OPTION_SURFACE row; None for a flag that takes no value."""
    _, _, kind, _, choices, default = option
    if choices is not None:
        return st.sampled_from([str(c) for c in choices])
    if default is False:
        return st.none()
    return {"int": _INTS, "str": _RANGES | _NUMBERS}.get(kind, _NUMBERS)


@st.composite
def _argv(draw) -> list:
    """A subcommand with its required options and each other one but --out and --config
    (which name files) at even odds."""
    command = draw(st.sampled_from(sorted(OPTION_SURFACE)))
    options = [o for o in OPTION_SURFACE[command] if o[0] not in ("--out", "--config")]
    argv = [command]
    for option in [o for o in options if o[3] or draw(st.booleans())]:
        value = draw(_option_value(option))
        argv.append(option[0] if value is None else f"{option[0]}={value}")
    return argv


_CATCH_ALL = re.compile(r"^error: [A-Za-z_.]*Error: ", re.MULTILINE)
_NON_FINITE = re.compile(r"\b(?:NaN|Infinity|inf|nan)\b")


@settings(max_examples=80, deadline=None)
@given(_argv())
def test_every_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not _CATCH_ALL.search(err.getvalue()), (argv, err.getvalue())
    assert not _NON_FINITE.search(out.getvalue()), (argv, _NON_FINITE.search(out.getvalue()))
