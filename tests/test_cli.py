"""Command-line interface: subcommands, formats, exit codes, config."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from ptspec.cli import run

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


def test_invalid_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["spectrum", *ECKART_ARGS, "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


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
