import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weakhyp import recovery
from weakhyp.cli import main
from weakhyp.config import (config_echo, config_hash, load_config,
                            validate_config)
from weakhyp.errors import ConfigurationError
from weakhyp.experiments import _net_tables, build_problem
from weakhyp.reports import RowSource, format_number, write_csv
from weakhyp.roots import RegularisedRoots
from weakhyp.solver import (CONE_MARGIN, build_regularised_system,
                            energy_trace, integrate_companion,
                            solve_very_weak)

from oracles import (sigma_per_row, symmetriser_audit_rows,
                     table_per_direction)

ROOT = Path(__file__).resolve().parent.parent


def _base_config():
    return {
        "problem": {"order": 2, "dimension": 1, "horizon": 1.0,
                    "gevrey_s": 2.0},
        "roots": {"preset": "constant", "values": [-1.0, 1.0]},
        "data": [{"preset": "bump", "center": 0.0, "radius": 1.0},
                 {"preset": "zero"}],
        "regularisation": {"scale": "linear",
                           "epsilon_sweep": [0.5, 0.25, 0.125]},
        "grid": {"points": 64, "time_steps": 256,
                 "output_times": [0.0, 1.0]},
        "run": {"seed": 3},
    }


def test_validate_accepts_base_config():
    cfg = validate_config(_base_config())
    assert cfg.order == 2
    assert cfg.epsilon_sweep == (0.5, 0.25, 0.125)


def test_empty_sweep_names_field():
    raw = _base_config()
    raw["regularisation"]["epsilon_sweep"] = []
    with pytest.raises(ConfigurationError) as info:
        validate_config(raw)
    assert "epsilon_sweep" in str(info.value)


def test_unknown_preset_names_field():
    raw = _base_config()
    raw["data"][0] = {"preset": "mystery"}
    with pytest.raises(ConfigurationError) as info:
        build_problem(validate_config(raw))
    assert "data[0]" in (info.value.field or "")


def test_grid_points_power_of_two():
    raw = _base_config()
    raw["grid"]["points"] = 100
    with pytest.raises(ConfigurationError) as info:
        build_problem(validate_config(raw))
    assert info.value.field == "grid.points"


def test_data_cardinality_checked():
    raw = _base_config()
    raw["data"] = [{"preset": "zero"}]
    with pytest.raises(ConfigurationError):
        build_problem(validate_config(raw))


def test_one_coefficient_polynomial_preset_is_a_constant_piece():
    raw = _base_config()
    raw["data"][0] = {"preset": "polynomial", "coefficients": [2.0],
                      "lo": -1.0, "hi": 1.0}
    profile = build_problem(validate_config(raw)).data[0]
    (piece,) = profile.pieces
    assert piece.degree == 0 and piece.value == 2.0
    assert np.array_equal(profile(np.linspace(-1.0, 1.0, 5)), np.full(5, 2.0))


def test_readme_config_is_read_by_the_builders(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Configuration"):]
    path = tmp_path / "readme.json"
    path.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    for subcommand in ("solve", "sweep"):
        problem = build_problem(load_config(path, subcommand))
        assert problem.order == 2 and problem.grid.points == 256


def test_config_round_trip_equality(tmp_path):
    raw = _base_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    redumped = json.loads(json.dumps(cfg.raw))
    assert redumped == cfg.raw
    assert config_hash(validate_config(redumped)) == config_hash(cfg)


def test_config_hash_is_the_sha256_of_the_echo():
    labelled = _base_config()
    labelled["run"]["label"] = "ε sweep, ω = ε"
    for raw in (_base_config(), labelled):
        cfg = validate_config(raw)
        assert config_hash(cfg) == hashlib.sha256(
            config_echo(cfg).encode("utf-8")).hexdigest()


def test_config_echo_is_flat_and_sorted():
    cfg = validate_config(_base_config())
    echo = config_echo(cfg)
    lines = [line for line in echo.splitlines() if line]
    assert lines == sorted(lines)
    assert "problem.order = 2" in lines
    assert "regularisation.epsilon_sweep[0] = 0.5" in lines


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "weakhyp.cli", *args],
        capture_output=True, text=True)


HEADER = ["subcommand", "config_hash", "artifact_version", "seed"]
TAIL = ["runtime_seconds", "complete", "checks", "checks_passed"]


def _framed_summary(out):
    """The summary.json in ``out``, checked for the shared header and tail."""
    summary = json.loads((out / "summary.json").read_text())
    keys = list(summary)
    assert keys[:len(HEADER)] == HEADER
    assert keys[-len(TAIL):] == TAIL
    return summary


def _without_runtime(path):
    return [line for line in path.read_text().splitlines()
            if "runtime_seconds" not in line]


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    raw = _base_config()
    raw["regularisation"]["epsilon_sweep"] = [2.0 ** -10, 2.0 ** -12,
                                              2.0 ** -14]
    raw["reference"] = {"kind": "dalembert", "speed": 1.0}
    raw["checks"] = {"dalembert_linf_error": 1e-3}
    path = tmp_path_factory.mktemp("cfg") / "wave.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_solve_passes_and_is_deterministic(cli_config, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    first = _run_cli(["solve", "--config", str(cli_config),
                      "--out", str(out1), "--jobs", "1"])
    assert first.returncode == 0, first.stderr
    second = _run_cli(["solve", "--config", str(cli_config),
                       "--out", str(out2), "--jobs", "3"])
    assert second.returncode == 0, second.stderr
    for name in ("solution.csv", "spectrum.csv", "energy.csv",
                 "reference.csv", "config.echo"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert _framed_summary(out1)["complete"] is True
    assert _without_runtime(out1 / "summary.json") \
        == _without_runtime(out2 / "summary.json")


def test_cli_validation_error_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    raw = _base_config()
    raw["regularisation"]["epsilon_sweep"] = []
    bad.write_text(json.dumps(raw))
    result = _run_cli(["solve", "--config", str(bad), "--out",
                       str(tmp_path / "out")])
    assert result.returncode == 2
    assert "epsilon_sweep" in result.stderr


def test_cli_failed_check_exit_one(cli_config, tmp_path):
    raw = json.loads(Path(cli_config).read_text())
    raw["checks"] = {"dalembert_linf_error": 1e-12}
    impossible = tmp_path / "impossible.json"
    impossible.write_text(json.dumps(raw))
    result = _run_cli(["solve", "--config", str(impossible),
                       "--out", str(tmp_path / "out")])
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    summary = _framed_summary(tmp_path / "out")
    assert summary["complete"] is True
    assert summary["checks_passed"] is False


def test_cli_short_sweep_is_a_config_error(tmp_path, capsys):
    # the audits accept a one-value sweep; solve needs three, and sweep
    # four, the fewest its moderateness fit regresses
    raw = _base_config()
    path = tmp_path / "short.json"
    for subcommand, sweep in (("solve", [0.5, 0.25]), ("sweep", [0.5, 0.25]),
                              ("sweep", [0.5, 0.25, 0.125])):
        raw["regularisation"]["epsilon_sweep"] = sweep
        path.write_text(json.dumps(raw))
        assert main([subcommand, "--config", str(path),
                     "--out", str(tmp_path / subcommand)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert "regularisation.epsilon_sweep" in err


def test_cli_stage_failure_writes_error_summary(tmp_path, capsys):
    # 32 steps break the stability budget at every epsilon, so the
    # moderateness fit, which runs after the sweep, has no samples
    raw = _base_config()
    raw["regularisation"]["epsilon_sweep"] = [0.5, 0.25, 0.125, 0.0625]
    raw["grid"]["time_steps"] = 32
    path = tmp_path / "few_steps.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert "stage failure" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["subcommand", "config_hash", "complete", "error"]
    assert summary["complete"] is False
    assert summary["error"].startswith("InsufficientDataError")


@pytest.mark.parametrize("subcommand, section, value, field", [
    pytest.param("solve", "roots", {"preset": "heaviside", "jump": 0.5,
                                    "low": -1.0, "high": 4.0},
                 "roots", id="negative_wave_speed"),
    pytest.param("solve", "regularisation",
                 {"scale": "linear", "coefficient": 2.0,
                  "epsilon_sweep": [0.5, 0.25, 0.125]},
                 "regularisation.coefficient", id="scale_coefficient"),
    pytest.param("solve", "regularisation",
                 {"scale": "linear", "coefficient": True,
                  "epsilon_sweep": [0.5, 0.25, 0.125]},
                 "regularisation.coefficient", id="boolean_scale_coefficient"),
    # N + m^2 - m < 1 leaves the logarithmic scale undefined (m = 1, N = 0)
    # or outside (0, 1] (m = 2, N = -3); several sections at once when the
    # section is None
    pytest.param("solve", None,
                 {"problem": {"order": 1, "horizon": 1.0},
                  "roots": {"preset": "transport", "speed": 1.0},
                  "data": [{"preset": "bump", "center": 0.0, "radius": 1.0}],
                  "regularisation": {"scale": "logarithmic",
                                     "log_exponent": 0,
                                     "epsilon_sweep": [0.5, 0.25, 0.125]}},
                 "regularisation.log_exponent", id="log_exponent_order_1"),
    pytest.param("solve", "regularisation",
                 {"scale": "logarithmic", "log_exponent": -3,
                  "epsilon_sweep": [0.5, 0.25, 0.125]},
                 "regularisation.log_exponent", id="log_exponent_order_2"),
    pytest.param("solve", "roots", None, "roots", id="no_roots"),
    pytest.param("solve", "roots",
                 {"preset": "profiles",
                  "profiles": [{"preset": "constant", "value": 1.0},
                               {"preset": "constant", "value": -1.0}]},
                 "roots", id="unordered_profiles"),
    pytest.param("solve", "data", [], "data", id="empty_data"),
    pytest.param("solve", "reference",
                 {"kind": "fine_epsilon", "divisor": 0.1},
                 "reference.divisor", id="reference_divisor"),
    pytest.param("solve", "reference", {"kind": "fine_epsilonn"},
                 "reference.kind", id="reference_kind"),
    pytest.param("solve", "roots",
                 {"preset": "constant", "values": [-1.0, 0.0, 1.0]},
                 "problem.order", id="roots_order"),
    pytest.param("solve", "grid", [64], "grid", id="grid_not_an_object"),
    pytest.param("solve", "checks", {"dalembert_linf_error": "small"},
                 "checks.dalembert_linf_error", id="check_ceiling"),
    pytest.param("sweep", "analysis", {"seminorm": "l2"},
                 "analysis.seminorm", id="seminorm"),
    pytest.param("symmetriser", "symmetriser", {"count": "many"},
                 "symmetriser.count", id="audit_count"),
    pytest.param("symmetriser", "symmetriser", {"count": 2.7},
                 "symmetriser.count", id="fractional_count"),
    pytest.param("symmetriser", "problem", {"order": True},
                 "problem.order", id="boolean_order"),
    pytest.param("sweep", "regularisation",
                 {"scale": "linear", "epsilon_sweep": [0.5, 0.2, 0.08, 0.032]},
                 "regularisation.epsilon_sweep", id="sweep_not_halving"),
    pytest.param("reduce", "reduce", {"sizes": []}, "reduce.sizes",
                 id="no_reduce_sizes"),
    pytest.param("reduce", "reduce", {"sizes": [2, 0]}, "reduce.sizes[1]",
                 id="zero_reduce_size"),
    pytest.param("solve", "roots",
                 {"preset": "constant", "values": [1.0, -1.0]},
                 "roots.values", id="unsorted_constant_roots"),
    *(pytest.param("sweep", "problem",
                   {"order": 2, "horizon": 1.0, "gevrey_s": bad},
                   "problem.gevrey_s", id=f"gevrey_s_{bad}")
      for bad in (0, -1)),
    # a number field takes a JSON number, not a string or a boolean, and a
    # flag takes a JSON boolean
    pytest.param("solve", "reference",
                 {"kind": "fine_epsilon", "divisor": "8"},
                 "reference.divisor", id="string_divisor"),
    pytest.param("solve", "reference",
                 {"kind": "fine_epsilon", "divisor": True},
                 "reference.divisor", id="boolean_divisor"),
    pytest.param("symmetriser", "symmetriser", {"spacing": "0.05"},
                 "symmetriser.spacing", id="string_spacing"),
    pytest.param("solve", "regularisation",
                 {"scale": "linear", "epsilon_sweep": [0.5, "0.25", 0.125]},
                 "regularisation.epsilon_sweep[1]", id="string_epsilon"),
    pytest.param("solve", "grid", {"output_times": ["0.5", 1.0]},
                 "grid.output_times[0]", id="string_output_time"),
    pytest.param("solve", "grid", {"tracked_frequencies": [2.0, True]},
                 "grid.tracked_frequencies[1]", id="boolean_tracked_xi"),
    pytest.param("solve", "grid", {"margin": True}, "grid.margin",
                 id="boolean_margin"),
    pytest.param("reduce", "reduce", {"frequencies": ["1"]},
                 "reduce.frequencies[0]", id="string_reduce_frequency"),
    pytest.param("sweep", "analysis", {"require_ratio_two": "false"},
                 "analysis.require_ratio_two", id="string_flag"),
    # JSON readers accept NaN and Infinity, and a number field takes neither
    pytest.param("sweep", "analysis", {"nu": float("nan")}, "analysis.nu",
                 id="nan_nu"),
    # so does every number of a profile or root preset
    pytest.param("solve", "data", [{"preset": "constant", "value": True},
                                   {"preset": "zero"}],
                 "data[0].value", id="boolean_constant_value"),
    pytest.param("solve", "roots", {"preset": "constant", "values": [True, 2]},
                 "roots.values[0]", id="boolean_root_value"),
    pytest.param("solve", "roots", {"preset": "transport", "speed": "1.0"},
                 "roots.speed", id="string_transport_speed"),
    # an output time outside [0, horizon] would be snapped to the nearest
    # step and written under a time the run never reached
    pytest.param("solve", "grid", {"output_times": [0.5, 3.0]},
                 "grid.output_times[1]", id="output_time_past_horizon"),
    pytest.param("solve", "grid", {"output_times": [-0.1, 1.0]},
                 "grid.output_times[0]", id="negative_output_time"),
    pytest.param("solve", "grid", {"output_times": []}, "grid.output_times",
                 id="no_output_times"),
    # a lower-order term needs nu < j <= problem.order
    pytest.param("solve", "lower_terms",
                 [{"nu": 0, "j": 1, "profile": {"preset": "constant",
                                                "value": 1.0}},
                  {"nu": 1, "j": 1, "profile": {"preset": "constant",
                                                "value": 1.0}}],
                 "lower_terms[1]", id="lower_term_nu_not_below_j"),
    pytest.param("solve", "lower_terms",
                 [{"nu": 0, "j": 3, "profile": {"preset": "constant",
                                                "value": 1.0}}],
                 "lower_terms", id="lower_term_j_above_order"),
    *(pytest.param(subcommand, subcommand, {key: bad},
                   f"{subcommand}.{key}", id=f"{subcommand}_{key}_{bad}")
      for subcommand, key, bad in (
          ("roundtrip", "families", 0),
          ("roundtrip", "trials_per_family", -1),
          ("roundtrip", "max_order", 0),
          ("roundtrip", "max_dimension", -2),
          ("roundtrip", "omega", 1.5),
          ("roundtrip", "omega", 0),
          ("roundtrip", "omega", True),
          ("symmetriser", "count", -5),
          ("symmetriser", "max_order", 0),
          ("symmetriser", "form_trials", 0),
          ("reduce", "count", 0))),
])
def test_cli_malformed_config_is_a_config_error(tmp_path, capsys, subcommand,
                                                section, value, field):
    # each is reported before any stage runs, and nothing is written
    raw = _base_config()
    raw["regularisation"]["epsilon_sweep"] = [0.5, 0.25, 0.125, 0.0625]
    if value is None:
        del raw[section]
    elif section is None:
        raw.update(value)
    else:
        raw[section] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert f"(field: {field})" in err
    assert not out.exists()


@pytest.mark.parametrize("key, bad", [("time_steps", 0), ("box_length", -4),
                                      ("box_length", float("inf")),
                                      ("box_length", float("nan")),
                                      pytest.param("box_length", 10 ** 400,
                                                   id="box_length-huge_int"),
                                      pytest.param("time_steps", 10 ** 400,
                                                   id="time_steps-huge_int"),
                                      ("margin", 0.2)])
def test_cli_malformed_grid_is_a_config_error(tmp_path, capsys, key, bad):
    raw = _base_config()
    raw["grid"][key] = bad
    path = tmp_path / "bad_grid.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert f"(field: grid.{key})" in err
    if key == "margin":
        # the smallest margin allowed still fits the cone at every epsilon
        raw["grid"]["margin"] = CONE_MARGIN
        path.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [e["ok"] for e in summary["per_epsilon"]] == [True] * 3


def _solve_wave(tmp_path, output_times, sweep):
    """``solve`` on the wave of speed 1 with a d'Alembert reference, on 128
    points and 256 steps; returns its output directory."""
    raw = _base_config()
    raw["regularisation"]["epsilon_sweep"] = sweep
    raw["grid"] = {"points": 128, "time_steps": 256,
                   "output_times": output_times}
    raw["reference"] = {"kind": "dalembert", "speed": 1.0}
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    return out


def test_cli_output_times_on_one_step_are_written_once(tmp_path):
    # 0.001 snaps to step 0, like 0.0: two distinct steps, and the
    # reference is taken at those two times too
    sweep = [0.5, 0.25, 0.125]
    out = _solve_wave(tmp_path, [0.0, 0.001, 1.0], sweep)
    with open(out / "solution.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(sweep) * 2 * 128
    for i, e in enumerate(sweep):
        block = rows[i * 256:(i + 1) * 256]
        assert {float(r["epsilon"]) for r in block} == {e}
        assert [float(r["time"]) for r in block] == [0.0] * 128 + [1.0] * 128
    summary = _framed_summary(out)
    assert [row[0] for row in summary["reference"]["errors"]] == sweep


def test_cli_reference_is_taken_at_the_snapped_time(tmp_path):
    # 0.3 is no step of 256 on [0, 1]; the solution is written at the
    # nearest step, 77/256, and the reference must be taken there too
    out = _solve_wave(tmp_path, [0.3], [2.0 ** -16, 2.0 ** -17, 2.0 ** -18])
    with open(out / "solution.csv", newline="") as handle:
        assert {float(r["time"]) for r in csv.DictReader(handle)} \
            == {77 / 256}
    metrics = _framed_summary(out)["metrics"]
    assert metrics["dalembert_linf_error"] <= 1e-5


def test_profile_roots_may_meet():
    # -/+|2t - 1| coincide at t = 1/2; ordered roots may meet, not cross
    raw = _base_config()
    raw["roots"] = {"preset": "profiles", "profiles": [
        {"preset": "hoelder", "alpha": 1.0, "center": 0.5, "base": 0.0,
         "amplitude": sign} for sign in (-2.0, 2.0)]}
    family = build_problem(validate_config(raw)).family
    assert family.order == 2 and family.bound == 1.0
    raw["roots"] = {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                    "high": 4.0}
    assert build_problem(validate_config(raw)).family.bound == 2.0


def test_cli_roundtrip_subcommand(tmp_path):
    raw = {
        "problem": {"order": 2},
        "regularisation": {"epsilon_sweep": [0.5]},
        "roundtrip": {"families": 6, "trials_per_family": 1,
                      "max_order": 3, "max_dimension": 2, "omega": 0.05},
        "checks": {"roundtrip_max_rel_error": 1e-8},
        "run": {"seed": 9},
    }
    path = tmp_path / "rt.json"
    path.write_text(json.dumps(raw))
    result = _run_cli(["roundtrip", "--config", str(path),
                       "--out", str(tmp_path / "out")])
    assert result.returncode == 0, result.stderr
    summary = _framed_summary(tmp_path / "out")
    assert summary["checks_passed"] is True
    assert (tmp_path / "out" / "roundtrip.csv").exists()


def test_cli_sweep_subcommand(tmp_path):
    raw = _base_config()
    raw["regularisation"]["epsilon_sweep"] = [0.25, 0.125, 0.0625, 0.03125]
    raw["grid"] = {"points": 128, "time_steps": 512,
                   "output_times": [0.5, 1.0]}
    raw["roots"] = {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                    "high": 4.0}
    raw["reference"] = {"kind": "fine_epsilon", "divisor": 8.0}
    raw["analysis"] = {"seminorm": "fourier_proxy", "nu": 1.0}
    raw["checks"] = {"moderateness_r_squared_deficit": 0.2,
                     "convergence_mean_ratio": 0.9}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    result = _run_cli(["sweep", "--config", str(path),
                       "--out", str(tmp_path / "out")])
    assert result.returncode == 0, result.stderr
    out = tmp_path / "out"
    for name in ("moderateness.csv", "convergence.csv", "reference.csv",
                 "summary.json", "config.echo"):
        assert (out / name).exists()
    summary = _framed_summary(out)
    assert summary["reference"]["strictly_decreasing"] is True
    assert summary["convergence"]["non_cauchy"] is False
    # the per-epsilon diagnostics that solve reports
    entries = summary["per_epsilon"]
    assert [e["epsilon"] for e in entries] == raw["regularisation"][
        "epsilon_sweep"]
    for e in entries:
        assert e["ok"] is True
        assert e["omega"] == e["epsilon"]  # linear scale
        assert 0.0 <= e["step_doubling_max"] < 1e-6


def test_cli_symmetriser_and_reduce_subcommands(tmp_path):
    raw = {
        "problem": {"order": 2},
        "regularisation": {"epsilon_sweep": [0.5]},
        "symmetriser": {"count": 50, "max_order": 2, "spacing": 0.1},
        "reduce": {"count": 6, "sizes": [2, 3], "frequencies": [1.0, 5.0]},
        "checks": {},
        "run": {"seed": 2},
    }
    path = tmp_path / "audits.json"
    path.write_text(json.dumps(raw))
    res_sym = _run_cli(["symmetriser", "--config", str(path),
                        "--out", str(tmp_path / "sym")])
    assert res_sym.returncode == 0, res_sym.stderr
    sym_summary = _framed_summary(tmp_path / "sym")
    assert sym_summary["worst_intertwining"] <= 1e-10
    res_red = _run_cli(["reduce", "--config", str(path),
                        "--out", str(tmp_path / "red")])
    assert res_red.returncode == 0, res_red.stderr
    red_summary = _framed_summary(tmp_path / "red")
    assert red_summary["worst_cofactor_residual"] <= 1e-9
    assert red_summary["worst_block_eigen_error"] <= 1e-9


def _rerun_config(subcommand):
    """A small config for ``subcommand``."""
    if subcommand == "sweep":
        raw = _base_config()
        raw["regularisation"]["epsilon_sweep"] = [0.25, 0.125, 0.0625,
                                                  0.03125]
        raw["roots"] = {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                        "high": 4.0}
        raw["reference"] = {"kind": "fine_epsilon", "divisor": 2.0}
        return raw
    if subcommand == "solve":
        # the config sections no other CLI test reads: a lower-order term
        # that jumps where the principal part is constant, and a forcing
        raw = _base_config()
        raw["roots"] = {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                        "high": 2.0}
        raw["lower_terms"] = [{"nu": 0, "j": 1, "profile": {
            "preset": "heaviside", "jump": 0.3, "low": 0.5, "high": -0.5}}]
        raw["forcing"] = {"time": {"preset": "bump", "center": 0.5,
                                   "radius": 0.3},
                          "space": {"preset": "bump", "radius": 1.0}}
        return raw
    return {"problem": {"order": 2},
            "regularisation": {"epsilon_sweep": [0.5]},
            "roundtrip": {"families": 6, "max_order": 3,
                          "max_dimension": 2},
            "symmetriser": {"count": 40, "max_order": 4, "form_trials": 3},
            "reduce": {"count": 4, "sizes": [2, 3, 4]},
            "run": {"seed": 11}}


@pytest.mark.parametrize("subcommand", ["sweep", "solve", "roundtrip",
                                        "symmetriser", "reduce"])
def test_cli_reruns_write_the_same_bytes(tmp_path, subcommand):
    # solve runs with lower-order terms and forcing here, and without them
    # in test_cli_solve_passes_and_is_deterministic; the dropped summary
    # line is the run's wall time, runtime_seconds
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_rerun_config(subcommand)))
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        result = _run_cli([subcommand, "--config", str(path),
                           "--out", str(out), "--jobs", jobs])
        assert result.returncode == 0, result.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "summary.json" in names and len(names) >= 3
    for name in names:
        if name == "summary.json":
            assert _without_runtime(outs[0] / name) \
                == _without_runtime(outs[1] / name)
        else:
            assert (outs[0] / name).read_bytes() \
                == (outs[1] / name).read_bytes(), name


def test_cli_audit_csvs_equal_the_per_item_paths(tmp_path, monkeypatch):
    raw = {
        "problem": {"order": 2},
        "regularisation": {"epsilon_sweep": [0.5]},
        "symmetriser": {"count": 80, "max_order": 4, "form_trials": 5},
        "roundtrip": {"families": 12, "max_order": 4, "max_dimension": 3},
        "run": {"seed": 4},
    }
    path = tmp_path / "audits.json"
    path.write_text(json.dumps(raw))

    def run(subcommand, out):
        assert main([subcommand, "--config", str(path),
                     "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / f"{subcommand}.csv").read_bytes()

    # one tuple at a time, drawing each trial's real and imaginary parts
    rows, violations = symmetriser_audit_rows(80, 4, 0.05, 3.0, 5, seed=4)
    write_csv(tmp_path / "oracle.csv",
              ("index", "order", "spacing", "intertwining_residual",
               "det_rel_error", "eigen_floor", "det_value",
               "vandermonde_squared"), rows)
    assert run("symmetriser", "sym") == (tmp_path / "oracle.csv").read_bytes()
    assert _framed_summary(tmp_path / "sym")["bound_violations"] == violations
    # a table and symmetric functions per direction instead of one table
    # per family
    table = run("roundtrip", "table")
    monkeypatch.setattr(RegularisedRoots, "direction_table",
                        table_per_direction)
    monkeypatch.setattr(recovery, "symmetric_functions", sigma_per_row)
    assert run("roundtrip", "per_root") == table


def test_write_csv_takes_a_sized_row_source(tmp_path):
    header = ("index", "value")
    rows = [(i, 0.1 * i) for i in range(7)]
    write_csv(tmp_path / "list.csv", header, rows)
    source = RowSource(7, lambda: ((i, 0.1 * i) for i in range(7)))
    write_csv(tmp_path / "source.csv", header, source)
    assert len(source) == 7
    assert (tmp_path / "source.csv").read_bytes() \
        == (tmp_path / "list.csv").read_bytes()
    for bad in ([(1, 2.0), (3,)], RowSource(1, lambda: iter([(1, 2.0, 3)]))):
        with pytest.raises(ValueError, match="row width"):
            write_csv(tmp_path / "bad.csv", header, bad)



def test_write_csv_records_equal_format_number(tmp_path):
    # one % format per row type against the entry-by-entry format_number
    # join; a table whose entry types change from row to row included
    header = ("a", "b", "c")
    rows = [(0.1, 3, -0.0), (float("nan"), -7, float("inf")),
            (float("-inf"), 10 ** 20, 1e-310), (True, 2, 1.5 + 2.0j),
            (np.float64(1 / 3), np.int64(4), "x"), (5, 0.25, False),
            (0.1, 3, -0.0), (1e22, 2 ** 70, complex(-0.0, -1.0))]
    write_csv(tmp_path / "mixed.csv", header, rows)
    expected = "a,b,c\n" + "".join(
        ",".join(format_number(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "mixed.csv").read_text() == expected

def test_net_tables_state_the_rows_they_write(tmp_path):
    raw = _base_config()
    raw["grid"].update(output_times=[0.0, 0.5, 1.0],
                       tracked_frequencies=[2.0, 5.0])
    cfg = validate_config(raw)
    problem = build_problem(cfg)
    tables = {}
    _net_tables(solve_very_weak(problem, cfg.epsilon_sweep), problem, tables)
    assert sorted(tables) == ["energy", "solution", "spectrum"]
    for name, (header, rows) in tables.items():
        write_csv(tmp_path / f"{name}.csv", header, rows)
        with open(tmp_path / f"{name}.csv", newline="") as handle:
            written = list(csv.reader(handle))
        assert written[0] == list(header)
        assert len(written) - 1 == len(rows) > 0
        # a source may be written again, and gives the same rows
        assert sum(1 for _ in rows) == len(rows)


def test_energy_table_lands_on_the_sample_steps(tmp_path):
    # 1000 steps: the energy samples are every 15th step, 0 ... 990, so 67
    # rows per epsilon and tracked frequency; each is the energy of the
    # state that lands on its step, as an every-step run's trace gives it
    raw = _base_config()
    raw["roots"] = {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                    "high": 2.0}
    raw["grid"].update(time_steps=1000, tracked_frequencies=[2.0, 5.0])
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "energy.csv", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = [tuple(map(float, row)) for row in reader]
    problem = build_problem(validate_config(raw))
    samples = np.arange(0, 991, 15)
    assert np.array_equal(problem.trace_steps, samples)
    t_grid = problem.time_grid
    expected = []
    for e in raw["regularisation"]["epsilon_sweep"]:
        system = build_regularised_system(problem, e)[0]
        result, = integrate_companion(
            [system], problem.grid.frequencies, t_grid, [e],
            tracked_indices=problem.tracked_indices,
            trace_steps=range(t_grid.size))
        trace = energy_trace(system, result.traces[..., samples],
                             t_grid[samples], problem.tracked_frequencies)
        for xi, energies in zip(problem.tracked_frequencies,
                                trace.energies.tolist()):
            expected += [(e, xi, t, en) for t, en in
                         zip(trace.times.tolist(), energies)]
    assert len(rows) == len(expected) == 3 * 2 * 67
    got, want = np.array(rows), np.array(expected)
    # the bump's states are nonzero, so each energy is positive
    assert (want[:, 3] > 0.0).all()
    assert np.array_equal(got[:, :3], want[:, :3])
    assert np.allclose(got[:, 3], want[:, 3], rtol=1e-12, atol=0.0)


# Run in a fresh process: which modules a solve and a sweep leave loaded.
_FOOTPRINT_PROBE = r"""
import json, sys
from weakhyp.cli import main
config, out = sys.argv[1:]
status = [main([sub, "--config", config, "--out", f"{out}/{sub}"])
          for sub in ("solve", "sweep")]
loaded = [name for name in ("_hashlib", "numpy.ma") if name in sys.modules]
print(json.dumps({"status": status, "loaded": loaded}))
"""


def test_solve_and_sweep_load_neither_openssl_nor_numpy_ma(tmp_path):
    # the config hash takes the interpreter's own SHA-256, and the solve
    # path calls no numpy set routine, which would import numpy.ma
    raw = _base_config()
    raw["roots"] = {"preset": "heaviside", "jump": 0.5, "low": 1.0,
                    "high": 4.0}
    raw["regularisation"]["epsilon_sweep"] = [0.25, 0.125, 0.0625, 0.03125]
    raw["grid"] = {"points": 64, "time_steps": 256,
                   "output_times": [0.5, 1.0]}
    raw["reference"] = {"kind": "fine_epsilon"}
    path = tmp_path / "footprint.json"
    path.write_text(json.dumps(raw))
    probe = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, str(path), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result == {"status": [0, 0], "loaded": []}



# Run in a fresh process: which of the random-number modules an audit leaves
# loaded, beyond those that importing numpy loads by itself.
_AUDIT_FOOTPRINT_PROBE = r"""
import json, sys
import numpy
names = ("numpy.random", "secrets", "_hashlib")
preloaded = [name for name in names if name in sys.modules]
from weakhyp.cli import main
status = main(sys.argv[1:])
loaded = [name for name in names
          if name in sys.modules and name not in preloaded]
print(json.dumps({"status": status, "loaded": loaded}))
"""


@pytest.mark.parametrize("subcommand", ["roundtrip", "symmetriser", "reduce"])
def test_audits_load_neither_numpy_random_nor_openssl(tmp_path, subcommand):
    # the audits draw from the standard library's random.Random; numpy's
    # generators would import secrets, hashlib and so OpenSSL
    raw = {
        "problem": {"order": 2},
        "regularisation": {"epsilon_sweep": [0.5]},
        "roundtrip": {"families": 4},
        "symmetriser": {"count": 8},
        "reduce": {"count": 2},
        "run": {"seed": 3},
    }
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(raw))
    probe = subprocess.run(
        [sys.executable, "-c", _AUDIT_FOOTPRINT_PROBE, subcommand,
         "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result == {"status": 0, "loaded": []}

# Run in a fresh process: the threads left running once the CLI is imported.
_THREADS_PROBE = r"""
import json, os
import weakhyp.cli
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.parametrize("openblas", [None, "2"])
def test_cli_import_starts_no_blas_helper_unless_the_caller_asks(openblas):
    # weakhyp sets OPENBLAS_NUM_THREADS=1 before numpy loads, so OpenBLAS
    # starts no helper thread; a caller's own value wins, and OpenBLAS then
    # runs as many threads as it names, up to the cores it may use
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs /proc/self/task")
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    probe = subprocess.run([sys.executable, "-c", _THREADS_PROBE],
                           capture_output=True, text=True, timeout=120,
                           env=env)
    assert probe.returncode == 0, probe.stderr
    result = json.loads(probe.stdout.splitlines()[-1])
    threads = 1 if openblas is None else min(int(openblas),
                                             len(os.sched_getaffinity(0)))
    assert result == {"threads": threads, "openblas": openblas or "1"}
