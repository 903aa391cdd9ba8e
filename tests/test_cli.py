"""Command-line interface: subcommands, exit codes, output formats."""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from gammadesign import cli
from gammadesign.cli import render_json, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ------------------------------------------------------------------- design


def test_design_orthant_d(capsys):
    payload = run_json(
        capsys,
        "design", "--model", "first_order", "--region", "orthant",
        "--nu", "3", "--criterion", "D",
    )
    assert payload["provenance"] == "analytic"
    assert payload["points"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert payload["weights"] == pytest.approx([1 / 3] * 3)


def test_design_verify_round_trip(capsys, tmp_path):
    design_file = tmp_path / "design.json"
    code, _, _ = run_cli(
        capsys,
        "design", "--model", "first_order", "--region", "orthant",
        "--nu", "3", "--output", str(design_file),
    )
    assert code == 0
    report = run_json(
        capsys,
        "verify", "--model", "first_order", "--region", "orthant", "--nu", "3",
        "--beta", "1,2,3", "--design", str(design_file),
    )
    assert report["pass"] is True
    assert report["worst_excess"] <= 1e-9


def test_design_interaction_analytic(capsys):
    payload = run_json(
        capsys,
        "design", "--model", "interaction", "--a", "1", "--b", "4",
        "--beta", "2,-0.5,0.3",
    )
    assert payload["provenance"] == "analytic"
    assert sorted(payload["points"]) == [[1, 1], [1, 4], [4, 4]]


def test_design_interaction_numerical(capsys):
    payload = run_json(
        capsys,
        "design", "--model", "interaction", "--a", "1", "--b", "2",
        "--beta", "1,2,0.5",
    )
    assert payload["provenance"] == "numerical"
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)


def test_design_simplex_branch(capsys):
    payload = run_json(
        capsys,
        "design", "--nu", "4", "--a", "1", "--b", "10", "--beta", "1,1,1,1",
        "--region", "hypercube",
    )
    assert payload["provenance"] == "analytic"
    assert len(payload["points"]) == 4
    assert all(sorted(pt) == [1, 1, 1, 10] for pt in payload["points"])


def test_design_a_orthant_requires_beta(capsys):
    code, _, err = run_cli(
        capsys,
        "design", "--region", "orthant", "--nu", "2", "--criterion", "A",
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize(
    "flags, region",
    [
        (("--region", "orthant", "--nu", "2", "--beta=-1,0.4"), "orthant"),
        (("--region", "orthant", "--nu", "2", "--beta=-1,0.4", "--criterion", "A"), "orthant"),
        (("--nu", "2", "--a", "1", "--b", "2", "--beta=-1,0.4"), "hypercube"),
        (("--nu", "2", "--a", "1", "--b", "2", "--beta=-1,0.4", "--criterion", "A"), "hypercube"),
        (("--nu", "3", "--a", "1", "--b", "2", "--beta=-1,0.4,0.4"), "hypercube"),
        (("--model", "interaction", "--a", "1", "--b", "2", "--beta=-1,0.4,0.1"), "hypercube"),
    ],
    ids=["orthant_D", "orthant_A", "square_D", "square_A", "cube_D", "interaction"],
)
def test_design_inadmissible_beta_exits_two_with_one_message(capsys, flags, region):
    code, out, err = run_cli(capsys, "design", *flags)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ValidationError",
        "message": f"beta violates positivity on the {region}",
    }


@pytest.mark.parametrize("criterion", ["D", "A"])
def test_design_infinite_scale_exits_two_with_the_scale_rule(capsys, criterion):
    """An infinite scale was refused only later, as a non-finite support point."""
    argv = ("design", "--region", "orthant", "--nu", "2", "--beta", "1,1", "--criterion", criterion, "--scale", "inf,1")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ValidationError", "message": "scale entries must satisfy 0 < s < inf"}


# The first-order hypercube branches of ``design``, each pinned to its exact stdout.
CUBE_DESIGNS = {
    "square_D": (
        ("--nu", "2"),
        '{"points": [[1, 2], [2, 1]], "weights": [0.5, 0.5], "provenance": "analytic"}\n',
    ),
    "square_A": (
        ("--nu", "2", "--beta", "1,2", "--criterion", "A"),
        '{"points": [[1, 2], [2, 1]], "weights": [0.5555555556, 0.4444444444], "provenance": "analytic"}\n',
    ),
    "cube_xi3": (
        ("--nu", "3", "--beta", "1,0,0"),
        '{"points": [[2, 1, 1], [1, 2, 1], [1, 1, 2], [1, 2, 2]], '
        '"weights": [0.3125, 0.28125, 0.28125, 0.125], "provenance": "analytic"}\n',
    ),
    "cube_band": (
        ("--nu", "3", "--beta=-1,2,2"),
        '{"points": [[1, 1, 2], [1, 2, 1], [2, 1, 1], [2, 1, 2], [2, 2, 1]], '
        '"weights": [0.2604166667, 0.2604166667, 0.3125, 0.08333333333, 0.08333333333], '
        '"provenance": "numerical"}\n',
    ),
    "cube_unequal_beta": (
        ("--nu", "3", "--beta=-1,2,3"),
        '{"points": [[1, 1, 2], [1, 2, 1], [2, 1, 1], [2, 2, 1]], '
        '"weights": [0.3255162069, 0.2713196676, 0.3201964553, 0.08296767016], "provenance": "numerical"}\n',
    ),
    "cube_A": (("--nu", "3", "--criterion", "A"), None),
}


@pytest.mark.parametrize("flags, stdout", CUBE_DESIGNS.values(), ids=CUBE_DESIGNS.keys())
def test_design_first_order_hypercube_branches(capsys, flags, stdout):
    code, out, err = run_cli(capsys, "design", "--region", "hypercube", "--a", "1", "--b", "2", *flags)
    if stdout is None:
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == "A-optimal hypercube designs are available for nu = 2 only"
    else:
        assert (code, out, err) == (0, stdout, "")


def test_design_cube_band_weights_are_exact(capsys):
    # gamma = -2 lies in the numerical band; its optimum is known exactly
    payload = run_json(capsys, "design", "--region", "hypercube", "--a", "1", "--b", "2", "--nu", "3", "--beta=-1,2,2")
    assert payload["weights"] == pytest.approx([25 / 96, 25 / 96, 5 / 16, 1 / 12, 1 / 12], abs=1e-10)


# ----------------------------------------------------------------- classify


def test_classify_numerical_region(capsys):
    payload = run_json(capsys, "classify", "--beta1-sign", "neg", "--gamma", "-2")
    assert payload["label"] == "Xi5Numerical"
    assert payload["design"] is None


def test_classify_closed_form(capsys):
    payload = run_json(capsys, "classify", "--beta1-sign", "pos", "--gamma", "1")
    assert payload["label"] == "Xi1"
    assert payload["design"]["weights"] == pytest.approx([1 / 3] * 3)


def test_classify_zero_sign_needs_no_gamma(capsys):
    payload = run_json(capsys, "classify", "--beta1-sign", "zero")
    assert payload["label"] == "Xi1"


def test_classify_missing_gamma(capsys):
    code, _, err = run_cli(capsys, "classify", "--beta1-sign", "pos")
    assert code == 2
    assert "gamma" in json.loads(err)["error"]["message"]


# ------------------------------------------------------------------- verify


def test_verify_failure_exits_zero(capsys, tmp_path):
    design_file = tmp_path / "simplex.json"
    code, _, _ = run_cli(
        capsys,
        "design", "--nu", "3", "--a", "1", "--b", "2", "--beta", "1,1,1",
        "--region", "hypercube", "--output", str(design_file),
    )
    assert code == 0
    # a wrong beta is a sound verification question, not an error
    report = run_json(
        capsys,
        "verify", "--nu", "3", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta", "1,0.1,0.1", "--design", str(design_file),
    )
    assert report["pass"] is False
    assert report["worst_point"] == [1, 2, 2]


def test_verify_candidate_file(capsys, tmp_path):
    design_file = tmp_path / "design.json"
    cand_file = tmp_path / "cands.json"
    design_file.write_text(
        json.dumps({"points": [[1, 0], [0, 1]], "weights": [0.5, 0.5]})
    )
    cand_file.write_text(json.dumps([[1, 0], [0, 1], [0.3, 0.7]]))
    report = run_json(
        capsys,
        "verify", "--nu", "2", "--beta", "1,1",
        "--design", str(design_file), "--candidates", str(cand_file),
    )
    assert report["pass"] is True
    assert len(report["values"]) == 3


def test_verify_singular_design_exits_one(capsys, tmp_path):
    design_file = tmp_path / "flat.json"
    design_file.write_text(
        json.dumps({"points": [[1, 1, 1], [2, 2, 2]], "weights": [0.5, 0.5]})
    )
    code, _, err = run_cli(
        capsys,
        "verify", "--nu", "3", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta", "1,1,1", "--design", str(design_file),
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "SingularInformation"


def test_verify_nan_tol_exits_two(capsys, tmp_path):
    design_file = tmp_path / "design.json"
    design_file.write_text(json.dumps({"points": [[1, 2], [2, 1]], "weights": [0.5, 0.5]}))
    code, out, err = run_cli(
        capsys,
        "verify", "--nu", "2", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta", "1,1", "--design", str(design_file), "--tol", "nan",
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ValidationError", "message": "tol must be finite"}


def test_verify_negative_tol_exits_two(capsys, tmp_path):
    design_file = tmp_path / "design.json"
    design_file.write_text(json.dumps({"points": [[1, 2], [2, 1]], "weights": [0.5, 0.5]}))
    argv = ("verify", "--nu", "2", "--region", "hypercube", "--a", "1", "--b", "2", "--beta", "1,1", "--design", str(design_file))
    code, out, err = run_cli(capsys, *argv, "--tol", "-1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ValidationError", "message": "tol must be nonnegative"}
    assert run_cli(capsys, *argv, "--tol", "0")[0] == 0


def test_verify_requires_candidate_source(capsys, tmp_path):
    design_file = tmp_path / "design.json"
    design_file.write_text(
        json.dumps({"points": [[1, 0], [0, 1]], "weights": [0.5, 0.5]})
    )
    code, _, err = run_cli(
        capsys, "verify", "--nu", "2", "--beta", "1,1", "--design", str(design_file)
    )
    assert code == 2
    assert "candidates" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize(
    "content", ["[1, 2, 3]", '{"x": 1}', '[[1, 2, "a"]]', "[[1, 2, 3], [1, 2]]", '["123", "456", "789"]']
)
def test_malformed_candidate_file(capsys, tmp_path, command, content):
    design_file = tmp_path / "design.json"
    design_file.write_text(
        json.dumps({"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "weights": [0.25, 0.25, 0.5]})
    )
    cand_file = tmp_path / "cands.json"
    cand_file.write_text(content)
    argv = [command, "--nu", "3", "--beta", "1,1,1", "--candidates", str(cand_file)]
    if command == "verify":
        argv += ["--design", str(design_file)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_malformed_design_points(capsys, tmp_path):
    design_file = tmp_path / "design.json"
    design_file.write_text(json.dumps({"points": [1, 2, 3], "weights": [0.25, 0.25, 0.5]}))
    code, _, err = run_cli(
        capsys,
        "verify", "--nu", "3", "--region", "orthant", "--beta", "1,1,1",
        "--design", str(design_file),
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("field", ["points", "weights"])
def test_design_with_an_int_too_large_for_a_float_exits_two(capsys, tmp_path, field):
    """A 401-digit JSON integer printed a traceback (OverflowError) instead of a JSON error."""
    huge = "1" + "0" * 400
    design = {"points": "[[1, 2], [2, 1]]", "weights": "[0.5, 0.5]"}
    design[field] = {"points": f"[[1, {huge}], [2, 1]]", "weights": f"[{huge}, 0.5]"}[field]
    design_file = tmp_path / "design.json"
    design_file.write_text('{"points": %(points)s, "weights": %(weights)s}' % design)
    code, out, err = run_cli(
        capsys,
        "verify", "--nu", "2", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta", "1,1", "--design", str(design_file),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_verify_missing_design_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "verify", "--nu", "2", "--region", "orthant", "--beta", "1,1",
        "--design", str(tmp_path / "absent.json"),
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_output_to_a_directory_exits_one(capsys, tmp_path):
    """An OSError is a computation failure: exit 1, one JSON error object, nothing on stdout."""
    code, out, err = run_cli(capsys, "design", "--nu", "3", "--region", "orthant", "--output", str(tmp_path))
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "IsADirectoryError"


# -------------------------------------------------------------------- solve


def test_solve_writes_trace(capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    payload = run_json(
        capsys,
        "solve", "--nu", "3", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta=-1,2,2", "--trace", str(trace_file),
    )
    assert payload["provenance"] == "numerical"
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)
    trace = json.loads(trace_file.read_text())
    assert trace["converged"] is True
    assert len(trace["log_dets"]) == trace["iterations"] + 1


def test_solve_deterministic_output(capsys, tmp_path):
    argv = (
        "solve", "--nu", "3", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta=-1,1.5,1.5",
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == second


def test_solve_cap_hit_is_one_json_warning(capsys):
    """A cap hit used to reach stderr as Python's warning text with the source line."""
    argv = ("solve", "--nu", "3", "--beta=-1,2.5,2.5", "--region", "hypercube", "--a", "1", "--b", "2")
    code, out, err = run_cli(capsys, *argv, "--max-iterations", "1")
    assert code == 0
    assert out == (
        '{"points": [[1, 1, 2], [1, 2, 1], [1, 2, 2], [2, 1, 1], [2, 1, 2], [2, 2, 1]], '
        '"weights": [0.1666666667, 0.1666666667, 0.1666666667, 0.1666666667, 0.1666666667, 0.1666666667], '
        '"provenance": "numerical"}\n'
    )
    message = "solver stopped after 1 iterations with sensitivity excess 1.609e+00"
    assert err == cli.render_json({"warning": {"type": "IterationCapExceeded", "message": message}}) + "\n"
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""


def test_solve_bad_beta_length(capsys):
    code, _, err = run_cli(
        capsys,
        "solve", "--nu", "3", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta", "1,2",
    )
    assert code == 2
    assert "3 entries" in json.loads(err)["error"]["message"]


def test_solve_nonpositive_candidate_exits_two(capsys):
    code, _, err = run_cli(
        capsys,
        "solve", "--nu", "2", "--region", "hypercube", "--a", "1", "--b", "2",
        "--beta=-1,0.4",
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NonpositivePredictor"


def test_solve_rank_deficient_exits_one(capsys, tmp_path):
    cand_file = tmp_path / "cands.json"
    cand_file.write_text(json.dumps([[1.0, 2.0], [2.0, 4.0]]))
    code, _, err = run_cli(
        capsys,
        "solve", "--nu", "2", "--beta", "1,1", "--candidates", str(cand_file),
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "RankDeficientCandidates"


# --------------------------------------------------------------- efficiency


def test_efficiency_stdout_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "efficiency", "--family", "three-factor",
        "--start", "0.2", "--stop", "0.3", "--step", "0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("gamma,xi1,")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.2)
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)


def test_efficiency_files(capsys, tmp_path):
    csv_file = tmp_path / "sweep.csv"
    json_file = tmp_path / "sweep.json"
    code, out, _ = run_cli(
        capsys,
        "efficiency", "--family", "interaction",
        "--start", "1", "--stop", "2", "--step", "0.5",
        "--output", str(csv_file), "--json", str(json_file),
    )
    assert code == 0
    assert out == ""
    header = csv_file.read_text().splitlines()[0]
    assert header.startswith("gamma,xi1,")
    payload = json.loads(json_file.read_text())
    assert payload["gammas"] == [1.0, 1.5, 2.0]
    assert payload["designs"][0] == "xi1"


def test_efficiency_rejects_unreachable_grid(capsys):
    code, _, err = run_cli(
        capsys,
        "efficiency", "--family", "three-factor",
        "--start", "0", "--stop", "0.25", "--step", "0.1",
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_efficiency_refuses_bounds_for_the_three_factor_family(capsys):
    code, out, err = run_cli(capsys, "efficiency", "--family", "three-factor", "--a", "3", "--b", "9")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ValidationError", "message": "--a and --b apply to the interaction family only"}


def test_efficiency_interaction_bounds_default_to_the_family(capsys):
    def sweep(*bounds):
        grid = ("--start", "1", "--stop", "2", "--step", "0.5")
        code, out, _ = run_cli(capsys, "efficiency", "--family", "interaction", *bounds, *grid)
        assert code == 0
        return out

    assert sweep() == sweep("--a", "1", "--b", "4")
    assert sweep("--a", "2") == sweep("--a", "2", "--b", "4") != sweep()


# ---------------------------------------------------------------- reproduce

TABULATED = {
    -2.9: (0.3312, 0.3285, 0.0059),
    -2.5: (0.3225, 0.3051, 0.0336),
    -2.0: (0.3125, 0.2604, 0.0833),
    -1.5: (0.3125, 0.1701, 0.1736),
    -1.23: (0.3297, 0.0325, 0.3027),
}


def test_reproduce_table2(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reproduce", "table2", "--outdir", str(tmp_path))
    assert code == 0
    written = json.loads(out)["written"]
    assert written == [str(tmp_path / "table2.csv")]

    lines = (tmp_path / "table2.csv").read_text().strip().splitlines()
    assert lines[0] == "gamma,v1,v2,v3,v4,v5,v6,v7,v8"
    assert len(lines) == 6
    for line in lines[1:]:
        gamma, *weights = (float(cell) for cell in line.split(","))
        w2, w3, w7 = TABULATED[gamma]
        assert weights[0] < 1e-4 and weights[4] < 1e-4 and weights[7] < 1e-4
        assert weights[1] == pytest.approx(w2, abs=2e-3)
        assert weights[2] == pytest.approx(w3, abs=2e-3)
        assert weights[3] == pytest.approx(w3, abs=2e-3)
        assert weights[5] == pytest.approx(w7, abs=2e-3)
        assert weights[6] == pytest.approx(w7, abs=2e-3)


def test_reproduce_example1(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reproduce", "example1", "--outdir", str(tmp_path))
    assert code == 0
    path = tmp_path / "example1.csv"
    assert json.loads(out)["written"] == [str(path)]
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["gamma", "xi1"]
    assert len(lines) == 126  # 125 grid points plus the header


GOLDEN_DIR = Path(__file__).resolve().parents[1] / "bench" / "golden"


@pytest.mark.parametrize("target", ["table2", "example1", "example2"])
def test_reproduce_matches_golden_bytes(capsys, tmp_path, target):
    code, _, err = run_cli(capsys, "reproduce", target, "--outdir", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / f"{target}.csv").read_bytes() == (GOLDEN_DIR / f"{target}.csv").read_bytes()


REPO_ROOT = Path(__file__).resolve().parents[1]
EXPECTED_DIR = REPO_ROOT / "tests" / "cli_expected"
# One "name argv..." line per command; the CI workflow runs the same lines with the installed script.
EXPECTED_COMMANDS = [line.split(maxsplit=1) for line in (EXPECTED_DIR / "commands.txt").read_text().splitlines()]


@pytest.mark.parametrize("name, argv", EXPECTED_COMMANDS, ids=[name for name, _ in EXPECTED_COMMANDS])
def test_design_and_verify_match_expected_bytes(capsys, monkeypatch, name, argv):
    """``design``, ``verify`` (D and A) and ``solve`` stdout, byte for byte as committed."""
    monkeypatch.chdir(REPO_ROOT)  # the verify lines name their design files from the repository root
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == "", err
    assert out.encode() == (EXPECTED_DIR / f"{name}.json").read_bytes()


@pytest.mark.parametrize("family", ["three-factor", "interaction"])
def test_efficiency_defaults_match_expected_bytes(capsys, family):
    """``efficiency`` stdout over the family's default grid, byte for byte as committed."""
    code, out, err = run_cli(capsys, "efficiency", "--family", family)
    assert code == 0 and err == "", err
    assert out.encode() == (EXPECTED_DIR / f"efficiency_{family.replace('-', '_')}.csv").read_bytes()


def test_saturated_floats_print_as_json_parses_them(capsys, monkeypatch):
    """At beta near 1e200 the A bound and values saturate to inf, printed as Infinity, not as a bare inf."""
    monkeypatch.chdir(REPO_ROOT)
    argv = "verify --nu 2 --region hypercube --a 1 --b 3 --beta 1e200,3e200 --criterion A --design tests/cli_expected/design_A.json"
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == "", err
    report = json.loads(out)
    assert report["bound"] == math.inf and '"bound": Infinity' in out
    assert render_json([math.inf, -math.inf, math.nan, 0.5]) == "[Infinity, -Infinity, NaN, 0.5]"


# ----------------------------------------------------------- console script


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "gammadesign.cli",
         "design", "--region", "orthant", "--nu", "2"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["points"] == [[1, 0], [0, 1]]


# ------------------------------------------------------------- parser reuse


def test_parser_is_built_by_the_first_run_only(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "classify", "--beta1-sign", "zero")[0] == 0
    assert len(built) == 7  # the main parser and one per subcommand
    assert run_cli(capsys, "classify", "--beta1-sign", "zero")[0] == 0
    assert len(built) == 7


def test_runs_on_the_shared_parser_leak_no_state(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    square = ("design", "--region", "hypercube", "--a", "1", "--b", "2", "--nu", "2")
    square_stdout = CUBE_DESIGNS["square_D"][1]
    design_file = tmp_path / "design.json"
    assert run_cli(capsys, *square, "--output", str(design_file)) == (0, "", "")
    assert design_file.read_text() == square_stdout
    assert run_cli(capsys, "classify", "--beta1-sign", "pos", "--gamma", "1") == (
        0,
        '{"label": "Xi1", "design": {"points": [[2, 1, 1], [1, 2, 1], [1, 1, 2]], '
        '"weights": [0.3333333333, 0.3333333333, 0.3333333333]}, "numerical": false, "gamma": 1}\n',
        "",
    )
    with pytest.raises(SystemExit) as exit_info:
        run(["design", "--no-such-flag"])
    assert exit_info.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: gammadesign [-h]\n"
        "                   {design,classify,verify,solve,efficiency,reproduce} ...\n"
        "gammadesign: error: unrecognized arguments: --no-such-flag\n",
    )
    assert run_cli(capsys, *square) == (0, square_stdout, "")


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(k) or init(self, *a, **k)\n"
        "import gammadesign.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
