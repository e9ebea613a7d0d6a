"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctstat import cli
from ctstat.cli import main
from ctstat.special import ml_survival


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, columns, rows


def test_ml_single_row(capsys):
    code, out, _ = run(capsys, ["ml", "--alpha", "1", "--z", "-1"])
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert config["subcommand"] == "ml"
    assert config["alpha"] == 1.0
    assert columns == ["z", "ml_value"]
    assert rows == [["-1", "0.367879441171"]]


def test_ml_grid_json(capsys):
    code, out, _ = run(
        capsys,
        ["ml", "--alpha", "1", "--zmin", "-5", "--zmax", "0",
         "--points", "6", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["z", "ml_value"]
    for z, value in doc["rows"]:
        assert value == pytest.approx(math.exp(z), abs=1e-12)


def test_header_reruns_identically(capsys):
    code, first, _ = run(
        capsys, ["ml", "--alpha", "0.7", "--zmin", "-3", "--zmax", "0", "--points", "4"]
    )
    assert code == 0
    config, _, _ = parse_csv(first)
    argv = [config.pop("subcommand")]
    for key, value in config.items():
        if value is not None:
            argv += [f"--{key}", str(value)]
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert second == first


def test_ml_far_negative_argument(capsys):
    # x^(1/a) = 1e400 is past double range; the value 1/(x Gamma(1/2))
    # is not
    code, out, _ = run(capsys, ["ml", "--alpha", "0.5", "--z=-1e200"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(1e-200 / math.sqrt(math.pi), rel=1e-8)


def test_exit_codes(capsys):
    # E_{1/2}(30) ~ 1e391 overflows a double, so the positive-argument
    # series cannot meet its budget
    code, _, err = run(capsys, ["ml", "--alpha", "0.5", "--z", "30"])
    assert code == 3
    assert "numeric error" in err
    code, _, err = run(capsys, ["pmf", "--waits", "exp:-1", "--t", "1"])
    assert code == 2
    assert "domain error" in err
    code, _, err = run(
        capsys, ["ml", "--alpha", "1", "--z", "-1", "--out", "/no/such/dir/x.csv"]
    )
    assert code == 4
    assert "i/o error" in err
    code, _, _ = run(capsys, ["ml", "--alpha", "1", "--z", "-1", "--bogus"])
    assert code == 2
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_law_flag_validation(capsys):
    code, _, err = run(
        capsys,
        ["pmf", "--waits", "exp:1", "--alpha", "0.7", "--t", "1"],
    )
    assert code == 2
    assert "not both" in err
    code, _, err = run(capsys, ["pmf", "--t", "1"])
    assert code == 2
    code, _, err = run(
        capsys,
        ["analytic", "--stat", "max", "--jumps", "nope:1", "--alpha", "1",
         "--t", "1", "--umax", "1"],
    )
    assert code == 2
    assert "jump law" in err


def test_pmf_unit_order_matches_poisson(capsys):
    code, out, _ = run(
        capsys, ["pmf", "--waits", "ml:1", "--t", "2", "--nmax", "10"]
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["n", "probability"]
    for n_text, p_text in rows:
        n = int(n_text)
        ref = math.exp(-2.0) * 2.0**n / math.factorial(n)
        assert float(p_text) == pytest.approx(ref, abs=1e-6)


def test_epochs_repeatable_and_ordered(capsys, tmp_path):
    args = ["epochs", "--waits", "exp:2", "--tmax", "10", "--seed", "11"]
    code, first, _ = run(capsys, args)
    assert code == 0
    code, second, _ = run(capsys, args)
    assert second == first
    _, columns, rows = parse_csv(first)
    assert columns == ["n", "epoch"]
    times = [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert times[-1] <= 10.0
    code, other, _ = run(
        capsys, ["epochs", "--waits", "exp:2", "--tmax", "10", "--seed", "12"]
    )
    assert other != first
    # file output carries the same payload
    target = tmp_path / "epochs.csv"
    code, _, _ = run(capsys, args + ["--out", str(target)])
    assert code == 0
    on_disk = target.read_text()
    assert on_disk.splitlines()[1:] == first.splitlines()[1:]


def test_invert_named_symbols(capsys):
    code, out, _ = run(
        capsys, ["invert", "--symbol", "density", "--waits", "exp:1", "--t", "1"]
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(math.exp(-1.0), abs=1e-6)
    code, _, err = run(
        capsys, ["invert", "--symbol", "marginal", "--waits", "exp:1", "--t", "1"]
    )
    assert code == 2
    assert "--v" in err
    code, out, _ = run(
        capsys,
        ["invert", "--symbol", "survival", "--alpha", "0.7",
         "--tmin", "0.5", "--tmax", "2", "--points", "4", "--method", "talbot"],
    )
    assert code == 0
    _, _, rows = parse_csv(out)
    for t_text, v_text in rows:
        ref = ml_survival(0.7, float(t_text))
        assert float(v_text) == pytest.approx(ref, abs=1e-8)


def test_analytic_max_gumbel_point(capsys):
    code, out, _ = run(
        capsys,
        ["analytic", "--stat", "max", "--jumps", "exp:1", "--alpha", "1",
         "--t", "3", "--umax", "2", "--points", "3"],
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["u_or_w", "cdf_value"]
    assert float(rows[1][0]) == 1.0
    assert float(rows[1][1]) == pytest.approx(
        math.exp(-3.0 * math.exp(-1.0)), abs=1e-7
    )
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)


def test_chain_absorbing_marginals(capsys):
    code, out, _ = run(
        capsys,
        ["chain", "--q", "0,1;0,1", "--start", "0", "--waits", "exp:1",
         "--tmax", "2", "--points", "5"],
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["t", "p_00", "p_01"]
    for t_text, p00_text, p01_text in rows:
        t = float(t_text)
        assert float(p00_text) == pytest.approx(math.exp(-t), abs=1e-7)
        assert float(p01_text) == pytest.approx(-math.expm1(-t), abs=1e-7)



def test_chain_unit_order_matches_exponential_waits(capsys):
    base = ["chain", "--q", "0.3,0.7;0.5,0.5", "--tmax", "100", "--points", "5",
            "--tol", "1e-8"]
    code, out_ml, _ = run(capsys, base + ["--alpha", "1"])
    assert code == 0
    code, out_exp, _ = run(capsys, base + ["--waits", "exp:1"])
    assert code == 0
    rows_ml, rows_exp = parse_csv(out_ml)[2], parse_csv(out_exp)[2]
    assert len(rows_ml) == len(rows_exp) == 5
    for row_ml, row_exp in zip(rows_ml, rows_exp):
        for a, b in zip(row_ml, row_exp):
            assert abs(float(a) - float(b)) <= 1e-8

def test_solve_power_law_tracks_survival(capsys):
    code, out, _ = run(
        capsys,
        ["solve", "--kernel", "powerlaw", "--alpha", "0.6", "--c", "1",
         "--tmax", "1", "--h", "0.01"],
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["t", "Q", "est_error"]
    worst = max(
        abs(float(q) - ml_survival(0.6, float(t))) for t, q, _ in rows
    )
    assert worst < 1e-3
    code, _, err = run(
        capsys, ["solve", "--kernel", "powerlaw", "--c", "1", "--tmax", "1", "--h", "0.1"]
    )
    assert code == 2
    assert "--alpha" in err


def test_simulate_single_column(capsys):
    args = ["simulate", "--stat", "sum", "--jumps", "exp:1", "--waits", "exp:1",
            "--t", "1", "--paths", "200", "--seed", "9"]
    code, first, _ = run(capsys, args)
    assert code == 0
    config, columns, rows = parse_csv(first)
    assert columns == ["sample"]
    assert len(rows) == 200
    assert "threads" not in config
    samples = [float(r[0]) for r in rows]
    assert samples == sorted(samples)
    code, second, _ = run(capsys, args)
    assert second == first


def test_compare_json_report(capsys):
    code, out, _ = run(
        capsys,
        ["compare", "--stat", "sum", "--jumps", "exp:1", "--waits", "exp:1",
         "--t", "2", "--paths", "20000", "--seed", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "d", "n", "threshold", "pass"}
    assert doc["n"] == 20000
    assert doc["threshold"] == pytest.approx(1.63 / math.sqrt(20000), rel=1e-12)
    assert doc["pass"] is True
    assert doc["d"] < doc["threshold"]
    assert doc["config"]["subcommand"] == "compare"


def test_compare_csv_format(capsys):
    code, out, _ = run(
        capsys,
        ["compare", "--stat", "max", "--jumps", "uniform:1", "--waits", "exp:1",
         "--t", "1", "--paths", "5000", "--seed", "4", "--format", "csv"],
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ["d", "n", "threshold", "pass"]
    assert rows[0][3] == "true"


def test_bad_points_exit_two_from_the_entry_point():
    # the real entry point: no traceback, the documented domain exit
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "ctstat.cli", "analytic", "--stat", "sum",
         "--jumps", "exp:1", "--waits", "exp:1", "--t", "1", "--umax", "2",
         "--points", "-1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "domain error: --points must be at least 1" in proc.stderr


def test_bad_points_rejected_by_every_spanned_grid(capsys):
    analytic = ["analytic", "--stat", "max", "--jumps", "exp:1", "--alpha", "1",
                "--t", "1", "--umax", "2"]
    chain = ["chain", "--q", "0,1;0,1", "--waits", "exp:1", "--tmax", "2"]
    for base in (analytic, chain):
        for points in ("0", "-1"):
            code, out, err = run(capsys, base + ["--points", points])
            assert code == 2
            assert out == ""
            assert "--points must be at least 1" in err
        code, out, _ = run(capsys, base + ["--points", "1"])
        assert code == 0
        assert len(parse_csv(out)[2]) == 1


def test_solve_rejects_an_oversized_grid_before_solving(capsys):
    code, out, err = run(
        capsys, ["solve", "--kernel", "delta", "--c", "1", "--tmax", "1", "--h", "1e-9"]
    )
    assert code == 2
    assert out == ""
    assert "2^24 nodes" in err


_CHAIN = ["chain", "--q", "0,1;0,1", "--waits", "exp:1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_CHAIN + ["--tmax", "-2", "--points", "3"], "--tmax"),
        (_CHAIN + ["--tmax", "inf"], "--tmax"),
        (["analytic", "--stat", "sum", "--jumps", "exp:1", "--waits", "exp:1",
          "--t", "1", "--umax", "inf"], "--umax"),
        (["ml", "--alpha", "0.5", "--zmin", "-1", "--zmax", "inf"], "--zmax"),
        (["invert", "--symbol", "density", "--waits", "exp:1",
          "--tmin", "0.1", "--tmax", "inf"], "--tmax"),
    ],
    ids=["chain_negative", "chain", "analytic", "ml", "invert"],
)
def test_bad_grid_endpoint_names_its_flag(capsys, argv, flag):
    # a warning numpy raises is not turned into an error by the package's
    # warning filter, so record every warning and look at stderr too
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert f"domain error: {flag} must be" in err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught] == []


def test_one_parser_per_process():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_shared_parser_keeps_no_flags_between_calls(capsys):
    base = ["ml", "--alpha", "1", "--z", "-1"]
    code, out, _ = run(capsys, base + ["--seed", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 5
    code, out, _ = run(capsys, base)
    assert code == 0
    config, columns, _ = parse_csv(out)
    assert config["seed"] == 0
    assert config["format"] == "csv"
    assert columns == ["z", "ml_value"]


def test_shared_parser_survives_usage_errors_and_help(capsys):
    argv = _CHAIN + ["--tmax", "2", "--points", "5"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, out, err = run(capsys, argv + ["--points", "many"])
    assert code == 2
    assert out == ""
    assert "usage: ctstat chain" in err
    code, out, _ = run(capsys, ["chain", "--help"])
    assert code == 0
    assert "usage: ctstat chain" in out
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert second == first
