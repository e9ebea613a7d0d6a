"""The columnar table writer against the per-cell formatter it replaced.

``reference_table`` is that formatter: it renders each cell on its own
(floats to 12 significant digits, ints in full, bools as true/false)
and joins the lines at the end.  The writer must give the same bytes,
in CSV and JSON, for every subcommand and for the awkward values.
"""

import argparse
import json

import numpy as np
import pytest

from ctstat import cli


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def reference_table(args, columns, data) -> str:
    """The text the per-cell formatter wrote for these columns."""
    cols = np.broadcast_arrays(*(np.atleast_1d(c) for c in data))
    rows = list(zip(*(c.tolist() for c in cols)))
    config = cli._config(args)
    if args.format == "json":
        doc = {
            "config": config,
            "columns": list(columns),
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        return json.dumps(doc) + "\n"
    lines = ["# " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(columns))
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """Equal text; a mismatch reports its first differing line only, as
    pytest's full diff of two long tables takes minutes."""
    if got != want:
        g, w = got.splitlines(True), want.splitlines(True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i : i + 1]} != {w[i : i + 1]} ({len(g)} vs {len(w)} lines)")


def _args(fmt, out=None):
    return argparse.Namespace(subcommand="table", format=fmt, out=out, seed=0)


AWKWARD = np.array(
    [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, 1.0, 0.1,
     1.0 / 3.0, 123456789012.5, 1e16, -2.5e17, 1.7976931348623157e308]
)


def _tables():
    rng = np.random.default_rng(5)
    long = cli._BLOCK_ROWS
    awkward = AWKWARD.size
    return {
        "awkward floats": (("x",), (AWKWARD,)),
        "int bool float": (
            ("n", "flag", "x"),
            (np.arange(-7, awkward - 7), np.arange(awkward) % 3 == 0, AWKWARD),
        ),
        "wide ints": (("n",), (np.array([0, -1, 2**62, -(2**63), 10**15]),)),
        "scalars": (("d", "n", "threshold", "pass"), (0.0123, 20000, 0.0115, False)),
        "broadcast scalar": (("t", "err"), (np.linspace(0.0, 1.0, 7), 3.5e-9)),
        "empty": (("t", "value"), (np.empty(0), np.empty(0))),
        "one column, several blocks": (("sample",), (rng.standard_normal(2 * long + 17),)),
        "one column, one full block": (("sample",), (rng.exponential(size=long),)),
        "three columns, several blocks": (
            ("n", "x", "ok"),
            (np.arange(long + 1), rng.standard_normal(long + 1) * 1e-5, rng.random(long + 1) < 0.5),
        ),
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(_tables()))
def test_writer_matches_reference(capsys, fmt, name):
    columns, data = _tables()[name]
    cli._emit_table(_args(fmt), columns, data)
    assert_same_text(capsys.readouterr().out, reference_table(_args(fmt), columns, data))


def test_writer_file_output_matches_stdout(capsys, tmp_path):
    columns, data = _tables()["three columns, several blocks"]
    target = tmp_path / "table.csv"
    cli._emit_table(_args("csv", str(target)), columns, data)
    assert capsys.readouterr().out == ""
    assert_same_text(target.read_text(), reference_table(_args("csv", str(target)), columns, data))


def test_csv_writes_one_chunk_per_block(monkeypatch):
    columns, data = _tables()["one column, several blocks"]
    chunks = []
    monkeypatch.setattr(cli, "_write", lambda path, parts: chunks.extend(parts))
    cli._emit_table(_args("csv"), columns, data)
    # the header, then one chunk for each started block of rows
    assert len(chunks) == 1 + 3
    assert all(c.count("\n") == cli._BLOCK_ROWS for c in chunks[1:3])


COMMANDS = {
    "ml": ["ml", "--alpha", "0.7", "--zmin", "-40", "--zmax", "2", "--points", "33"],
    "pmf": ["pmf", "--alpha", "0.6", "--t", "3"],
    "epochs": ["epochs", "--waits", "exp:2", "--tmax", "30", "--seed", "8"],
    "invert": ["invert", "--symbol", "counting", "--n", "2", "--alpha", "0.8",
               "--tmin", "0.1", "--tmax", "4", "--points", "9", "--method", "talbot"],
    "analytic": ["analytic", "--stat", "sum", "--jumps", "uniform:1", "--waits", "exp:1",
                 "--t", "2", "--umax", "5", "--points", "41"],
    "chain": ["chain", "--q", "0.2,0.8;0.6,0.4", "--alpha", "0.7", "--tmax", "3",
              "--points", "6"],
    "solve": ["solve", "--kernel", "powerlaw", "--alpha", "0.6", "--c", "1",
              "--tmax", "5", "--h", "0.001"],
    "simulate": ["simulate", "--stat", "max", "--jumps", "exp:1", "--alpha", "0.7",
                 "--t", "1.5", "--paths", "9000", "--seed", "2"],
    "compare": ["compare", "--stat", "sum", "--jumps", "exp:1", "--waits", "exp:1",
                "--t", "1", "--paths", "2000", "--seed", "3"],
}


# compare's JSON form is a report, not a table
@pytest.mark.parametrize(
    "command, fmt",
    [(c, f) for c in sorted(COMMANDS) for f in ("csv", "json") if (c, f) != ("compare", "json")],
)
def test_every_subcommand_writes_reference_bytes(capsys, monkeypatch, command, fmt):
    seen = []
    writer = cli._emit_table

    def spy(args, columns, data):
        seen.append(reference_table(args, columns, data))
        writer(args, columns, data)

    monkeypatch.setattr(cli, "_emit_table", spy)
    assert cli.main(COMMANDS[command] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert len(seen) == 1
    assert_same_text(out, seen[0])
    if fmt == "json":
        assert json.loads(out)["rows"]
    else:
        assert len(out.splitlines()) > 2
