import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gwsemigroup
from gwsemigroup import cli
from gwsemigroup.cli import UsageError, main, parse_box, parse_tuple
from gwsemigroup.core import Box

from window_data import MAXIMALS_Q3_WINDOW, NONMAXIMAL_MEMBERS_Q3_WINDOW


@pytest.fixture()
def q3_file(tmp_path):
    path = tmp_path / "h3.json"
    assert main(["gen", "hermitian", "--q", "3", "--out", str(path)]) == 0
    return str(path)


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# argument parsing helpers

def test_parse_tuple():
    assert parse_tuple("3,-1") == (3, -1)
    assert parse_tuple("(3, -1)") == (3, -1)
    with pytest.raises(UsageError):
        parse_tuple("3,,1")
    with pytest.raises(UsageError):
        parse_tuple("a,b")


def test_parse_box():
    assert parse_box("-8..9,-8..10") == Box((-8, -8), (9, 10))
    assert parse_box("0..0") == Box((0,), (0,))
    with pytest.raises(UsageError):
        parse_box("1..2..3")
    with pytest.raises(UsageError):
        parse_box("5..1")
    with pytest.raises(UsageError):
        parse_box("x..y")


# ---------------------------------------------------------------------------
# gen

def test_gen_hermitian_matches_fixture(q3_file):
    data = json.loads(Path(q3_file).read_text(encoding="utf-8"))
    assert data == {
        "m": 2,
        "genus": 3,
        "lattice_generators": [[4, -4]],
        "gamma_fundamental": [[0, 0], [1, 5], [2, 2], [3, -1]],
        "label": "hermitian q=3 (Qinf,P00)",
    }


def test_gen_genus0_and_errors(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["gen", "genus0", "--m", "3", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["m"] == 3 and data["genus"] == 0

    code, _, err = run_cli(capsys, ["gen", "hermitian", "--q", "1"])
    assert code == 2 and "q must be" in err
    code, _, err = run_cli(capsys, ["gen", "hermitian"])
    assert code == 2
    code, _, err = run_cli(capsys, ["gen", "genus0", "--m", "3", "--out", "/nonexistent/dir/x.json"])
    assert code == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(gwsemigroup.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "gwsemigroup", "gen", "genus0", "--m", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["m"] == 2


# ---------------------------------------------------------------------------
# query

def test_query_text(capsys, q3_file):
    assert run_cli(capsys, ["query", "member", "(3,-1)", "--desc", q3_file])[:2] == (0, "true\n")
    assert run_cli(capsys, ["query", "member", "(1,1)", "--desc", q3_file])[:2] == (0, "false\n")
    assert run_cli(capsys, ["query", "dim", "2,2", "--desc", q3_file])[:2] == (0, "2\n")
    assert run_cli(capsys, ["query", "basis", "2,2", "--desc", q3_file])[:2] == (
        0,
        "(0,0) (2,2)\n",
    )
    assert run_cli(capsys, ["query", "maximal", "(4,0)", "--desc", q3_file])[:2] == (0, "false\n")
    assert run_cli(capsys, ["query", "absmaximal", "(2,2)", "--desc", q3_file])[:2] == (0, "true\n")


def test_query_negative_first_coordinate(capsys, q3_file):
    # a bare tuple with a leading minus sign is the point, not an option
    assert run_cli(capsys, ["query", "dim", "-1,5", "--desc", q3_file])[:2] == (0, "2\n")
    assert run_cli(capsys, ["query", "dim", "--desc", q3_file, "-1,5"])[:2] == (0, "2\n")
    assert run_cli(capsys, ["query", "member", "-4,4", "--desc", q3_file])[:2] == (0, "true\n")
    code, _, err = run_cli(capsys, ["query", "dim", "-1,x", "--desc", q3_file])
    assert code == 2 and "cannot parse tuple" in err


def test_query_json(capsys, q3_file):
    code, out, _ = run_cli(capsys, ["query", "dim", "2,2", "--desc", q3_file, "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"op": "dim", "alpha": [2, 2], "result": 2}
    code, out, _ = run_cli(
        capsys, ["query", "basis", "2,2", "--desc", q3_file, "--format", "json"]
    )
    assert json.loads(out)["result"] == [[0, 0], [2, 2]]


def test_query_usage_errors(capsys, q3_file, tmp_path):
    code, _, err = run_cli(capsys, ["query", "dim", "1,2,3", "--desc", q3_file])
    assert code == 2 and "length" in err
    code, _, _ = run_cli(capsys, ["query", "dim", "zz", "--desc", q3_file])
    assert code == 2
    missing = str(tmp_path / "missing.json")
    code, _, _ = run_cli(capsys, ["query", "dim", "0,0", "--desc", missing])
    assert code == 2


def test_query_basis_above_the_cap_exits_3_before_building(capsys, q3_file, monkeypatch):
    def unbounded(d, alpha):
        raise AssertionError("the basis was built")

    monkeypatch.setitem(cli._QUERIES, "basis", unbounded)
    code, out, err = run_cli(capsys, ["query", "basis", "99999999999,0", "--desc", q3_file])
    assert code == 3 and out == ""
    assert "99999999997" in err and str(cli.DEFAULT_CAP) in err
    assert "--cap" not in err and "Traceback" not in err


def test_gen_genus0_above_the_cap_exits_3_before_building(capsys, monkeypatch):
    # the JSON lists m(m - 1) generator entries: 3162 * 3161 = 9995082 fits
    # the cap, 3163 * 3162 = 10001406 does not
    built = []

    def recording(m):
        built.append(m)
        return gwsemigroup.genus0_description(2)

    monkeypatch.setitem(cli._FAMILIES, "genus0", ("m", recording))
    code, out, err = run_cli(capsys, ["gen", "genus0", "--m", "3163"])
    assert (code, out, built) == (3, "", [])
    assert "10001406" in err and str(cli.DEFAULT_CAP) in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, ["gen", "genus0", "--m", "3162"])
    assert (code, built) == (0, [3162]) and json.loads(out)["m"] == 2
    # below 2 the builder refuses, whatever m(m - 1) is
    monkeypatch.undo()
    code, _, err = run_cli(capsys, ["gen", "genus0", "--m", "-5000"])
    assert code == 2 and "m must be" in err


def test_query_rejects_generators_without_period_shape(capsys, q3_file, tmp_path):
    data = json.loads(Path(q3_file).read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, "lattice_generators": [[4, -3]]}), encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "dim", "0,0", "--desc", str(bad)])
    assert code == 2 and err.startswith("error: cannot load description")


# ---------------------------------------------------------------------------
# series

def test_series_polynomial(capsys, q3_file):
    code, out, _ = run_cli(capsys, ["series", "polynomial", "--desc", q3_file])
    assert code == 0
    data = json.loads(out)
    assert data == {
        "kind": "polynomial",
        "terms": [[[0, 0], 1], [[1, 5], 1], [[2, 2], 1], [[3, -1], 1]],
    }


def test_series_box_json(capsys, q3_file):
    code, out, _ = run_cli(
        capsys, ["series", "P", "--desc", q3_file, "--box", "-8..9,-8..10"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "P"
    support = {tuple(a) for a, _ in data["coeffs"]}
    assert support == MAXIMALS_Q3_WINDOW
    listed = [a for a, _ in data["coeffs"]]
    assert listed == sorted(listed)


def test_series_all_zero_window(capsys, q3_file):
    code, out, _ = run_cli(
        capsys, ["series", "L", "--desc", q3_file, "--box", "-9..-5,-9..-5"]
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == []


def test_series_cap_and_usage(capsys, q3_file):
    code, _, err = run_cli(
        capsys,
        ["series", "P", "--desc", q3_file, "--box", "-8..9,-8..10", "--cap", "5"],
    )
    assert code == 3 and "cap" in err
    code, _, _ = run_cli(capsys, ["series", "P", "--desc", q3_file])
    assert code == 2
    code, _, _ = run_cli(
        capsys, ["series", "P", "--desc", q3_file, "--box", "0..1,0..1,0..1"]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_passes(capsys, q3_file):
    code, out, _ = run_cli(capsys, ["verify", "--desc", q3_file, "--box", "-6..6,-6..6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) == 11


def test_verify_fails_on_mutilated(capsys, tmp_path, q3_file):
    data = json.loads(Path(q3_file).read_text(encoding="utf-8"))
    data["gamma_fundamental"] = [g for g in data["gamma_fundamental"] if g != [2, 2]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["verify", "--desc", str(bad), "--box", "-5..5,-5..5"])
    assert code == 1
    assert "FAIL description-consistency" in out


def test_verify_json_format(capsys, q3_file):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--desc", q3_file, "--box", "-4..4,-4..4", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert all(row["passed"] for row in rows)


# ---------------------------------------------------------------------------
# plot

def test_plot_window(tmp_path, q3_file):
    out = tmp_path / "w.svg"
    assert main(["plot", "--desc", q3_file, "--box", "-8..9,-8..10", "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count('fill="none"') == len(MAXIMALS_Q3_WINDOW)
    assert svg.count('fill="black"') == len(NONMAXIMAL_MEMBERS_Q3_WINDOW)
    assert svg.startswith("<svg ")


def test_plot_rejects_higher_dimensions(capsys, tmp_path):
    path = tmp_path / "g3.json"
    main(["gen", "genus0", "--m", "3", "--out", str(path)])
    code, _, err = run_cli(capsys, ["plot", "--desc", str(path), "--box", "-2..2,-2..2"])
    assert code == 2 and "two-point" in err


# ---------------------------------------------------------------------------
# the request path shared by every subcommand

# one valid request per subcommand; DESC stands for the h3 description file
REQUESTS = {
    "gen": ["gen", "hermitian", "--q", "3"],
    "query": ["query", "dim", "2,2", "--desc", "DESC"],
    "series": ["series", "P", "--desc", "DESC", "--box", "-2..2,-2..2"],
    "verify": ["verify", "--desc", "DESC", "--box", "-2..2,-2..2"],
    "plot": ["plot", "--desc", "DESC", "--box", "-2..2,-2..2"],
}


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_unwritable_out_is_a_usage_error(capsys, q3_file, command):
    argv = [q3_file if a == "DESC" else a for a in REQUESTS[command]]
    code, out, err = run_cli(capsys, [*argv, "--out", "/nonexistent/dir/x"])
    assert code == 2 and out == ""
    assert "cannot write" in err and "Traceback" not in err


def test_box_commands_require_box(capsys, q3_file):
    for argv in (["verify"], ["plot"], ["series", "L"]):
        code, _, err = run_cli(capsys, [*argv, "--desc", q3_file])
        assert code == 2 and "--box" in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("gen", {"--q", "--m", "--out"}),
        ("query", {"--desc", "--out", "--format"}),
        ("series", {"--desc", "--box", "--out", "--format", "--cap"}),
        ("verify", {"--desc", "--box", "--out", "--format", "--cap"}),
        ("plot", {"--desc", "--box", "--out", "--cap"}),
    ],
)
def test_help_lists_each_subcommands_flags(capsys, command, flags):
    code, out, _ = run_cli(capsys, [command, "--help"])
    assert code == 0
    assert set(re.findall(r"--[a-z]+", out)) == flags | {"--help"}


def test_requests_reuse_the_parser_built_at_import(monkeypatch, capsys, q3_file):
    # main never builds the parser again, and a flag one request gives does
    # not carry over to the next
    text = run_cli(capsys, ["query", "dim", "2,2", "--desc", q3_file])

    def rebuilt():
        raise AssertionError("main built the parser again")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    code, out, _ = run_cli(capsys, ["query", "dim", "2,2", "--desc", q3_file, "--format", "json"])
    assert code == 0 and json.loads(out)
    assert run_cli(capsys, ["query", "dim", "2,2", "--desc", q3_file]) == text
    assert text[0] == 0


# ---------------------------------------------------------------------------
# input faults: the library finds them, main maps them to exit 2

# (argv, the library's phrase); DESC stands for the h3 description file
INPUT_FAULTS = [
    *(
        (["query", op, "1,2,3", "--desc", "DESC"], "tuple of length 3")
        for op in ("member", "dim", "basis", "maximal", "absmaximal")
    ),
    *(
        ([*argv, "--desc", "DESC", "--box", "0..1,0..1,0..1"],
         "box dimension disagrees with description (3 against m=2)")
        for argv in (["series", "P"], ["verify"], ["plot"])
    ),
    (["gen", "hermitian", "--q", "6"], "q must be a prime power, got 6"),
    (["gen", "hermitian", "--q", "1"], "q must be an integer >= 2, got 1"),
    (["gen", "genus0", "--m", "1"], "m must be an integer >= 2, got 1"),
    # the box dimension is checked before the cap
    (["series", "P", "--desc", "DESC", "--box", "0..9,0..9,0..9", "--cap", "5"],
     "box dimension disagrees with description"),
]


@pytest.mark.parametrize("argv, phrase", INPUT_FAULTS, ids=[" ".join(a) for a, _ in INPUT_FAULTS])
def test_input_faults_exit_2_with_the_librarys_text(capsys, q3_file, argv, phrase):
    code, out, err = run_cli(capsys, [q3_file if a == "DESC" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and phrase in err and "Traceback" not in err


def test_plot_of_more_points_is_a_usage_error_before_the_cap(capsys, tmp_path):
    path = tmp_path / "g3.json"
    assert main(["gen", "genus0", "--m", "3", "--out", str(path)]) == 0
    argv = ["plot", "--desc", str(path), "--box", "0..9,0..9,0..9", "--cap", "5"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "two-point" in err


def test_usage_errors_are_value_errors():
    # so that main maps both with its one ValueError clause
    assert issubclass(UsageError, ValueError)


# ---------------------------------------------------------------------------
# determinism

def test_outputs_are_byte_identical(tmp_path, q3_file):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (first, second):
        main(["plot", "--desc", q3_file, "--box", "-8..9,-8..10", "--out", str(target)])
    assert first.read_bytes() == second.read_bytes()

    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    for target in (s1, s2):
        main(["series", "Q", "--desc", q3_file, "--box", "-4..4,-4..4", "--out", str(target)])
    assert s1.read_bytes() == s2.read_bytes()
