import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gwsemigroup
from gwsemigroup import cli, series
from gwsemigroup.cli import UsageError, main, parse_box, parse_tuple
from gwsemigroup.core import Box, Lattice, SemigroupDescription, load_description, save_description
from gwsemigroup.series import series_on_box

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


def test_query_basis_above_the_cap_by_its_table_exits_3_before_building(
    capsys, tmp_path, monkeypatch
):
    # periods (97, 89) and genus 2: the slab's box holds 97 * 89 * 190 =
    # 1640270 points, but the 24 listed last coordinates fall in 24 classes
    # mod 89, and each class holds at least lcm / 89 = 97 entries of each of
    # the 97 * 89 rows of the basis table: 20298391 in all, above the cap
    path = _wide_description_file(tmp_path)

    def tripwire(self):
        raise AssertionError("the basis table was built")

    monkeypatch.setattr(SemigroupDescription, "least_translates", property(tripwire))
    count = load_description(path)._least_translate_count()
    assert count == 20298391 >= 97 * 89 * 24 * 97 > cli.DEFAULT_CAP
    code, out, err = run_cli(capsys, ["query", "basis", "0,0,0", "--desc", str(path)])
    assert (code, out) == (3, "") and "Traceback" not in err
    assert f"the basis table holds {count} points, above the cap of {cli.DEFAULT_CAP}" in err
    assert "--cap" not in err


def _wide_description_file(tmp_path):
    d = SemigroupDescription(3, 2, Lattice((97, 89)), tuple((j, 0, -j) for j in range(24)))
    path = tmp_path / "wide.json"
    save_description(d, path)
    return str(path)


def test_query_checks_the_point_before_any_cap(capsys, tmp_path, monkeypatch):
    # a wrong-length point is a usage error, exit 2, even where the slab's box
    # (h256: 16843009 points) or the basis table ((97, 89): 20298391 entries)
    # is above the cap, and nothing is sized
    h256 = tmp_path / "h256.json"
    assert main(["gen", "hermitian", "--q", "256", "--out", str(h256)]) == 0
    monkeypatch.setattr(cli, "_capped", None)
    wide = _wide_description_file(tmp_path)
    cases = [
        ("dim", "1,2,3", h256, "tuple of length 3, expected m=2"),
        ("basis", "0,0", wide, "tuple of length 2, expected m=3"),
    ]
    for op, alpha, path, message in cases:
        code, out, err = run_cli(capsys, ["query", op, alpha, "--desc", str(path)])
        assert (code, out) == (2, "") and "Traceback" not in err, op
        assert message in err, op


def test_query_basis_within_the_cap_builds_a_table_within_its_bound(
    capsys, tmp_path, monkeypatch
):
    # periods (31, 29), genus 2 and 12 gammas: a slab's box of 57536 points
    # and a basis table of 345807 entries, counted before it is built
    gammas = ((0, 0, 0),) + tuple((2 * j, j, 5 - 3 * j) for j in range(1, 12))
    d = SemigroupDescription(3, 2, Lattice((31, 29)), gammas)
    path = tmp_path / "coprime.json"
    save_description(d, path)
    build = SemigroupDescription.__dict__["least_translates"].func
    tables = []

    def recording(self):
        tables.append(build(self))
        return tables[-1]

    monkeypatch.setattr(SemigroupDescription, "least_translates", property(recording))
    code, out, _ = run_cli(capsys, ["query", "basis", "5,5,5", "--desc", str(path)])
    assert code == 0 and len(tables) == 1
    assert sum(len(vs) for vs, _, _ in tables[0]) == 345807
    assert d._least_translate_count() == 345807
    monkeypatch.undo()
    object.__setattr__(d, "least_translates", tables[0])  # the cached table, not a second build
    basis = gwsemigroup.riemann_roch_basis(d, (5, 5, 5))
    assert out == " ".join("(" + ",".join(map(str, b)) + ")" for b in basis) + "\n"


def test_gen_genus0_above_the_cap_exits_3_before_building(capsys, monkeypatch):
    # the JSON lists m(m - 1) generator entries: 3162 * 3161 = 9995082 fits
    # the cap, 3163 * 3162 = 10001406 does not
    built = []

    def recording(m):
        built.append(m)
        return gwsemigroup.genus0_description(2)

    entry = ("m", recording, *cli._FAMILIES["genus0"][2:])
    monkeypatch.setitem(cli._FAMILIES, "genus0", entry)
    code, out, err = run_cli(capsys, ["gen", "genus0", "--m", "3163"])
    assert (code, out, built) == (3, "", [])
    assert "10001406" in err and str(cli.DEFAULT_CAP) in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, ["gen", "genus0", "--m", "3162"])
    assert (code, built) == (0, [3162]) and json.loads(out)["m"] == 2
    # below 2 the builder refuses, whatever m(m - 1) is
    monkeypatch.undo()
    code, _, err = run_cli(capsys, ["gen", "genus0", "--m", "-5000"])
    assert code == 2 and "m must be" in err


def test_gen_hermitian_above_the_cap_exits_3_before_building(capsys, monkeypatch):
    # the JSON lists q + 1 gammas of two entries: 2 * 5000000 fits the cap,
    # 2 * 5000001 does not, so a huge q never reaches the builder's primality test
    built = []

    def recording(q):
        built.append(q)
        return gwsemigroup.hermitian_description(2)

    entry = ("q", recording, *cli._FAMILIES["hermitian"][2:])
    monkeypatch.setitem(cli._FAMILIES, "hermitian", entry)
    code, out, err = run_cli(capsys, ["gen", "hermitian", "--q", "5000000"])
    assert (code, out, built) == (3, "", [])
    assert "10000002" in err and str(cli.DEFAULT_CAP) in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, ["gen", "hermitian", "--q", "4999999"])
    assert (code, built) == (0, [4999999]) and json.loads(out)["genus"] == 1
    # below 2 the builder refuses, whatever 2(q + 1) is
    monkeypatch.undo()
    code, _, err = run_cli(capsys, ["gen", "hermitian", "--q", "-5000000"])
    assert code == 2 and "q must be an integer >= 2" in err


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
    bs = series_on_box(load_description(q3_file), "L", parse_box("-9..-5,-9..-5"))
    assert out == json.dumps(bs.to_json_dict(), sort_keys=True, indent=2) + "\n"


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


def _engine_tripwire(monkeypatch):
    def tripwire(*args):
        raise AssertionError("the request reached the engine")

    monkeypatch.setattr(series, "series_on_box", tripwire)
    monkeypatch.setattr(cli, "run_verification", tripwire)


def test_series_polynomial_takes_no_box(capsys, q3_file, monkeypatch):
    _engine_tripwire(monkeypatch)
    argv = ["series", "polynomial", "--desc", q3_file, "--box", "garbage", "--cap", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "") and "takes no --box" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["series", "polynomial"], ["verify", "--box", "0..0,0..0"]])
def test_slab_above_the_cap_exits_3_before_any_work(capsys, q3_file, monkeypatch, argv):
    # h3's slab box is [0, 3] x [-3, 6]: 40 cells
    _engine_tripwire(monkeypatch)
    code, out, err = run_cli(capsys, [*argv, "--desc", q3_file, "--cap", "39"])
    assert (code, out) == (3, "") and "Traceback" not in err
    assert "slab's box holds 40 points, above the cap of 39" in err
    monkeypatch.undo()
    code, _, _ = run_cli(capsys, [*argv, "--desc", q3_file, "--cap", "40"])
    assert code == 0


def _table_tripwire(monkeypatch):
    # every dimension, and so every grid, reads the table first
    def tripwire(self):
        raise AssertionError("the dim table was built")

    monkeypatch.setattr(SemigroupDescription, "dim_table", property(tripwire))


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "dim", "0,0"],
        ["query", "member", "5,5"],
        ["series", "L", "--box", "0..1,0..1"],
        ["plot", "--box", "0..1,0..1"],
    ],
)
def test_slab_above_the_cap_exits_3_before_the_dim_table(capsys, tmp_path, monkeypatch, argv):
    # the first dimension call builds the whole dim table, about as large as
    # the slab's box: 257 * 65537 = 16843009 cells on h256, above the default
    # cap however small the request
    path = tmp_path / "h256.json"
    assert main(["gen", "hermitian", "--q", "256", "--out", str(path)]) == 0
    _table_tripwire(monkeypatch)
    code, out, err = run_cli(capsys, [*argv, "--desc", str(path)])
    assert (code, out) == (3, "") and "Traceback" not in err
    assert f"slab's box holds 16843009 points, above the cap of {cli.DEFAULT_CAP}" in err
    assert ("--cap" in err) == (argv[0] != "query")
    if argv[0] != "query":
        with pytest.raises(AssertionError, match="dim table was built"):
            main([*argv, "--desc", str(path), "--cap", "16843009"])


def test_query_slab_cap_is_the_default_cap(capsys, tmp_path, monkeypatch):
    # query takes no --cap: m = 2, period 2 and genus g give a slab box of
    # 2 (2g + 2) points, so g = 2499999 fits 10^7 and g = 2500000 does not
    _table_tripwire(monkeypatch)
    for genus, fits in ((2499999, True), (2500000, False)):
        path = tmp_path / f"g{genus}.json"
        save_description(SemigroupDescription(2, genus, Lattice((2,)), ((0, 0), (1, 0))), path)
        if fits:
            with pytest.raises(AssertionError, match="dim table was built"):
                main(["query", "dim", "3,4", "--desc", str(path)])
        else:
            code, out, err = run_cli(capsys, ["query", "dim", "3,4", "--desc", str(path)])
            assert (code, out) == (3, "") and "holds 10000004 points" in err


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
    *(
        (["series", "P", "--desc", "DESC", "--box", "0..1,0..1", "--cap", cap],
         f"cap must be a positive integer, got {cap}")
        for cap in ("0", "-5")
    ),
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
