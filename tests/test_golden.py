"""CLI outputs compared byte for byte with files recorded under tests/golden/.

Each case runs ``cli.main`` on fixture descriptions written by ``gen``.  To
record the files again (only when an output change is intended), run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from gwsemigroup.cli import main

GOLDEN = Path(__file__).parent / "golden"

DESCRIPTIONS = {
    "h3": ["hermitian", "--q", "3"],
    "g3": ["genus0", "--m", "3"],
    "g4": ["genus0", "--m", "4"],
}

BOXES = {
    "h3": "-6..8,-6..8",
    "g3": "-2..2,-2..2,-2..2",
    "g4": "-1..2,-1..1,-2..1,0..1",
}


def _cases():
    # (golden file name, description key, argv without --desc)
    cases = []
    for key, box in BOXES.items():
        for kind in ("L", "Q", "P"):
            for fmt in ("json", "text"):
                argv = ["series", kind, "--box", box, "--format", fmt]
                cases.append((f"{key}-series-{kind}.{fmt}", key, argv))
        for fmt in ("json", "text"):
            argv = ["series", "polynomial", "--format", fmt]
            cases.append((f"{key}-series-polynomial.{fmt}", key, argv))
    for key, box in (("h3", "-6..6,-6..6"), ("g3", BOXES["g3"]), ("h3-mutilated", "-5..5,-5..5")):
        for fmt in ("json", "text"):
            argv = ["verify", "--box", box, "--format", fmt]
            cases.append((f"{key}-verify.{fmt}", key, argv))
    cases.append(("h3-plot.svg", "h3", ["plot", "--box", "-8..9,-8..10"]))
    return cases


CASES = _cases()


def _write_descriptions(directory: Path) -> dict[str, str]:
    paths = {}
    for key, gen_args in DESCRIPTIONS.items():
        paths[key] = str(directory / f"{key}.json")
        assert main(["gen", *gen_args, "--out", paths[key]]) == 0
    # h3 without the absolute maximal element (1, 5): not symmetric, so the
    # symmetry row is skipped, and several checks fail.
    data = json.loads(Path(paths["h3"]).read_text(encoding="utf-8"))
    data["gamma_fundamental"] = [g for g in data["gamma_fundamental"] if g != [1, 5]]
    paths["h3-mutilated"] = str(directory / "h3-mutilated.json")
    Path(paths["h3-mutilated"]).write_text(json.dumps(data), encoding="utf-8")
    return paths


def _run(argv: list[str], desc: str) -> str:
    buf = StringIO()
    with redirect_stdout(buf):
        code = main([*argv, "--desc", desc])
    return f"exit {code}\n" + buf.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_descriptions(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name,key,argv", CASES, ids=[name for name, _, _ in CASES])
def test_cli_output_matches_golden(paths, name, key, argv):
    assert _run(argv, paths[key]) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        recorded = _write_descriptions(Path(tmp))
        for name, key, argv in CASES:
            (GOLDEN / name).write_text(_run(argv, recorded[key]), encoding="utf-8")
