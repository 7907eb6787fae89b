"""CLI outputs compared byte for byte with files recorded under tests/golden/.

Each case runs ``cli.main`` on fixture descriptions written by ``gen``; the
``gen`` cases themselves take no description.
``PYTHONPATH=src python tests/test_golden.py`` records every case whose file
does not exist yet and lists the files it skipped; to record a file again
(only when an output change is intended), delete it first.
"""

import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from gwsemigroup.cli import main
from gwsemigroup.core import Lattice, SemigroupDescription, save_description

GOLDEN = Path(__file__).parent / "golden"

DESCRIPTIONS = {
    "h3": ["hermitian", "--q", "3"],
    "g3": ["genus0", "--m", "3"],
    "g4": ["genus0", "--m", "4"],
    "g5": ["genus0", "--m", "5"],
}

BOXES = {
    "h3": "-6..8,-6..8",
    "g3": "-2..2,-2..2,-2..2",
    "g4": "-1..2,-1..1,-2..1,0..1",
}


def _cases():
    # (golden file name, description key or None, argv without --desc)
    cases = [
        ("gen-hermitian-q3.json", None, ["gen", *DESCRIPTIONS["h3"]]),
        ("gen-genus0-m4.json", None, ["gen", *DESCRIPTIONS["g4"]]),
    ]
    for key, box in BOXES.items():
        for kind in ("L", "Q", "P"):
            for fmt in ("json", "text"):
                argv = ["series", kind, "--box", box, "--format", fmt]
                cases.append((f"{key}-series-{kind}.{fmt}", key, argv))
        for fmt in ("json", "text"):
            argv = ["series", "polynomial", "--format", fmt]
            cases.append((f"{key}-series-polynomial.{fmt}", key, argv))
    for kind in ("L", "Q", "P"):
        argv = ["series", kind, "--box", ",".join(["-1..1"] * 5), "--format", "json"]
        cases.append((f"g5-series-{kind}.json", "g5", argv))
    # a box with a width-1 axis
    cases.append(("h3-series-P-row.text", "h3", ["series", "P", "--box", "-3..4,2..2"]))
    verify_boxes = (
        ("h3", "-6..6,-6..6"),
        ("g3", BOXES["g3"]),
        ("h3-mutilated", "-5..5,-5..5"),
        ("h3-extra-gamma", "-6..6,-6..6"),
        ("h3-without-22", "-6..6,-6..6"),
        ("m4-broken", "-5..-3,4..6,-4..-2,4..6"),
    )
    for key, box in verify_boxes:
        for fmt in ("json", "text"):
            argv = ["verify", "--box", box, "--format", fmt]
            cases.append((f"{key}-verify.{fmt}", key, argv))
    # basis points where many translates share a last coordinate, so the
    # lexicographically least one per class is pinned; one needs a nonzero
    # lower carry
    for key, alpha in (("m4-broken", "2,2,2,6"), ("m4-broken", "3,2,1,5"), ("g4", "2,1,0,3")):
        for fmt in ("json", "text"):
            argv = ["query", "basis", alpha, "--format", fmt]
            cases.append((f"{key}-basis-{alpha.replace(',', '_')}.{fmt}", key, argv))
    cases.append(("h3-plot.svg", "h3", ["plot", "--box", "-8..9,-8..10"]))
    cases.append(("h3-plot-row.svg", "h3", ["plot", "--box", "-4..6,1..1"]))
    return cases


CASES = _cases()


def _write_descriptions(directory: Path) -> dict[str, str]:
    paths = {}
    for key, gen_args in DESCRIPTIONS.items():
        paths[key] = str(directory / f"{key}.json")
        assert main(["gen", *gen_args, "--out", paths[key]]) == 0
    # h3 without the absolute maximal element (1, 5): not symmetric, so the
    # symmetry row is skipped, and several checks fail.
    # h3 with the extra gamma (2, -2), and h3 without (2, 2): both still
    # symmetric, so their verify output holds a failing symmetry row.
    h3 = json.loads(Path(paths["h3"]).read_text(encoding="utf-8"))
    gammas = h3["gamma_fundamental"]
    variants = {
        "h3-mutilated": [g for g in gammas if g != [1, 5]],
        "h3-extra-gamma": gammas + [[2, -2]],
        "h3-without-22": [g for g in gammas if g != [2, 2]],
    }
    for key, variant in variants.items():
        paths[key] = str(directory / f"{key}.json")
        data = {**h3, "gamma_fundamental": variant}
        Path(paths[key]).write_text(json.dumps(data), encoding="utf-8")
    # an invalid m = 4 description with a period > 1 below the last level:
    # (1, 0, 1, 5) is not absolute maximal, and the class counts differ by
    # coordinate, so its verify output holds a failing class-count row
    broken = SemigroupDescription(
        4, 3, Lattice((2, 1, 4)), ((0, 0, 0, 0), (1, 0, 1, 5), (1, 0, 3, -4))
    )
    paths["m4-broken"] = str(directory / "m4-broken.json")
    save_description(broken, paths["m4-broken"])
    return paths


def _run(argv: list[str], desc: str | None) -> str:
    if desc is not None:
        argv = [*argv, "--desc", desc]
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return f"exit {code}\n" + buf.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_descriptions(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name,key,argv", CASES, ids=[name for name, _, _ in CASES])
def test_cli_output_matches_golden(paths, name, key, argv):
    assert _run(argv, paths.get(key)) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        recorded = _write_descriptions(Path(tmp))
        for name, key, argv in CASES:
            target = GOLDEN / name
            if target.exists():
                print(f"skipped {name}: exists")
                continue
            target.write_text(_run(argv, recorded.get(key)), encoding="utf-8")
            print(f"recorded {name}")
