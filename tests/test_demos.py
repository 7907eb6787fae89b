"""Each demo runs to completion and leaves its working directory as it was."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwsemigroup

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_leaving_files(demo, tmp_path_factory):
    cwd = tmp_path_factory.mktemp("cwd")
    src = str(Path(gwsemigroup.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path_factory.mktemp("tmp"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(cwd.iterdir()) == []
