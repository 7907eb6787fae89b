"""Every Python file of the project parses as Python 3.10.

``pyproject.toml`` admits Python 3.10, so no file may use newer syntax.
``ast.parse`` with ``feature_version=(3, 10)`` rejects most, not all, newer
grammar (``except*`` is caught); it does not check standard-library APIs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOPS = ("src", "tests", "tools", "perfbench", "demos")


def test_every_python_file_parses_as_python_3_10():
    files = sorted(path for top in TOPS for path in (ROOT / top).rglob("*.py"))
    assert {path.relative_to(ROOT).parts[0] for path in files} == set(TOPS)
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
