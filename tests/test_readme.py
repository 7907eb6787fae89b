"""The README's examples, run as written.

The Python quickstart block is executed statement by statement; each
expression with a trailing ``# value`` comment must have a ``repr`` that the
comment starts with.  Each ``gwsemigroup ...`` line of the command-line block
runs through ``cli.main`` in a temporary directory and must exit 0; a
``# -> X`` comment must equal its stdout.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from gwsemigroup import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_quickstart_values():
    source = _blocks("python")[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr) and comment is not None:
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            assert comment.startswith(repr(value)), (ast.unparse(stmt), value)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == 8


def test_shell_examples_run(tmp_path, monkeypatch, capsys):
    block = next(b for b in _blocks("sh") if "\ngwsemigroup " in "\n" + b)
    lines = [line for line in block.splitlines() if line.startswith("gwsemigroup ")]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, expected = line.partition("# ->")
        code = cli.main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if expected:
            assert out.rstrip("\n") == expected.strip(), line
    assert len(lines) == 10
