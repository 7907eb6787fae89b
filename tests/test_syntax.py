"""Every Python file parses as Python 3.10; the package imports only the stdlib.

``pyproject.toml`` admits Python 3.10, so no file may use newer syntax.
``ast.parse`` with ``feature_version=(3, 10)`` rejects most, not all, newer
grammar (``except*`` is caught); it does not check standard-library APIs, so
a list of the names the standard library gained after 3.10 does.
``pyproject.toml`` also declares no runtime dependency, so every absolute
import under ``src/gwsemigroup`` must name a ``sys.stdlib_module_names`` entry.
Cases shared by test modules live in ``tests/corpus.py``, so no file under
``tests`` imports a ``test_*`` module.  A module-level private name in the
package that nothing refers to is a helper stranded when its last caller went,
and a private name that a docstring, comment or README names in backticks but
nothing under ``src`` defines is one whose mention outlived it.
"""

import ast
import io
import re
import sys
import tokenize
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


# what the standard library gained in 3.11-3.13: modules, builtins, attributes
# of a module (read through an import or an attribute), and methods
NEWER_MODULES = {"tomllib"}
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
NEWER_METHODS = {"add_note"}
NEWER_NAMES = {
    "asyncio": {"Barrier", "Runner", "TaskGroup", "timeout", "timeout_at"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {"EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum", "verify"},
    "hashlib": {"file_digest"},
    "itertools": {"batched"},
    "logging": {"getLevelNamesMapping"},
    "math": {"cbrt", "exp2", "sumprod"},
    "operator": {"call"},
    "re": {"NOFLAG"},
    "sys": {"exception"},
    "typing": {
        "LiteralString", "Never", "NotRequired", "ReadOnly", "Required", "Self",
        "TypeIs", "TypeVarTuple", "Unpack", "assert_never", "assert_type",
        "clear_overloads", "dataclass_transform", "get_overloads", "override",
        "reveal_type",
    },
    "warnings": {"deprecated"},
}


def _newer_stdlib_names(source: str) -> list[str]:
    tree = ast.parse(source)
    aliases = {}  # local name -> the module it was imported as
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
                found += [alias.name] if alias.name.split(".")[0] in NEWER_MODULES else []
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in NEWER_MODULES:
                found.append(node.module)
            newer = NEWER_NAMES.get(node.module, set())
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in newer]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in NEWER_METHODS:
                found.append(f".{node.attr}")
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                module = aliases[node.value.id]
                if node.attr in NEWER_NAMES.get(module, set()):
                    found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
    return found


def test_no_python_file_uses_a_standard_library_name_newer_than_3_10():
    sample = (
        "import tomllib\nimport typing as t\nfrom enum import Enum, StrEnum\n"
        "import datetime\nx: t.Self = datetime.UTC\nerr = ExceptionGroup('', [])\n"
        "err.add_note('')\nfrom itertools import batched, pairwise\n"
    )
    assert sorted(_newer_stdlib_names(sample)) == [
        ".add_note", "ExceptionGroup", "datetime.UTC", "enum.StrEnum",
        "itertools.batched", "tomllib", "typing.Self",
    ]
    failures = []
    for path in sorted(path for top in TOPS for path in (ROOT / top).rglob("*.py")):
        names = _newer_stdlib_names(path.read_text(encoding="utf-8"))
        failures += [f"{path.relative_to(ROOT)}: {name}" for name in names]
    assert failures == []


def test_the_package_imports_only_the_standard_library():
    names = set()
    for path in sorted((ROOT / "src" / "gwsemigroup").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    assert "functools" in names
    assert sorted(names - sys.stdlib_module_names) == []


def test_no_test_file_imports_a_test_module():
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0].startswith("test_")]
    assert found == []


def test_every_private_module_name_in_the_package_is_referenced():
    # a helper left behind when its last caller goes: a module-level def,
    # class or assignment whose name starts with "_" and that no loaded
    # Name, Attribute or import alias anywhere in the package refers to
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "gwsemigroup").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, n) for n in names if n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 40
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []


def test_every_private_name_the_docs_mention_is_defined():
    # `_x`, `mod._x` and :func:`_x` in the docstrings and comments of the
    # package and in README.md; the last dotted part must be a def, class or
    # assigned name somewhere under src.  ROADMAP.md and CHANGES.md are history.
    mention = re.compile(r"`(?:\w+\.)*(_(?!_)\w*)`")
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    defined = set()
    for path in sorted((ROOT / "src" / "gwsemigroup").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type in (tokenize.COMMENT, tokenize.STRING):
                texts.append(tok.string)
        for node in ast.walk(ast.parse(source, str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    named = {match.group(1) for text in texts for match in mention.finditer(text)}
    assert len(named) > 8
    assert sorted(named - defined) == []
