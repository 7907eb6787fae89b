"""Names the benchmark's tracer patches must keep resolving in the package.

``perfbench/tracing.py`` wraps ``gwsemigroup.<module>.<function>`` for each
entry of ``TRACED`` and reports one timing per ``verify`` check, named as in
``VERIFY_CHECKS``.  A rename here would break ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

from gwsemigroup import verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for modname, fname in _tracing().TRACED:
        module = importlib.import_module(f"gwsemigroup.{modname}")
        assert callable(getattr(module, fname, None)), f"gwsemigroup.{modname}.{fname}"


def test_verify_checks_match_the_benchmark():
    assert verify.CHECK_NAMES == list(_tracing().VERIFY_CHECKS)
