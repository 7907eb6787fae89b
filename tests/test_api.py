"""The package's exported names resolve and match their defining modules.

A name removed from a module but left in an ``__all__`` list (or re-exported
from ``gwsemigroup``) fails here instead of at a user's import.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import gwsemigroup


def _modules():
    return [
        importlib.import_module(f"gwsemigroup.{info.name}")
        for info in pkgutil.iter_modules(gwsemigroup.__path__)
        if not info.name.startswith("_")
    ]


def test_module_exports_resolve():
    for module in _modules():
        for attr in module.__all__:
            assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_package_exports_are_the_module_objects():
    homes = {}
    for module in _modules():
        for attr in module.__all__:
            homes.setdefault(attr, module)
    for attr in gwsemigroup.__all__:
        assert attr in homes, f"{attr} is in no module's __all__"
        assert getattr(gwsemigroup, attr) is getattr(homes[attr], attr), attr


def test_removed_names_stay_gone():
    from gwsemigroup import core, semigroup, series

    for module in (gwsemigroup, core):
        assert not hasattr(module, "indicator")
    for module in (gwsemigroup, semigroup):
        assert not hasattr(module, "nabla_im_empty")
    assert list(inspect.signature(series.coeff_p).parameters) == ["d", "alpha"]


def test_lattice_is_its_periods_and_test_only_api_is_gone():
    from gwsemigroup.core import Lattice
    from gwsemigroup.semigroup import TwoPointProfile
    from gwsemigroup.series import BoxSeries

    assert [f.name for f in dataclasses.fields(Lattice)] == ["periods"]
    for cls, attr in [
        (Lattice, "from_periods"),
        (Lattice, "combination"),
        (Lattice, "contains"),
        (BoxSeries, "from_json_dict"),
        (TwoPointProfile, "sigma1"),
    ]:
        assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"
