"""The package's exported names resolve and match their defining modules.

A name removed from a module but left in an ``__all__`` list (or re-exported
from ``gwsemigroup``) fails here instead of at a user's import.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from collections.abc import Iterator
from functools import partial

import pytest

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


def test_package_exports_are_the_module_lists():
    from gwsemigroup import backends, core, plotting, semigroup, series, verify

    modules = (backends, core, plotting, semigroup, series, verify)
    expected = [attr for module in modules for attr in module.__all__]
    assert gwsemigroup.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_package_exports_the_public_names():
    assert sorted(gwsemigroup.__all__) == [
        "Box", "BoxSeries", "CheckResult", "IntTuple", "Lattice",
        "SemigroupDescription", "SymmetryReport", "TwoPointProfile",
        "absolute_maximals_below", "canonicalize", "coeff_l", "coeff_p",
        "coeff_q", "cross_validate", "dimension", "dimension_jump",
        "genus0_description", "genus0_dimension",
        "hermitian_description", "hermitian_dimension", "hermitian_genus",
        "is_absolute_maximal", "is_maximal", "is_member", "is_prime_power",
        "lattice_translates", "load_description", "members_from_lubs",
        "nabla_im_set", "nabla_set", "qp_violations",
        "reconstruction_violations", "render_membership_svg",
        "riemann_roch_basis", "run_verification", "save_description",
        "semigroup_polynomial", "series_on_box", "symmetry_report",
        "symmetry_violations", "two_point_profile", "unit",
        "validate_description",
    ]
    # internal helpers stay importable from their modules only
    for attr in ("ones", "tadd", "CHECK_NAMES"):
        assert not hasattr(gwsemigroup, attr), attr


def test_removed_names_stay_gone():
    from gwsemigroup import core, semigroup, series

    for module in (gwsemigroup, core):
        assert not hasattr(module, "indicator")
        assert not hasattr(module, "spread_sample")
    for module in (gwsemigroup, semigroup):
        assert not hasattr(module, "nabla_im_empty")
    assert list(inspect.signature(series.coeff_p).parameters) == ["d", "alpha"]
    assert list(inspect.signature(series.reconstruction_violations).parameters) == ["d", "box"]
    # sigma is worked out from the description, not passed in
    assert list(inspect.signature(series.symmetry_violations).parameters) == ["d", "box"]
    for module in (gwsemigroup, semigroup):
        assert not hasattr(module, "fundamental_maximals")
    # the boolean wrappers of the violation iterators
    for attr in ("check_qp_identity", "check_reconstruction", "check_symmetry_equations"):
        for module in (gwsemigroup, series):
            assert not hasattr(module, attr), attr


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
        (TwoPointProfile, "maximal_elements"),
    ]:
        assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"


def test_series_results_are_the_engine_table():
    from gwsemigroup import series
    from gwsemigroup.core import Box
    from gwsemigroup.series import BoxSeries

    for module in (gwsemigroup, series):
        assert not hasattr(module, "SemigroupPolynomial")
    for attr in ("coeffs", "support", "__getitem__"):
        assert not hasattr(BoxSeries, attr), f"BoxSeries.{attr}"
    assert [f.name for f in dataclasses.fields(BoxSeries)] == ["box", "kind", "values"]
    box = Box((0, 0), (1, 2))
    assert BoxSeries(box=box, kind="P", values=(0,) * 6).terms() == []
    for box_, kind, values in [
        (box, "P", (0,) * 5),
        (box, "P", (0,) * 7),
        (box, "X", (0,) * 6),
        ("x", "P", ()),
        (Box((0,), (1,)), "P", (True, 2.5)),
    ]:
        with pytest.raises(ValueError):
            BoxSeries(box=box_, kind=kind, values=values)
    # a list of values is stored as a tuple
    assert BoxSeries(box=box, kind="P", values=[0] * 6).values == (0,) * 6


def test_symmetry_report_fields():
    from gwsemigroup.series import SymmetryReport

    assert [f.name for f in dataclasses.fields(SymmetryReport)] == [
        "symmetric", "sigma", "gamma_witness", "full_support_witness",
    ]


def _description_entry_points():
    """Every exported function whose first parameter is a description ``d``."""
    return [
        fn
        for fn in map(partial(getattr, gwsemigroup), gwsemigroup.__all__)
        if inspect.isfunction(fn) and next(iter(inspect.signature(fn).parameters)) == "d"
    ]


def test_the_description_entry_points():
    names = {fn.__name__ for fn in _description_entry_points()}
    assert len(names) == 24
    assert {
        "dimension", "is_member", "members_from_lubs", "series_on_box", "run_verification",
        "semigroup_polynomial", "validate_description", "riemann_roch_basis",
    } <= names


@pytest.mark.parametrize("bad", ["x", None, 3])
@pytest.mark.parametrize("fn", _description_entry_points(), ids=lambda fn: fn.__name__)
def test_entry_points_reject_a_non_description(fn, bad, tmp_path):
    # a ValueError naming the argument, never an AttributeError from inside
    given = {"alpha": (1, 1), "box": gwsemigroup.Box((0, 0), (1, 1)), "i": 1, "J": (1,)}
    given.update(kind="L", path=tmp_path / "out.json")
    args = [given[name] for name in list(inspect.signature(fn).parameters)[1:]]
    with pytest.raises(ValueError, match="^expected a SemigroupDescription, got "):
        result = fn(bad, *args)
        if isinstance(result, Iterator):
            list(result)
    assert not (tmp_path / "out.json").exists()
