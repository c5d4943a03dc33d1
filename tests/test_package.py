"""The package's public names: one table, resolved from their home modules."""

import importlib

import pytest

import tripaths


def test_every_export_is_the_object_its_home_module_binds():
    for module, names in tripaths._HOMES.items():
        home = importlib.import_module(f"tripaths.{module}")
        for name in names:
            assert getattr(tripaths, name) is getattr(home, name), (module, name)


def test_all_lists_each_name_of_the_table_once():
    listed = [name for names in tripaths._HOMES.values() for name in names]
    assert len(tripaths.__all__) == len(set(tripaths.__all__))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == tripaths.__all__


def test_an_unknown_name_is_not_exported():
    with pytest.raises(AttributeError, match="nope"):
        tripaths.nope
    with pytest.raises(ImportError):
        from tripaths import nope  # noqa: F401


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tripaths import *", namespace)
    assert set(tripaths.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(tripaths, name)
               for name in tripaths.__all__)
