import importlib
import pkgutil
import types

import graph_ot


def test_package_exports_exactly_the_submodule_lists():
    names = graph_ot.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(graph_ot, name), name
    submodule_names = set()
    for module in pkgutil.iter_modules(graph_ot.__path__):
        submodule = importlib.import_module(f"graph_ot.{module.name}")
        submodule_names.update(getattr(submodule, "__all__", ()))
    assert set(names) == submodule_names


def test_package_public_names_are_its_exports():
    public = {
        name
        for name, value in vars(graph_ot).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(graph_ot.__all__)
