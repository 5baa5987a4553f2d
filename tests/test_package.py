import importlib

import kreinkit

# kreinkit.mnps names the solver function, so the modules are looked up by path
MODULES = ("spaces", "ball", "mnps", "groups", "fixpoint", "qpd")


def test_all_is_the_union_of_module_exports():
    exported = [
        name
        for module in MODULES
        for name in importlib.import_module(f"kreinkit.{module}").__all__
    ]
    assert sorted(kreinkit.__all__) == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert all(hasattr(kreinkit, name) for name in kreinkit.__all__)
