import importlib
import os
import subprocess
import sys

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


def test_cli_import_loads_neither_scipy_nor_fixtures():
    # scipy.linalg is imported only in the functions that call it; the name
    # kreinkit.mnps.sla still resolves to it, and the Schur fallback looks
    # schur up on that module at each call, so a wrapper set there is seen
    code = (
        "import importlib, sys\n"
        "import kreinkit.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg'\n"
        "assert 'kreinkit.fixtures' not in sys.modules, 'kreinkit.fixtures'\n"
        "import scipy.linalg\n"
        "mnps = importlib.import_module('kreinkit.mnps')\n"
        "assert mnps.sla is scipy.linalg and mnps.sla.schur is scipy.linalg.schur\n"
    )
    src = os.path.dirname(os.path.dirname(kreinkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
