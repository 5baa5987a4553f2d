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
    run_fresh(code)


def test_group_and_qpd_paths_leave_scipy_unloaded():
    # the pencil is reduced by a numpy Cholesky and the J-complement has a
    # closed form, so only the Schur fallback of mnps loads scipy
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import kreinkit as kk\n"
        "from kreinkit import fixtures\n"
        "rng = np.random.default_rng(0)\n"
        "for name in ('S3', 'S4'):\n"
        "    group = kk.named_group(name)\n"
        "    sp = kk.build_space(2, 5)\n"
        "    rep, _ = fixtures.random_conjugated_rep(group, sp, rng, center_norm=0.9)\n"
        "    fp = kk.common_fixed_point(rep)\n"
        "    assert fp.certified and kk.unitarize(rep, fp).certified\n"
        "    assert kk.unitarize(rep).certified\n"
        "    kk.invariant_dual_pair(rep)\n"
        "    phi = fixtures.random_qpd_function(group, rng, k=2)[0]\n"
        "    assert kk.decompose(phi)[2].ok(scale=phi.max_abs)\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    run_fresh(code)


def run_fresh(code):
    """Runs code in a new interpreter that imports this checkout's kreinkit."""
    src = os.path.dirname(os.path.dirname(kreinkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
