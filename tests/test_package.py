import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

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


# the public surface: a name is added to or removed from kreinkit.__all__ only by editing this list
PUBLIC_NAMES = [
    "BoundaryError", "DecompositionCertificate", "DegeneratePencilError", "FiniteGroup", "FixedPointReport",
    "GnsResult", "GroupFunction", "GroupRep", "GroupStructureError", "IndefiniteSpace", "Inertia", "LadderReport",
    "MapUndefinedError", "MnpsReport", "MobiusNormBounds", "NotAGraphError", "NotDissipativeError",
    "SpectrumOnAxisError", "Subspace", "UnitarizationReport", "VerifyReport", "approximation_ladder", "build_space",
    "common_fixed_point", "cyclic", "decompose", "dihedral", "direct_product", "finite_type_rank",
    "fractional_linear", "gns_construct", "graph_from_subspace", "graph_of", "group_average_metric",
    "hyperbolic_distance", "indefinite_product", "invariance_residual", "j_adjoint", "mnps", "mobius_apply",
    "mobius_matrix", "mobius_norm", "named_group", "negative_squares", "operator_norm", "quaternion", "radius_from_norm", "rep_validate",
    "spectral_split", "subspace_signature", "symmetric", "unitarize", "verify_decomposition", "verify_mnps",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 54
    assert sorted(kreinkit.__all__) == PUBLIC_NAMES


def test_readme_package_layout_names_only_exported_names():
    # every backticked identifier in a re-exported module's row is in that module's __all__
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        match = re.match(r"^\| `kreinkit\.(\w+)` \| (.*) \|$", line)
        if match and match.group(1) in MODULES:
            rows[match.group(1)] = match.group(2)
    assert sorted(rows) == sorted(MODULES)
    for module, text in rows.items():
        names = [name for name in re.findall(r"`([^`]+)`", text) if name.isidentifier()]
        assert names, module
        exported = importlib.import_module(f"kreinkit.{module}").__all__
        assert [name for name in names if name not in exported] == [], module


def test_mnps_attribute_is_the_function_and_the_module_is_reached_by_path():
    # the star import binds kreinkit.mnps to the solver; the module keeps its name
    module = importlib.import_module("kreinkit.mnps")
    assert module.mnps is kreinkit.mnps
    assert module is sys.modules["kreinkit.mnps"] and module.__name__ == "kreinkit.mnps"


def test_cli_import_loads_neither_scipy_nor_fixtures():
    # scipy.linalg is imported only in the functions that call it; the name
    # kreinkit.mnps.sla still resolves to it, and the Schur fallback looks
    # schur up on that module at each call, so a wrapper set there is seen.
    # The ladder runs its levels in one loop, so no thread pool is loaded.
    code = (
        "import importlib, sys\n"
        "import kreinkit.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg'\n"
        "assert 'kreinkit.fixtures' not in sys.modules, 'kreinkit.fixtures'\n"
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures'\n"
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
        "    kk.Subspace(sp, np.vstack([fp.k.conj().T, np.eye(sp.n_plus)])), kk.graph_of(sp, fp.k)\n"
        "    phi = fixtures.random_qpd_function(group, rng, k=2)[0]\n"
        "    assert kk.decompose(phi)[2].ok(scale=phi.max_abs)\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    run_fresh(code)


def test_multi_block_cayley_solve_leaves_scipy_unloaded():
    # A + i mu is factored by a numpy block LU: a certified (5,295) solve,
    # three pivot blocks, loads no scipy module
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import kreinkit as kk\n"
        "from kreinkit import fixtures\n"
        "sp = kk.build_space(5, 295)\n"
        "a = fixtures.random_strongly_j_dissipative(sp, np.random.default_rng(20))\n"
        "rep = kk.mnps(sp, a)\n"
        "assert rep.certified and rep.regularization_t == 0.0\n"
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
