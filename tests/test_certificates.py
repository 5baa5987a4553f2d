"""The one certificate rule: named clauses decide ``certified``.

Each clause is ``name, value, bound`` and passes when ``value <= bound``;
``spaces._first_failed`` names the first clause that fails, and every report
that is not certified carries that name.
"""

import importlib
import json

import numpy as np
import pytest

from kreinkit import (
    GroupFunction,
    approximation_ladder,
    build_space,
    common_fixed_point,
    cyclic,
    decompose,
    mnps,
    named_group,
    rep_validate,
    unitarize,
    verify_decomposition,
    verify_mnps,
)
from kreinkit.cli import main
from kreinkit.fixpoint import CERT_TOL
from kreinkit.fixtures import random_conjugated_rep, random_qpd_function, random_strongly_j_dissipative
from kreinkit.qpd import RECONSTRUCTION_RTOL
from kreinkit.serialization import group_function_to_json, group_to_json, matrix_to_json, rep_to_json
from kreinkit.spaces import _Clause, _first_failed, _norm_lower_bound

MNPS_MODULE = importlib.import_module("kreinkit.mnps")


@pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf], ids=["nan", "negative-nan", "inf"])
def test_a_non_finite_value_fails(value):
    assert _first_failed([_Clause("c", value, 1.0)]) == "c"


def test_nan_fails_even_an_infinite_bound():
    assert _first_failed([_Clause("c", np.nan, np.inf)]) == "c"
    assert _first_failed([_Clause("c", np.inf, np.inf), _Clause("d", -np.inf, 0.0)]) == ""


def test_a_nan_bound_fails():
    assert _first_failed([_Clause("c", 0.0, np.nan)]) == "c"


def test_value_equal_to_bound_passes():
    assert _first_failed([_Clause("c", 1e-9, 1e-9), _Clause("d", 0, 0)]) == ""


def test_the_first_failed_clause_is_named():
    clauses = [_Clause("a", 0.0, 1.0), _Clause("b", 2.0, 1.0), _Clause("c", np.nan, 1.0)]
    assert _first_failed(clauses) == "b"
    assert _first_failed(clauses[2:]) == "c"
    assert _first_failed([]) == ""
    assert _first_failed(iter(clauses[:1])) == ""


def _rep(seed=0):
    rng = np.random.default_rng(seed)
    return random_conjugated_rep(named_group("S3"), build_space(2, 3), rng, center_norm=0.5)[0]


class TestMnps:
    def _solve(self, tol_res):
        sp = build_space(2, 6)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(3))
        return sp, a, mnps(sp, a, tol_res=tol_res)

    @pytest.mark.parametrize("tol_res", [1e-9, 1e-30])
    def test_certified_exactly_when_no_clause_fails(self, tol_res):
        sp, a, report = self._solve(tol_res)
        clauses = MNPS_MODULE._certificate(sp, a, report.w, tol_res, _norm_lower_bound(a))[3]
        assert [c.name for c in clauses] == ["invariance_residual", "w_norm"]
        assert report.failed_clause == _first_failed(clauses)
        assert report.certified == (report.failed_clause == "")

    def test_unreachable_tolerance_names_the_residual(self):
        _, _, report = self._solve(1e-30)
        assert not report.certified
        assert report.failed_clause == "invariance_residual"
        assert report.message == "failed to certify: invariance_residual"
        assert report.as_dict()["failed_clause"] == "invariance_residual"

    def test_certified_report_has_no_failed_clause_key(self):
        _, _, report = self._solve(1e-9)
        assert report.certified and report.message == ""
        assert "failed_clause" not in report.as_dict()

    def test_ladder_levels_and_final_report_follow_the_rule(self):
        sp, a, _ = self._solve(1e-9)
        ladder = approximation_ladder(sp, a, [(1, 3), (2, 6)], tol_res=1e-30)
        assert not ladder.all_certified
        assert [lv.failed_clause for lv in ladder.levels] == ["invariance_residual"] * 2
        assert ladder.final_report.failed_clause == "invariance_residual"
        assert ladder.as_dict()["final"]["failed_clause"] == "invariance_residual"

    def test_verify_reads_each_clause(self):
        sp, a, report = self._solve(1e-9)
        outside = 2.0 * report.w / np.linalg.norm(report.w, 2)  # ||W|| = 2: not non-positive
        for w, tol in ((report.w, 1e-8), (report.w, 1e-30), (outside, 1e-8)):
            invariant, maximal = MNPS_MODULE._certificate(sp, a, w, tol, _norm_lower_bound(a))[3]
            verdict = verify_mnps(sp, a, w, tol=tol)
            assert verdict.invariant == (_first_failed([invariant]) == "")
            assert verdict.maximal_nonpositive == (_first_failed([maximal]) == "")


class TestFixedPointAndUnitarization:
    def test_unreachable_tolerance_names_the_map_residual_then_the_fixed_point(self):
        rep = _rep()
        fp = common_fixed_point(rep, cert_tol=1e-20)
        assert not fp.certified and fp.failed_clause == "map_residual"
        uni = unitarize(rep, fp)
        assert not uni.certified and uni.failed_clause == "fixed_point"
        assert uni.as_dict()["failed_clause"] == "fixed_point"

    def test_certified_exactly_when_no_clause_fails(self):
        rep, reports = _rep(), []
        for cert_tol in (CERT_TOL, 1e-20):
            fp = common_fixed_point(rep, cert_tol=cert_tol)
            reports += [fp, unitarize(rep, fp, cert_tol=cert_tol)]
        assert [report.certified for report in reports] == [True, True, False, False]
        for report in reports:
            assert report.certified == (report.failed_clause == "")
            assert ("failed_clause" in report.as_dict()) == (not report.certified)

    def test_unitarity_defect_clause(self):
        rep = _rep()
        fp = common_fixed_point(rep)
        uni = unitarize(rep, fp, cert_tol=1e-30)
        assert fp.certified and uni.failed_clause == "unitarity_defect"

    def test_rep_diagnostics_read_three_clauses(self):
        diag = rep_validate(_rep())
        names = ("homomorphism_defect", "identity_defect", "j_unitarity_defect")
        for tol in (1e-30, 1e-14, 1e-10):
            clauses = [_Clause(name, getattr(diag, name), tol) for name in names]
            assert diag.ok(tol) == (_first_failed(clauses) == "")
        assert not diag.ok(1e-30) and diag.ok(1e-10)


class TestDecomposition:
    def test_sign_flipped_decomposition_names_phi2(self):
        g = cyclic(3)
        phi = GroupFunction(g, np.ones(3))
        zero = GroupFunction(g, np.zeros(3))
        cert = verify_decomposition(phi, zero, GroupFunction(g, -phi.values))
        assert cert.failed_clause == "phi2_negative_squares"
        assert not cert.ok(scale=phi.max_abs)

    def test_ok_exactly_when_no_clause_fails(self):
        phi = random_qpd_function(named_group("S3"), np.random.default_rng(8), k=2)[0]
        _, _, cert = decompose(phi)
        assert [c.name for c in cert._clauses(phi.max_abs, RECONSTRUCTION_RTOL)] == [
            "reconstruction_error",
            "phi1_negative_squares",
            "phi2_negative_squares",
            "rank_bounded_by_k",
            "k_bounded_by_rank",
        ]
        assert cert.failed_clause == "" and "failed_clause" not in cert.as_dict()
        for scale, tol in ((phi.max_abs, RECONSTRUCTION_RTOL), (phi.max_abs, 1e-30), (0.0, 1.0)):
            assert cert.ok(scale=scale, tol=tol) == (_first_failed(cert._clauses(scale, tol)) == "")
        assert not cert.ok(scale=phi.max_abs, tol=1e-30)

    def test_a_missing_rank_fails_both_rank_clauses(self):
        g = cyclic(3)
        phi = GroupFunction(g, np.ones(3))
        zero = GroupFunction(g, np.zeros(3))
        cert = verify_decomposition(phi, zero, GroupFunction(g, -phi.values))
        assert cert.phi2_rank is None
        clauses = {c.name: c for c in cert._clauses(1.0, RECONSTRUCTION_RTOL)}
        for name in ("rank_bounded_by_k", "k_bounded_by_rank"):
            assert _first_failed([clauses[name]]) == name


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestCli:
    """An uncertified run writes ``failed_clause``; a certified one does not."""

    def _run(self, tmp_path, tol, *argv):
        out = tmp_path / "out.json"
        code = main(["--no-timestamp", "--tol", tol, *argv, "--out", str(out)])
        return code, json.loads(out.read_text())

    @pytest.mark.parametrize("tol,code", [("1", 0), ("1e-21", 1)])
    def test_mnps(self, tmp_path, tol, code):
        sp = build_space(2, 6)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(3))
        inp = _write(tmp_path / "a.json", {"space": {"n_minus": 2, "n_plus": 6}, "matrix": matrix_to_json(a)})
        got, report = self._run(tmp_path, tol, "mnps", "--input", inp)
        assert got == code
        assert report.get("failed_clause") == (None if code == 0 else "invariance_residual")

    @pytest.mark.parametrize("tol,code", [("1", 0), ("1e-30", 1)])
    def test_ladder_names_the_clause_of_each_level(self, tmp_path, tol, code):
        sp = build_space(2, 6)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(3))
        inp = _write(tmp_path / "a.json", {"space": {"n_minus": 2, "n_plus": 6}, "matrix": matrix_to_json(a)})
        got, report = self._run(tmp_path, tol, "ladder", "--input", inp, "--levels", "1,3", "2,6")
        assert got == code
        expected = None if code == 0 else "invariance_residual"
        assert [level.get("failed_clause") for level in report["levels"]] == [expected] * 2
        assert report["final"].get("failed_clause") == expected

    @pytest.mark.parametrize("command", ["fixpoint", "unitarize"])
    @pytest.mark.parametrize("tol,code", [("1", 0), ("1e-12", 1)])
    def test_fixpoint_and_unitarize(self, tmp_path, command, tol, code):
        rep = _rep()
        group = _write(tmp_path / "g.json", group_to_json(rep.group))
        rep_path = _write(tmp_path / "r.json", rep_to_json(rep))
        got, report = self._run(tmp_path, tol, command, "--group", group, "--rep", rep_path)
        assert got == code
        expected = {"fixpoint": "map_residual", "unitarize": "fixed_point"}[command]
        assert report.get("failed_clause") == (None if code == 0 else expected)
        if command == "unitarize":
            assert report["fixed_point"].get("failed_clause") == (None if code == 0 else "map_residual")

    @pytest.mark.parametrize("tol,code", [("1", 0), ("1e-30", 1)])
    def test_qpd_decompose(self, tmp_path, tol, code):
        phi = random_qpd_function(named_group("S3"), np.random.default_rng(5), k=2)[0]
        group = _write(tmp_path / "g.json", group_to_json(phi.group))
        values = _write(tmp_path / "v.json", group_function_to_json(phi))
        got, report = self._run(tmp_path, tol, "qpd", "decompose", "--group", group, "--values", values)
        assert got == code
        cert = report["certificate"]
        assert cert.get("failed_clause") == (None if code == 0 else "reconstruction_error")
        assert "failed_clause" not in report
