import argparse
import gc
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import kreinkit.ball as ball_module
import kreinkit.cli as cli_module
from kreinkit import GroupRep, build_space, cyclic, mobius_norm, named_group, operator_norm, rep_validate
from kreinkit.cli import _load_rep, main
from kreinkit.fixtures import (
    random_ball_point,
    random_conjugated_rep,
    random_j_dissipative,
    random_qpd_function,
    random_strongly_j_dissipative,
)
from kreinkit.serialization import (
    group_from_json,
    group_function_from_json,
    group_function_to_json,
    group_to_json,
    json_text,
    matrix_from_json,
    matrix_to_json,
    rep_from_json,
    rep_to_json,
    space_from_json,
    space_to_json,
)
from kreinkit.spaces import _stack_frobenius_norm, _unitarity_gap


# JSON scalars that a pair list may hold: every float class (signed zeros,
# subnormals, NaN, infinities), integers, booleans, null and awkward strings
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 1e308, float("nan"), float("inf"), -float("inf"))
TEXT = st.one_of(
    st.text(alphabet="[],\" \\:\n\x00aé€😀", max_size=6),
    st.text(max_size=4),
    st.just("\x00kreinkit-pairs-0"),
)
SCALAR = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), st.integers(), st.booleans(),
                   st.none(), TEXT)
PAIRS = st.lists(st.lists(SCALAR, min_size=2, max_size=2), max_size=5)
RAGGED = st.lists(st.lists(SCALAR, max_size=3), max_size=4)
# json.dumps writes number, boolean and null keys as strings; one kind of key
# per dict, since sort_keys cannot order strings against numbers
KEYS = (TEXT, st.one_of(st.integers(), st.floats(), st.booleans()), st.none())
JSON_TREE = st.recursive(
    st.one_of(PAIRS, RAGGED, SCALAR),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            *(st.dictionaries(key, inner, max_size=4) for key in KEYS)),
    max_leaves=12,
)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def load(path):
    return json.loads(path.read_text())


class TestSerialization:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert_allclose(matrix_from_json(matrix_to_json(m)), m)

    def test_matrix_row_major_layout(self):
        obj = matrix_to_json(np.array([[1 + 2j, 3.0], [4j, 5.0]]))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"] == [[1.0, 2.0], [3.0, 0.0], [0.0, 4.0], [5.0, 0.0]]

    def test_matrix_malformed_inputs(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[1, 0, 0]]})
        with pytest.raises(ValueError):
            matrix_from_json([1, 2, 3])
        for bad in (float("nan"), float("inf"), None):
            with pytest.raises(ValueError):
                matrix_from_json({"rows": 1, "cols": 1, "data": [[bad, 0.0]]})

    def test_codecs_match_entry_loop(self):
        # the per-entry loops the vectorized codecs replaced, kept as reference;
        # signed zeros must survive both directions
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        m[0, 0], m[1, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
        data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
        assert matrix_to_json(m)["data"] == data
        back = matrix_from_json(matrix_to_json(m))
        loop = np.array([complex(re, im) for re, im in data]).reshape(3, 4)
        assert np.array_equal(back.view(float), loop.view(float))
        assert np.array_equal(np.signbit(back.view(float)), np.signbit(loop.view(float)))
        phi, _, _ = random_qpd_function(named_group("S3"), rng, k=1)
        values = [[float(z.real), float(z.imag)] for z in phi.values]
        assert group_function_to_json(phi)["values"] == values

    def test_space_round_trip(self):
        sp = build_space(2, 5)
        assert space_from_json(space_to_json(sp)) == sp

    def test_space_rejects_non_integer_signature(self):
        for bad in (1.7, 1.0, True, "1", None):
            with pytest.raises(ValueError):
                space_from_json({"n_minus": bad, "n_plus": 2})

    def test_matrix_rejects_booleans_among_numbers(self):
        for pair in ([1.0, True], [False, 0.0], [True, 2]):
            with pytest.raises(ValueError):
                matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], pair]})

    def test_matrix_rejects_non_integer_shape(self):
        data = [[1.0, 0.0], [2.0, 0.0]]
        for rows, cols in ((2.7, True), (2.0, 1), (2, 1.0), (2, "1"), (None, 1), (2, False)):
            with pytest.raises(ValueError, match="must be integers"):
                matrix_from_json({"rows": rows, "cols": cols, "data": data})
        with pytest.raises(ValueError, match="must be integers"):
            matrix_from_json({"cols": 1, "data": data})
        with pytest.raises(ValueError, match="list of"):
            matrix_from_json({"rows": 2, "cols": 1})

    def test_group_round_trip(self):
        g = named_group("D4")
        g2 = group_from_json(group_to_json(g))
        assert g2.order == g.order
        assert np.array_equal(g2.table, g.table)
        assert g2.identity == g.identity

    def test_group_json_cross_checks(self):
        obj = group_to_json(cyclic(3))
        obj["identity"] = 1
        with pytest.raises(ValueError):
            group_from_json(obj)
        obj = group_to_json(cyclic(3))
        obj["order"] = 5
        with pytest.raises(ValueError):
            group_from_json(obj)

    def test_group_rejects_non_integer_order_and_identity(self):
        for key, bad in (("order", 2.9), ("order", 2.0), ("order", True),
                         ("identity", 0.7), ("identity", False), ("identity", "0")):
            obj = group_to_json(cyclic(2))
            obj[key] = bad
            with pytest.raises(ValueError, match="not an integer"):
                group_from_json(obj)

    def test_group_rejects_non_list_elements_and_table(self):
        for key, bad in (("elements", 5), ("elements", "ab"), ("table", 0), ("table", {"0": [0]})):
            obj = group_to_json(cyclic(2))
            obj[key] = bad
            with pytest.raises(ValueError, match=f"{key} must be a list"):
                group_from_json(obj)
        with pytest.raises(ValueError, match="elements must be a list"):
            group_from_json({"elements": 5, "table": [[0]], "order": 1})

    @given(JSON_TREE)
    @settings(max_examples=300, deadline=None)
    def test_json_text_matches_indented_stdlib(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_json_text_matches_indented_stdlib_on_reports(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        m[0, 0], m[1, 1] = complex(-0.0, 5e-324), complex(1e308, -0.0)
        for obj in (matrix_to_json(m), {"levels": [{"w": matrix_to_json(m)}, []], "norm": 2.0},
                    [matrix_to_json(m[:1, :1])], matrix_to_json(m)["data"], group_to_json(named_group("S3")),
                    group_to_json(cyclic(1))):
            assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [{(1, 2): 0}, {b"k": [[1, 2]]}, {"a": 0, 1: 0}, [{"d": {1j: None}}]])
    def test_json_text_rejects_keys_as_stdlib_does(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            json_text(obj)

    def test_rep_round_trip(self):
        rng = np.random.default_rng(1)
        rep, _ = random_conjugated_rep(cyclic(4), build_space(1, 2), rng)
        rep2 = rep_from_json(rep.group, rep_to_json(rep))
        assert_allclose(rep2.matrices, rep.matrices)

    @pytest.mark.parametrize(
        "read,obj,what",
        [
            (space_from_json, {"n_minus": 1}, "space"),
            (group_from_json, {"elements": ["0"]}, "group"),
            (lambda obj: rep_from_json(cyclic(1), obj), {"space": {"n_minus": 0, "n_plus": 1}},
             "representation"),
            (lambda obj: group_function_from_json(cyclic(1), obj), {"value": [[1.0, 0.0]]},
             "group-function"),
        ],
        ids=["space", "group", "representation", "group-function"],
    )
    def test_missing_keys_are_malformed(self, read, obj, what):
        with pytest.raises(ValueError, match=f"^malformed {what} JSON: "):
            read(obj)

    def test_rep_must_carry_one_matrix_per_element(self):
        obj = {"space": {"n_minus": 0, "n_plus": 1}, "matrices": [matrix_to_json(np.eye(1))]}
        with pytest.raises(ValueError, match="^representation carries 1 matrices for a group of order 2$"):
            rep_from_json(cyclic(2), obj)

    def test_group_function_round_trip(self):
        rng = np.random.default_rng(2)
        g = named_group("S3")
        phi, _, _ = random_qpd_function(g, rng, k=1)
        phi2 = group_function_from_json(g, group_function_to_json(phi))
        assert_allclose(phi2.values, phi.values)


class TestMnpsCommand:
    def test_j_input_certifies(self, tmp_path):
        sp = build_space(1, 2)
        inp = write(tmp_path / "a.json", matrix_to_json(sp.j))
        out = tmp_path / "report.json"
        code = main(["mnps", "--input", inp, "--signature", "1,2", "--out", str(out)])
        assert code == 0
        report = load(out)
        assert report["certified"] is True
        assert_allclose(
            matrix_from_json(report["w"]), np.zeros((2, 1)), atol=1e-12
        )

    def test_non_dissipative_exits_one(self, tmp_path):
        sp = build_space(1, 1)
        inp = write(tmp_path / "bad.json", matrix_to_json(-1j * sp.j))
        out = tmp_path / "r.json"
        code = main(["mnps", "--input", inp, "--signature", "1,1", "--out", str(out)])
        assert code == 1
        assert load(out)["reason"] == "not J-dissipative"

    def test_ladder_non_dissipative_writes_the_same_report(self, tmp_path):
        sp = build_space(1, 1)
        inp = write(tmp_path / "bad.json", matrix_to_json(-1j * sp.j))
        outs = [tmp_path / "m.json", tmp_path / "l.json"]
        args = (["mnps"], ["ladder", "--levels", "1,1"])
        for cmd, out in zip(args, outs):
            argv = ["--no-timestamp", *cmd, "--input", inp, "--signature", "1,1", "--out", str(out)]
            assert main(argv) == 1
        assert load(outs[1])["reason"] == "not J-dissipative"
        assert outs[1].read_bytes() == outs[0].read_bytes()

    def test_seeded_fixture_certifies(self, tmp_path):
        rng = np.random.default_rng(3)
        sp = build_space(2, 6)
        a = random_j_dissipative(sp, rng)
        inp = write(
            tmp_path / "a.json",
            {"space": space_to_json(sp), "matrix": matrix_to_json(a)},
        )
        code = main(["mnps", "--input", inp, "--out", str(tmp_path / "r.json")])
        assert code == 0

    @pytest.mark.parametrize("e, code", [(600, 0), (-1070, 2)])
    def test_huge_input_certifies_and_subnormal_input_exits_two(self, tmp_path, capsys, e, code):
        sp = build_space(2, 10)
        a = np.ldexp(random_strongly_j_dissipative(sp, np.random.default_rng(3)).view(float), e).view(complex)
        inp = write(tmp_path / "a.json", {"space": space_to_json(sp), "matrix": matrix_to_json(a)})
        out = tmp_path / "r.json"
        assert main(["mnps", "--input", inp, "--out", str(out)]) == code
        if code == 0:
            assert load(out)["certified"] is True
            # the solve runs at unit scale, so the answer keeps its bits at 2^600
            plain = random_strongly_j_dissipative(sp, np.random.default_rng(3))
            base_inp = write(tmp_path / "base.json", {"space": space_to_json(sp), "matrix": matrix_to_json(plain)})
            assert main(["mnps", "--input", base_inp, "--out", str(tmp_path / "base_r.json")]) == 0
            assert load(out)["w"]["data"] == load(tmp_path / "base_r.json")["w"]["data"]
        else:
            assert "error: operator scale" in capsys.readouterr().err

    def test_report_takes_no_svd_of_the_operator(self, tmp_path, monkeypatch):
        # the report has no norm_a: its dense SVD of A cost more than the solve
        sp = build_space(5, 95)
        a = random_strongly_j_dissipative(sp, np.random.default_rng(21))
        inp = write(tmp_path / "a.json", {"space": space_to_json(sp), "matrix": matrix_to_json(a)})
        svd, norm, shapes = np.linalg.svd, np.linalg.norm, []

        def recording_svd(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return svd(x, *args, **kwargs)

        def recording_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                shapes.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "norm", recording_norm)
        out = tmp_path / "r.json"
        assert main(["mnps", "--input", inp, "--out", str(out)]) == 0
        report = load(out)
        assert report["certified"] is True and "norm_a" not in report
        assert shapes  # the certificate's norms went through the recorders
        assert (sp.n, sp.n) not in shapes

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["mnps", "--input", str(bad), "--signature", "1,1"]) == 2

    def test_non_finite_entry_exits_two(self, tmp_path, capsys):
        obj = matrix_to_json(build_space(1, 1).j)
        obj["data"][3][0] = float("inf")
        inp = write(tmp_path / "a.json", obj)
        assert main(["mnps", "--input", inp, "--signature", "1,1"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_wrong_shape_exits_two(self, tmp_path, capsys):
        inp = write(tmp_path / "a.json", matrix_to_json(np.eye(3)))
        assert main(["mnps", "--input", inp, "--signature", "1,1"]) == 2
        assert main(["mnps", "--input", inp, "--signature", "2,2"]) == 2
        assert "error: operator must be 4x4, got (3, 3)" in capsys.readouterr().err

    def test_non_integer_signature_exits_two(self, tmp_path):
        sp = build_space(1, 2)
        obj = {"space": {"n_minus": 1.7, "n_plus": 2}, "matrix": matrix_to_json(sp.j)}
        inp = write(tmp_path / "a.json", obj)
        assert main(["mnps", "--input", inp, "--out", str(tmp_path / "r.json")]) == 2

    def test_bare_matrix_without_signature_exits_two(self, tmp_path, capsys):
        inp = write(tmp_path / "a.json", matrix_to_json(1j * build_space(1, 1).j))
        assert main(["mnps", "--input", inp]) == 2
        assert "bare matrix input needs --signature k,m" in capsys.readouterr().err

    def test_boolean_entry_exits_two(self, tmp_path):
        obj = matrix_to_json(1j * build_space(1, 1).j)
        obj["data"][1] = [0.0, True]
        inp = write(tmp_path / "a.json", obj)
        assert main(["mnps", "--input", inp, "--signature", "1,1"]) == 2


    def test_non_integer_matrix_shape_exits_two(self, tmp_path, capsys):
        obj = matrix_to_json(build_space(1, 1).j)
        obj["rows"] = 2.0
        inp = write(tmp_path / "a.json", obj)
        assert main(["mnps", "--input", inp, "--signature", "1,1"]) == 2
        assert "must be integers" in capsys.readouterr().err

    def test_unreachable_tolerance_exits_one_with_message(self, tmp_path):
        # --tol 1e-21 sets tol_res = 1e-30, which no level of the schedule reaches
        sp = build_space(1, 1)
        inp = write(tmp_path / "a.json", matrix_to_json(sp.j @ np.ones((2, 2))))
        out = tmp_path / "r.json"
        argv = ["--tol", "1e-21", "mnps", "--input", inp, "--signature", "1,1", "--out", str(out)]
        assert main(argv) == 1
        report = load(out)
        assert report["certified"] is False
        assert report["message"].startswith("failed to certify")


class TestLadderCommand:
    def test_decay_fixture(self, tmp_path):
        from kreinkit.fixtures import corner_decay_fixture

        rng = np.random.default_rng(4)
        sp = build_space(2, 18)
        a = corner_decay_fixture(sp, rng, decay=0.8)
        inp = write(
            tmp_path / "a.json",
            {"space": space_to_json(sp), "matrix": matrix_to_json(a)},
        )
        out = tmp_path / "ladder.json"
        code = main(
            ["ladder", "--input", inp, "--levels", "2,6", "2,12", "2,18", "--out", str(out)]
        )
        assert code == 0
        report = load(out)
        assert set(report) == {"levels", "final_w", "final", "timestamp"}
        assert len(report["levels"]) == 3
        assert report["levels"][0]["delta_to_previous"] is None
        assert "w_embedded" not in report["levels"][0]

    @pytest.mark.parametrize("level", ["5", "2,4,6", "a,b"])
    def test_malformed_level_exits_two(self, tmp_path, capsys, level):
        sp = build_space(1, 2)
        inp = write(
            tmp_path / "a.json",
            {"space": space_to_json(sp), "matrix": matrix_to_json(1j * sp.j)},
        )
        code = main(["ladder", "--input", inp, "--levels", level, "1,2",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"ladder level '{level}' must look like 'k,m'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestBallCommand:
    def test_apply_center_zero(self, tmp_path):
        rng = np.random.default_rng(5)
        sp = build_space(2, 3)
        a = random_ball_point(sp, rng, 0.5)
        ca = write(tmp_path / "a.json", matrix_to_json(a))
        zero = write(tmp_path / "zero.json", matrix_to_json(np.zeros((3, 2))))
        out = tmp_path / "img.json"
        assert main(["ball", "apply", "--center", ca, "--point", zero, "--out", str(out)]) == 0
        assert_allclose(matrix_from_json(load(out)["image"]), a, atol=1e-12)

    def test_distance_values(self, tmp_path):
        zero = write(tmp_path / "z.json", matrix_to_json(np.zeros((1, 1))))
        half = write(tmp_path / "h.json", matrix_to_json(np.array([[0.5]])))
        out = tmp_path / "d.json"
        assert main(["ball", "distance", "--center", zero, "--point", half, "--out", str(out)]) == 0
        assert load(out)["distance"] == pytest.approx(0.5493061443340549, abs=1e-9)
        assert main(["ball", "distance", "--center", half, "--point", half, "--out", str(out)]) == 0
        assert load(out)["distance"] == pytest.approx(0.0, abs=1e-12)

    def test_matrix_emits_j_unitary(self, tmp_path):
        ca = write(tmp_path / "a.json", matrix_to_json(np.array([[0.6]])))
        out = tmp_path / "m.json"
        assert main(["ball", "matrix", "--center", ca, "--out", str(out)]) == 0
        report = load(out)
        assert report["j_unitarity_defect"] <= 1e-10
        assert report["norm"] == pytest.approx(2.0, abs=1e-10)

    def test_matrix_takes_the_center_norm_once(self, tmp_path, monkeypatch):
        # the bounds reuse the boundary check's ||A||; ||M_A|| and the defect take the others
        sp = build_space(5, 395)
        a = random_ball_point(sp, np.random.default_rng(16), 0.5)
        ca = write(tmp_path / "a.json", matrix_to_json(a))
        shapes = []
        for module in (ball_module, cli_module):
            monkeypatch.setattr(module, "operator_norm",
                                lambda m: shapes.append(m.shape) or operator_norm(m))
        out = tmp_path / "m.json"
        assert main(["ball", "matrix", "--center", ca, "--out", str(out)]) == 0
        assert shapes == [(395, 5), (400, 400), (400, 400)]
        monkeypatch.undo()
        bounds = mobius_norm(sp, matrix_from_json(load(tmp_path / "a.json")))
        report = load(out)
        assert (report["norm"], report["lower_bound"], report["upper_bound"]) == (
            bounds.norm, bounds.lower_bound, bounds.upper_bound)

    def test_boundary_rejected_exit_two(self, tmp_path):
        ca = write(tmp_path / "a.json", matrix_to_json(np.array([[1.0]])))
        zero = write(tmp_path / "z.json", matrix_to_json(np.zeros((1, 1))))
        assert main(["ball", "matrix", "--center", ca]) == 2
        assert main(["ball", "apply", "--center", ca, "--point", zero]) == 2

    @pytest.mark.parametrize("action", ["apply", "distance"])
    def test_missing_point_exits_two(self, tmp_path, capsys, action):
        ca = write(tmp_path / "a.json", matrix_to_json(np.array([[0.5]])))
        out = tmp_path / "r.json"
        assert main(["--no-timestamp", "ball", action, "--center", ca, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: ball {action} needs --point" in err and "Traceback" not in err
        assert not out.exists()


class TestFixpointCommands:
    def make_rep_files(self, tmp_path, seed=6, group_name="Z4", sig=(1, 2), norm=0.5):
        rng = np.random.default_rng(seed)
        group = named_group(group_name)
        rep, _ = random_conjugated_rep(group, build_space(*sig), rng, center_norm=norm)
        gpath = write(tmp_path / "group.json", group_to_json(group))
        rpath = write(tmp_path / "rep.json", rep_to_json(rep))
        return gpath, rpath

    def test_fixpoint_certifies(self, tmp_path):
        gpath, rpath = self.make_rep_files(tmp_path)
        out = tmp_path / "fp.json"
        assert main(["fixpoint", "--group", gpath, "--rep", rpath, "--out", str(out)]) == 0
        report = load(out)
        assert report["certified"] is True
        assert report["max_map_residual"] <= 1e-8

    def test_unitarize_certifies_with_bound(self, tmp_path):
        gpath, rpath = self.make_rep_files(tmp_path, group_name="Q8", sig=(2, 3))
        out = tmp_path / "uni.json"
        assert main(["unitarize", "--group", gpath, "--rep", rpath, "--out", str(out)]) == 0
        report = load(out)
        assert report["cond"] <= report["bound"] + 1e-6
        assert report["max_unitarity_defect"] <= 1e-8
        assert "unitaries" not in report and "k" in report["fixed_point"]

    def test_corrupted_table_exits_two(self, tmp_path):
        gpath, rpath = self.make_rep_files(tmp_path)
        obj = load(tmp_path / "group.json")
        obj["table"][0][1] = 0
        write(tmp_path / "group.json", obj)
        assert main(["fixpoint", "--group", gpath, "--rep", rpath]) == 2

    def test_non_integer_group_order_exits_two(self, tmp_path, capsys):
        gpath, rpath = self.make_rep_files(tmp_path, group_name="Z2", sig=(1, 1))
        obj = load(tmp_path / "group.json")
        obj["order"], obj["identity"] = 2.9, 0.7
        write(tmp_path / "group.json", obj)
        assert main(["unitarize", "--group", gpath, "--rep", rpath]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_non_list_group_elements_exits_two(self, tmp_path, capsys):
        _, rpath = self.make_rep_files(tmp_path, group_name="Z2", sig=(1, 1))
        gpath = write(tmp_path / "bad_group.json", {"elements": 5, "table": [[0]], "order": 1})
        assert main(["unitarize", "--group", gpath, "--rep", rpath]) == 2
        assert "elements must be a list" in capsys.readouterr().err

    def test_repeated_group_labels_exit_two(self, tmp_path, capsys):
        gpath, rpath = self.make_rep_files(tmp_path, group_name="Z2", sig=(1, 1))
        obj = load(tmp_path / "group.json")
        obj["elements"] = ["a", "a"]
        write(tmp_path / "group.json", obj)
        assert main(["unitarize", "--group", gpath, "--rep", rpath]) == 2
        assert "element labels must be distinct" in capsys.readouterr().err

    def test_non_rep_matrices_exit_two(self, tmp_path):
        gpath, rpath = self.make_rep_files(tmp_path)
        obj = load(tmp_path / "rep.json")
        obj["matrices"][1] = obj["matrices"][0]
        write(tmp_path / "rep.json", obj)
        assert main(["fixpoint", "--group", gpath, "--rep", rpath]) == 2


class TestRepresentationGate:
    """The CLI's representation gate: a Frobenius bound first, exact defects only past it."""

    @staticmethod
    def svd_counter(monkeypatch):
        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    @staticmethod
    def load_rep(tmp_path, rep):
        gpath = write(tmp_path / "group.json", group_to_json(rep.group))
        rpath = write(tmp_path / "rep.json", rep_to_json(rep))
        return _load_rep(argparse.Namespace(group=gpath, rep=rpath))

    def test_valid_rep_takes_no_svd(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(40)
        rep, _ = random_conjugated_rep(named_group("S4"), build_space(4, 30), rng, center_norm=0.5)
        calls = self.svd_counter(monkeypatch)
        loaded = self.load_rep(tmp_path, rep)
        assert calls == []
        assert np.array_equal(loaded.matrices, rep.matrices)

    def test_non_rep_reports_the_exact_defects(self, tmp_path, capsys):
        rng = np.random.default_rng(41)
        rep, _ = random_conjugated_rep(named_group("S3"), build_space(2, 3), rng, center_norm=0.5)
        mats = rep.matrices.copy()
        mats[1] = mats[2]
        bad = GroupRep(rep.group, rep.space, mats)
        diag = rep_validate(bad)
        gpath = write(tmp_path / "group.json", group_to_json(bad.group))
        rpath = write(tmp_path / "rep.json", rep_to_json(bad))
        assert main(["unitarize", "--group", gpath, "--rep", rpath]) == 2
        err = capsys.readouterr().err
        assert (
            "input is not a J-unitary representation "
            f"(homomorphism defect {diag.homomorphism_defect:.3e}, "
            f"J-unitarity defect {diag.j_unitarity_defect:.3e})"
        ) in err

    def test_spectral_defect_within_tol_is_accepted(self, tmp_path, monkeypatch):
        # one element scaled by 1 + 2e-7 on a unitary rep (||pi|| ~ 1, tol ~ 1e-6):
        # the spectral defects are about 4e-7, the Frobenius ones sqrt(32) times more
        rng = np.random.default_rng(42)
        rep, _ = random_conjugated_rep(named_group("S3"), build_space(2, 30), rng, center_norm=0.0)
        mats = rep.matrices.copy()
        mats[1] *= 1.0 + 2e-7
        near = GroupRep(rep.group, rep.space, mats)
        tol = 1e-6 * max(1.0, near.norm**2)
        diag = rep_validate(near)
        assert diag.ok(tol)
        assert _stack_frobenius_norm(_unitarity_gap(near.space, near.matrices)) > tol
        calls = self.svd_counter(monkeypatch)
        assert np.array_equal(self.load_rep(tmp_path, near).matrices, near.matrices)
        assert calls  # the guard failed, so the exact defects were computed


class TestQpdCommand:
    def test_classify_pd(self, tmp_path):
        g = cyclic(4)
        gpath = write(tmp_path / "g.json", group_to_json(g))
        from kreinkit import GroupFunction

        vpath = write(
            tmp_path / "v.json",
            group_function_to_json(GroupFunction(g, np.ones(4))),
        )
        out = tmp_path / "c.json"
        assert main(["qpd", "classify", "--group", gpath, "--values", vpath, "--out", str(out)]) == 0
        report = load(out)
        assert report["negative_squares"] == 0
        assert report["finite_type_rank"] == 1

    def test_classify_indefinite(self, tmp_path):
        from kreinkit import negative_squares

        g = named_group("S4")
        phi, _, _ = random_qpd_function(g, np.random.default_rng(6), k=3)
        gpath = write(tmp_path / "g.json", group_to_json(g))
        vpath = write(tmp_path / "v.json", group_function_to_json(phi))
        out = tmp_path / "c.json"
        assert main(["qpd", "classify", "--group", gpath, "--values", vpath, "--out", str(out)]) == 0
        report = load(out)
        assert report["negative_squares"] == negative_squares(phi) > 0
        assert "finite_type_rank" not in report

    def test_decompose_z2(self, tmp_path):
        from kreinkit import GroupFunction

        g = cyclic(2)
        gpath = write(tmp_path / "g.json", group_to_json(g))
        vpath = write(
            tmp_path / "v.json",
            group_function_to_json(GroupFunction(g, [1.0, 2.0])),
        )
        out = tmp_path / "d.json"
        assert main(["qpd", "decompose", "--group", gpath, "--values", vpath, "--out", str(out)]) == 0
        report = load(out)
        phi1 = group_function_from_json(g, report["phi1"])
        phi2 = group_function_from_json(g, report["phi2"])
        assert_allclose(phi1.values, [1.5, 1.5], atol=1e-9)
        assert_allclose(phi2.values, [0.5, -0.5], atol=1e-9)
        assert report["certificate"]["negative_squares"] == 1

    def test_random_fixture_certified(self, tmp_path):
        rng = np.random.default_rng(7)
        g = named_group("S3")
        phi, _, _ = random_qpd_function(g, rng, k=2)
        gpath = write(tmp_path / "g.json", group_to_json(g))
        vpath = write(tmp_path / "v.json", group_function_to_json(phi))
        assert main(["qpd", "decompose", "--group", gpath, "--values", vpath]) == 0


class TestGenCommand:
    def test_gen_dissipative_feeds_mnps(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(["gen", "dissipative", "--signature", "2,5", "--seed", "11", "--out", str(out)]) == 0
        assert main(["mnps", "--input", str(out), "--out", str(tmp_path / "r.json")]) == 0

    def test_gen_conjugated_rep_feeds_unitarize(self, tmp_path):
        prefix = tmp_path / "fx"
        assert main([
            "gen", "conjugated-rep", "--group", "D4", "--signature", "2,3",
            "--seed", "3", "--norm", "0.5", "--out", str(prefix),
        ]) == 0
        assert main([
            "unitarize", "--group", str(tmp_path / "fx.group.json"),
            "--rep", str(tmp_path / "fx.rep.json"),
        ]) == 0

    def test_gen_qpd_feeds_decompose(self, tmp_path):
        prefix = tmp_path / "q"
        assert main([
            "gen", "qpd", "--group", "Z6", "--k", "2", "--seed", "5", "--out", str(prefix),
        ]) == 0
        assert main([
            "qpd", "decompose", "--group", str(tmp_path / "q.group.json"),
            "--values", str(tmp_path / "q.values.json"),
        ]) == 0

    def test_gen_qpd_k_zero_is_positive_definite_and_negative_k_exits_two(self, tmp_path, capsys):
        prefix = tmp_path / "q"
        assert main(["gen", "qpd", "--group", "S3", "--k", "0", "--out", str(prefix)]) == 0
        out = tmp_path / "c.json"
        assert main(["qpd", "classify", "--group", str(tmp_path / "q.group.json"),
                     "--values", str(tmp_path / "q.values.json"), "--out", str(out)]) == 0
        assert load(out)["negative_squares"] == 0
        assert main(["gen", "qpd", "--group", "S3", "--k", "-1", "--out", str(tmp_path / "n")]) == 2
        assert "k must be at least 0, got -1" in capsys.readouterr().err

    def test_gen_negative_norm_exits_two(self, tmp_path, capsys):
        assert main(["gen", "conjugated-rep", "--norm", "-0.5", "--out", str(tmp_path / "fx")]) == 2
        assert "norm must be at least 0, got -0.5" in capsys.readouterr().err
        assert not (tmp_path / "fx.group.json").exists()

    def test_gen_group_above_the_order_cap_exits_two(self, tmp_path, capsys):
        # the cap fires before Z60000's 29 GB table is allocated
        assert main(["gen", "conjugated-rep", "--group", "Z60000", "--out", str(tmp_path / "fx")]) == 2
        assert "exceeds MAX_ORDER" in capsys.readouterr().err

    def test_gen_reproducible(self, tmp_path):
        a1, a2 = tmp_path / "a1.json", tmp_path / "a2.json"
        argv = ["--no-timestamp", "gen", "dissipative", "--signature", "1,4", "--seed", "9"]
        assert main(argv + ["--out", str(a1)]) == 0
        assert main(argv + ["--out", str(a2)]) == 0
        assert a1.read_text() == a2.read_text()


class TestDeterminism:
    def test_reports_byte_identical_without_timestamp(self, tmp_path):
        rng = np.random.default_rng(8)
        sp = build_space(1, 3)
        a = random_strongly_j_dissipative(sp, rng)
        inp = write(
            tmp_path / "a.json",
            {"space": space_to_json(sp), "matrix": matrix_to_json(a)},
        )
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["--no-timestamp", "mnps", "--input", inp, "--out", str(r1)]) == 0
        assert main(["--no-timestamp", "mnps", "--input", inp, "--out", str(r2)]) == 0
        assert r1.read_text() == r2.read_text()

    def test_report_mode_follows_umask(self, tmp_path):
        inp = write(tmp_path / "a.json", matrix_to_json(build_space(1, 1).j))
        out = tmp_path / "r.json"
        old = os.umask(0o022)
        try:
            assert main(["mnps", "--input", inp, "--signature", "1,1", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o644

    def test_timestamp_present_by_default(self, tmp_path):
        inp = write(tmp_path / "a.json", matrix_to_json(build_space(1, 1).j))
        out = tmp_path / "r.json"
        assert main(["mnps", "--input", inp, "--signature", "1,1", "--out", str(out)]) == 0
        assert "timestamp" in load(out)


class TestEntryPoint:
    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1", "abc"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # inf would pass every residual test; nan, 0 and negatives would fail them all
        out = tmp_path / "a.json"
        assert main(["gen", "dissipative", "--signature", "1,3", "--seed", "0", "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "mnps", "--input", str(out)])
        assert exc.value.code == 2
        assert "argument --tol: must be a finite number above 0" in capsys.readouterr().err
        assert main(["--tol", "2.5", "mnps", "--input", str(out), "--out", str(tmp_path / "r.json")]) == 0

    def test_json_nested_past_the_recursion_limit_exits_two(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["mnps", "--input", str(deep), "--signature", "1,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: JSON nested too deeply")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, tmp_path, enabled):
        sp = build_space(1, 1)
        inputs = (
            (matrix_to_json(sp.j), 0),
            (matrix_to_json(-1j * sp.j), 1),  # not J-dissipative
            (matrix_to_json(np.eye(3)), 2),  # wrong shape
        )
        was = gc.isenabled()
        try:
            for obj, code in inputs:
                if enabled:
                    gc.enable()
                else:
                    gc.disable()
                argv = ["mnps", "--input", write(tmp_path / "a.json", obj), "--signature", "1,1",
                        "--out", str(tmp_path / "r.json")]
                assert main(argv) == code
                assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()
