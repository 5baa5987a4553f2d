"""The four workloads: inputs from a seed, one operation, and its check.

An operation is a fixed bundle with the same composition every time, so the
median and tail of operation latency never straddle two problem sizes (with
four equal size classes as separate operations, the median of mnps-corpus
falls between classes and swings with the order of the draws).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import kreinkit
from kreinkit import fixtures
from kreinkit.serialization import group_to_json, matrix_to_json, rep_to_json

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    """Inputs from a seed, one operation, its check; operations run in this process by default."""

    rss_who = "self"

    def run(self, i: int, trace: bool):
        if not trace:
            return self.op(i), None
        with tracing.Tracer() as tracer:
            out = self.op(i)
        return out, tracing.summarize(tracer.drain())

    @staticmethod
    def same(a, b) -> bool:
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class MnpsCorpus(Workload):
    """Criterion-1 traffic: one operation solves one problem of each signature."""

    SIGNATURES = ((1, 5), (2, 10), (3, 50), (5, 100))
    POOL = 64
    ORDERS = 4096

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.spaces = [kreinkit.build_space(*sig) for sig in self.SIGNATURES]
        self.problems = [[fixtures.random_j_dissipative(sp, rng) for _ in range(self.POOL)]
                         for sp in self.spaces]
        self.orders = [rng.permutation(len(self.spaces)) for _ in range(self.ORDERS)]

    def prepare(self):
        self.norms = [[checks.operator_norm(a) for a in row] for row in self.problems]

    def op(self, i):
        j = i % self.POOL
        order = self.orders[i % self.ORDERS]
        return [kreinkit.mnps(self.spaces[c], self.problems[c][j]).w for c in order]

    def check(self, i, out):
        j = i % self.POOL
        order = self.orders[i % self.ORDERS]
        fails = []
        for c, w in zip(order, out):
            fails += checks.check_mnps(self.spaces[c], self.problems[c][j], self.norms[c][j], w)
        return fails


class PontryaginLarge(Workload):
    """Single solves with n_minus << n, a rank-deficient solve, then the criterion-8 ladder."""

    # The singles are strongly dissipative (margin 0.1, checked by the fixture),
    # so each is one Schur at t = 0.
    # Without a margin, a draw at n = 1000 is now and then not strictly
    # dissipative to within the solver's tolerance (seed 108: (20,980)), and
    # that solve runs the t-ladder: 26 Schurs, 72 s.  The rank-deficient solve
    # takes that path on every run instead, at a size one run can afford.
    SINGLES = ((5, 395), (20, 380), (5, 995), (20, 980))
    RANK_DEFICIENT = (5, 195)
    LADDER = (5, 395)
    LEVELS = ((5, 100), (5, 160), (5, 220), (5, 280), (5, 340), (5, 395))

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.spaces = [kreinkit.build_space(*sig) for sig in self.SINGLES + (self.RANK_DEFICIENT,)]
        self.singles = None  # free the previous set-up's inputs before drawing new ones
        self.singles = [fixtures.random_strongly_j_dissipative(sp, rng) for sp in self.spaces[:-1]]
        self.singles.append(fixtures.random_j_dissipative(self.spaces[-1], rng, rank_deficient=True))
        self.ladder_space = kreinkit.build_space(*self.LADDER)
        self.ladder_a = fixtures.corner_decay_fixture(self.ladder_space, rng, decay=0.95, margin=1.0)

    def prepare(self):
        self.norms = [checks.operator_norm(a) for a in self.singles]
        self.level_norms = [checks.operator_norm(checks.truncate(self.ladder_space, self.ladder_a, level)[1])
                            for level in self.LEVELS]

    def op(self, i):
        ws = [kreinkit.mnps(sp, a).w for sp, a in zip(self.spaces, self.singles)]
        ladder = kreinkit.approximation_ladder(self.ladder_space, self.ladder_a, self.LEVELS)
        return ws + [lv.w_embedded for lv in ladder.levels]

    def check(self, i, out):
        fails = []
        for sp, a, norm_a, w in zip(self.spaces, self.singles, self.norms, out):
            fails += checks.check_mnps(sp, a, norm_a, w)
        embedded = out[len(self.spaces):]
        if len(embedded) != len(self.LEVELS):
            return fails + [f"ladder returned {len(embedded)} levels"]
        return fails + checks.check_ladder(self.ladder_space, self.ladder_a, self.LEVELS,
                                           self.level_norms, embedded)


class GroupCertify(Workload):
    """Fixed point and unitarization on S4 at (4,30), beside a QPD decomposition on S5."""

    SIGNATURE = (4, 30)
    REPS = 4
    FUNCTIONS = 2

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        s4, s5 = kreinkit.named_group("S4"), kreinkit.named_group("S5")
        space = kreinkit.build_space(*self.SIGNATURE)
        self.reps = [fixtures.random_conjugated_rep(s4, space, rng, center_norm=0.5)[0]
                     for _ in range(self.REPS)]
        self.phis = [fixtures.random_qpd_function(s5, rng, k=3)[0] for _ in range(self.FUNCTIONS)]

    def prepare(self):
        self.rep_norms = [checks.rep_norm(rep.matrices) for rep in self.reps]

    def op(self, i):
        rep, phi = self.reps[i % self.REPS], self.phis[i % self.FUNCTIONS]
        fp = kreinkit.common_fixed_point(rep)
        uni = kreinkit.unitarize(rep, fp)
        phi1, phi2, _ = kreinkit.decompose(phi)
        return [fp.k, uni.v, uni.v_inv, phi1.values, phi2.values]

    def check(self, i, out):
        rep, phi = self.reps[i % self.REPS], self.phis[i % self.FUNCTIONS]
        k, v, v_inv, phi1, phi2 = out
        return (checks.check_fixed_point(rep, k)
                + checks.check_unitarization(rep, self.rep_norms[i % self.REPS], v, v_inv)
                + checks.check_decomposition(phi, kreinkit.GroupFunction(phi.group, phi1),
                                             kreinkit.GroupFunction(phi.group, phi2)))


def _write_cli_json(obj, path):
    """The CLI's own output format, which is also what ``kreinkit gen`` writes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _matrix(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(obj["rows"]), int(obj["cols"]))


class CliCold(Workload):
    """Four fresh ``kreinkit`` processes in sequence: mnps, ball matrix, unitarize, ladder."""

    rss_who = "children"
    OPERATOR = (5, 395)
    GROUP_SIGNATURE = (4, 30)
    LEVELS = PontryaginLarge.LEVELS
    COMMANDS = ("mnps", "ball", "unitarize", "ladder")
    TIMEOUT = 120

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.space = kreinkit.build_space(*self.OPERATOR)
        self.a = fixtures.corner_decay_fixture(self.space, rng, decay=0.95, margin=1.0)
        self.center = fixtures.random_ball_point(self.space, rng, norm=0.5)
        s4 = kreinkit.named_group("S4")
        self.rep = fixtures.random_conjugated_rep(s4, kreinkit.build_space(*self.GROUP_SIGNATURE), rng,
                                                  center_norm=0.5)[0]
        path = lambda name: os.path.join(workdir, name)  # noqa: E731
        _write_cli_json({"space": {"n_minus": self.space.n_minus, "n_plus": self.space.n_plus},
                         "matrix": matrix_to_json(self.a)}, path("operator.json"))
        _write_cli_json(matrix_to_json(self.center), path("center.json"))
        _write_cli_json(group_to_json(s4), path("group.json"))
        _write_cli_json(rep_to_json(self.rep), path("rep.json"))
        self.argv = {
            "mnps": ["mnps", "--input", path("operator.json")],
            "ball": ["ball", "matrix", "--center", path("center.json")],
            "unitarize": ["unitarize", "--group", path("group.json"), "--rep", path("rep.json")],
            "ladder": ["ladder", "--input", path("operator.json"), "--levels",
                       *(f"{km},{kp}" for km, kp in self.LEVELS)],
        }

    def prepare(self):
        self.norm_a = checks.operator_norm(self.a)
        self.rep_norm = checks.rep_norm(self.rep.matrices)

    def run(self, i, trace):
        tag = "traced" if trace else "plain"
        outputs, acc = {}, {}
        for command in self.COMMANDS:
            out = os.path.join(self.workdir, f"{tag}-{command}.json")
            trace_out = os.path.join(self.workdir, f"{tag}-{command}.trace.json") if trace else ""
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_out,
                    "--no-timestamp", *self.argv[command], "--out", out]
            if os.path.exists(out):  # never check the previous operation's output
                os.remove(out)
            t0 = time.perf_counter()
            proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=self.TIMEOUT, check=False)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"kreinkit {command} exited {proc.returncode}: "
                                   f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
            with open(out, "rb") as fh:
                outputs[command] = fh.read()
            if trace:
                with open(trace_out, encoding="utf-8") as fh:
                    tracing.merge(acc, json.load(fh))
            else:
                acc.setdefault(f"cli.wall_s.{command}", []).append(wall)
        return outputs, acc

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def check(self, i, out):
        reports = {command: json.loads(out[command]) for command in self.COMMANDS}
        fails = checks.check_mnps(self.space, self.a, self.norm_a, _matrix(reports["mnps"]["w"]))
        fails += checks.check_mnps(self.space, self.a, self.norm_a, _matrix(reports["ladder"]["final_w"]))
        if len(reports["ladder"]["levels"]) != len(self.LEVELS):
            fails.append("ladder report has the wrong number of levels")
        fails += checks.check_mobius_matrix(self.space, self.center, _matrix(reports["ball"]["matrix"]))
        uni = reports["unitarize"]
        fails += checks.check_fixed_point(self.rep, _matrix(uni["fixed_point"]["k"]))
        fails += checks.check_unitarization(self.rep, self.rep_norm, _matrix(uni["v"]), _matrix(uni["v_inv"]))
        return fails


WORKLOADS = {
    "mnps-corpus": MnpsCorpus,
    "pontryagin-large": PontryaginLarge,
    "group-certify": GroupCertify,
    "cli-cold": CliCold,
}
