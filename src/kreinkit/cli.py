"""Batch command-line front end.

Every subcommand reads JSON inputs, writes a JSON report with full
certificate fields, and exits 0 when all certificates pass, 1 when the run
is uncertified, and 2 on malformed input.  Reports are byte-identical
across reruns apart from the timestamp, which ``--no-timestamp`` removes;
output files are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import gc
import json
import os
import sys
import tempfile

import numpy as np

from .ball import _matrix_and_bounds, hyperbolic_distance, mobius_apply
from .fixpoint import CERT_TOL, _rep_defects, common_fixed_point, rep_validate, unitarize
from .groups import named_group
from .mnps import DEFAULT_TOL_RES, NotDissipativeError, approximation_ladder, mnps
from .qpd import RECONSTRUCTION_RTOL, _gram_spectrum, decompose
from .serialization import (
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
from .spaces import (
    IndefiniteSpace,
    _checked_tol,
    _first_failed,
    _stack_frobenius_norm,
    _unitarity_gap,
    operator_norm,
)

EXIT_CERTIFIED = 0
EXIT_UNCERTIFIED = 1
EXIT_INPUT_ERROR = 2


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:  # a RuntimeError, which would read as "uncertified"
            raise ValueError(f"{path}: JSON nested too deeply to decode") from exc


def _write_json(obj: dict, path: str | None, no_timestamp: bool) -> None:
    if not no_timestamp:
        obj = dict(obj)
        obj["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json_text(obj)
    if path is None:
        sys.stdout.write(text + "\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates mode 0600; give the report the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    try:
        k, m = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} {text!r} must look like 'k,m'") from exc
    return k, m


def _positive_tol(text: str) -> float:
    """``--tol``: a finite multiplier above 0; inf would pass every residual test, nan or 0 none."""
    try:
        return _checked_tol(float(text), "--tol")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}") from None


def _parse_signature(text: str) -> IndefiniteSpace:
    return IndefiniteSpace(*_parse_pair(text, "signature"))


def _load_operator(path: str, signature: str | None):
    """Matrix file, either bare or wrapped as {'space': ..., 'matrix': ...}."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "matrix" in obj:
        return space_from_json(obj.get("space", {})), matrix_from_json(obj["matrix"])
    if signature is None:
        raise ValueError("bare matrix input needs --signature k,m")
    return _parse_signature(signature), matrix_from_json(obj)


def _ball_space(matrix: np.ndarray) -> IndefiniteSpace:
    return IndefiniteSpace(matrix.shape[1], matrix.shape[0])


def _threads() -> int:
    # The ladder's worker count, always 1: perfbench/run.py prints it until
    # the benchmark refresh deletes both.
    return 1


def cmd_mnps(args) -> int:
    space, matrix = _load_operator(args.input, args.signature)
    report = mnps(space, matrix, tol_res=DEFAULT_TOL_RES * args.tol)
    _write_json(report.as_dict(), args.out, args.no_timestamp)
    return EXIT_CERTIFIED if report.certified else EXIT_UNCERTIFIED


def cmd_ladder(args) -> int:
    levels = [_parse_pair(lv, "ladder level") for lv in args.levels]
    space, matrix = _load_operator(args.input, args.signature)
    report = approximation_ladder(space, matrix, levels, tol_res=DEFAULT_TOL_RES * args.tol)
    _write_json(report.as_dict(), args.out, args.no_timestamp)
    return EXIT_CERTIFIED if report.all_certified else EXIT_UNCERTIFIED


def cmd_ball(args) -> int:
    if args.action != "matrix" and args.point is None:
        raise ValueError(f"ball {args.action} needs --point")
    a = matrix_from_json(_load_json(args.center))
    space = _ball_space(a)
    if args.action == "apply":
        image = mobius_apply(space, a, matrix_from_json(_load_json(args.point)))
        payload = {"image": matrix_to_json(image), "image_norm": operator_norm(image)}
    elif args.action == "distance":
        payload = {"distance": hyperbolic_distance(space, a, matrix_from_json(_load_json(args.point)))}
    else:  # matrix, built once for the matrix, its norm and its defect
        m, bounds = _matrix_and_bounds(space, a)
        payload = {
            "matrix": matrix_to_json(m),
            "j_unitarity_defect": operator_norm(_unitarity_gap(space, m)),
            "norm": bounds.norm,
            "lower_bound": bounds.lower_bound,
            "upper_bound": bounds.upper_bound,
        }
    _write_json(payload, args.out, args.no_timestamp)
    return EXIT_CERTIFIED


def _load_rep(args):
    group = group_from_json(_load_json(args.group))
    rep = rep_from_json(group, _load_json(args.rep))
    # Frobenius norms bound spectral ones and the tolerance is at least 1e-6.
    if _rep_defects(rep, _stack_frobenius_norm).ok(1e-6):
        return rep
    diag = rep_validate(rep)
    if not diag.ok(1e-6 * max(1.0, rep.norm**2)):
        raise ValueError(
            "input is not a J-unitary representation "
            f"(homomorphism defect {diag.homomorphism_defect:.3e}, "
            f"J-unitarity defect {diag.j_unitarity_defect:.3e})"
        )
    return rep


def cmd_fixpoint(args) -> int:
    rep = _load_rep(args)
    report = common_fixed_point(rep, cert_tol=CERT_TOL * args.tol)
    _write_json(report.as_dict(), args.out, args.no_timestamp)
    return EXIT_CERTIFIED if report.certified else EXIT_UNCERTIFIED


def cmd_unitarize(args) -> int:
    rep = _load_rep(args)
    fp = common_fixed_point(rep, cert_tol=CERT_TOL * args.tol)
    report = unitarize(rep, fp, cert_tol=CERT_TOL * args.tol)
    payload = report.as_dict()
    payload["fixed_point"] = fp.as_dict()
    _write_json(payload, args.out, args.no_timestamp)
    return EXIT_CERTIFIED if report.certified else EXIT_UNCERTIFIED


def cmd_qpd(args) -> int:
    group = group_from_json(_load_json(args.group))
    phi = group_function_from_json(group, _load_json(args.values))
    if args.action == "classify":
        eigs, _, inertia = _gram_spectrum(phi)
        payload = {"negative_squares": inertia.n_neg, "gram_norm": float(np.max(np.abs(eigs)))}
        if inertia.n_neg == 0:
            payload["finite_type_rank"] = inertia.n_pos
        _write_json(payload, args.out, args.no_timestamp)
        return EXIT_CERTIFIED
    phi1, phi2, cert = decompose(phi)
    failed = _first_failed(cert._clauses(phi.max_abs, RECONSTRUCTION_RTOL * args.tol))
    payload = {
        "phi1": group_function_to_json(phi1),
        "phi2": group_function_to_json(phi2),
        "certificate": dataclasses.replace(cert, failed_clause=failed).as_dict(),
    }
    _write_json(payload, args.out, args.no_timestamp)
    return EXIT_UNCERTIFIED if failed else EXIT_CERTIFIED


def _out_path(base: str, suffix: str) -> str:
    root, ext = os.path.splitext(base)
    if ext == ".json":
        return f"{root}.{suffix}.json"
    return f"{base}.{suffix}.json"


def cmd_gen(args) -> int:
    from . import fixtures  # only gen uses the fixtures; keep them out of every other command

    rng = np.random.default_rng(args.seed)
    if args.kind in ("dissipative", "strongly-dissipative"):
        space = _parse_signature(args.signature)
        if args.kind == "dissipative":
            matrix = fixtures.random_j_dissipative(space, rng)
        else:
            matrix = fixtures.random_strongly_j_dissipative(space, rng)
        _write_json({"space": space_to_json(space), "matrix": matrix_to_json(matrix)},
                    args.out, args.no_timestamp)
        return EXIT_CERTIFIED
    if args.kind == "conjugated-rep":
        group = named_group(args.group)
        space = _parse_signature(args.signature)
        rep, _ = fixtures.random_conjugated_rep(group, space, rng, center_norm=args.norm)
        _write_json(group_to_json(group), _out_path(args.out, "group"), args.no_timestamp)
        _write_json(rep_to_json(rep), _out_path(args.out, "rep"), args.no_timestamp)
        return EXIT_CERTIFIED
    if args.kind == "qpd":
        group = named_group(args.group)
        phi, _, _ = fixtures.random_qpd_function(group, rng, k=args.k)
        _write_json(group_to_json(group), _out_path(args.out, "group"), args.no_timestamp)
        _write_json(group_function_to_json(phi), _out_path(args.out, "values"), args.no_timestamp)
        return EXIT_CERTIFIED
    raise ValueError(f"unknown fixture kind {args.kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinkit",
        description="Indefinite-metric linear algebra with machine-checkable certificates.",
    )
    parser.add_argument("--tol", type=_positive_tol, default=1.0,
                        help="multiplier applied to all default tolerances")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field for byte-identical reruns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mnps", help="invariant MNPS of a J-dissipative matrix")
    p.add_argument("--input", required=True, help="operator JSON file")
    p.add_argument("--signature", help="k,m when the input is a bare matrix")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mnps)

    p = sub.add_parser("ladder", help="MNPS along a ladder of coordinate truncations")
    p.add_argument("--input", required=True)
    p.add_argument("--signature", help="k,m when the input is a bare matrix")
    p.add_argument("--levels", nargs="+", required=True, metavar="K,M",
                   help="levels as k,m pairs; the last must be the full signature")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("ball", help="Mobius maps, hyperbolic distance, M_A")
    p.add_argument("action", choices=["apply", "distance", "matrix"])
    p.add_argument("--center", required=True, help="ball point JSON (the map center / first point)")
    p.add_argument("--point", help="second ball point JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("fixpoint", help="common fixed point of a J-unitary representation")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fixpoint)

    p = sub.add_parser("unitarize", help="conjugate a bounded J-unitary rep to a unitary one")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_unitarize)

    p = sub.add_parser("qpd", help="classify or decompose a quasi-positive-definite function")
    p.add_argument("action", choices=["classify", "decompose"])
    p.add_argument("--group", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qpd)

    p = sub.add_parser("gen", help="generate seeded fixture input files")
    p.add_argument("kind", choices=["dissipative", "strongly-dissipative", "conjugated-rep", "qpd"])
    p.add_argument("--signature", default="1,3")
    p.add_argument("--group", default="Z4")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--norm", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # JSON input and output build hundreds of thousands of small lists, which the
    # cyclic collector would traverse again and again; reference counting frees them
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            return args.func(args)
        except NotDissipativeError as exc:  # raised by mnps and ladder, which report it
            _write_json(
                {"certified": False, "reason": "not J-dissipative", "detail": str(exc)},
                args.out,
                args.no_timestamp,
            )
            return EXIT_UNCERTIFIED
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
