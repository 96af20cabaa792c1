"""Command-line front end.

Subcommands: ``mean`` (barycenter of an ensemble file), ``distance`` and
``geodesic`` (between two matrix files), ``generate`` (seeded random ensemble
files), ``verify`` (inequality suite). Exit codes: 0 success, 1 malformed
input, 2 solver non-convergence, 3 verification failure.

``mean``, ``distance`` and ``geodesic`` load only the geometry, the solver and
``io``: ``verify`` imports the suite (``checks``) and ``generate`` the seeded
generators (``seeded``) in its own function, and each of the two adds its
arguments, whose defaults those modules own, only when the command line
selects it.
"""

import argparse
import inspect
import sys

import numpy as np

from .barycenter import SolverBreakdownError, SolverConfig, objective, wasserstein_mean
from .bures import bw_distance, geodesic
from .io import (
    FormatError,
    dumps_canonical,
    ensemble_to_json_dict,
    load_ensemble,
    load_matrix,
    load_plan,
    matrix_to_json_dict,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CHECK_FAILED = 3


def _write(args, doc, text):
    """Write ``doc`` as canonical JSON, or for ``--format text`` ``text()``."""
    text = dumps_canonical(doc) if args.format == "json" else text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix_text(mat):
    # Every entry, where numpy would summarise over 1,000 of them with "...".
    return np.array2string(mat, precision=12, suppress_small=False, threshold=sys.maxsize) + "\n"


def cmd_mean(args):
    ensemble = load_ensemble(args.ensemble)
    config = SolverConfig(max_iter=args.max_iter, residual_tol=args.tol)
    report = wasserstein_mean(ensemble, config)
    value = objective(report.mean, ensemble)
    doc = {
        "iterations": report.iterations,
        "residual": report.residual,
        "objective": value,
        "converged": report.converged,
        "mean": matrix_to_json_dict(report.mean),
        "config": {"max_iter": config.max_iter, "residual_tol": config.residual_tol},
    }
    _write(args, doc, lambda: (
        f"converged: {report.converged}\n"
        f"iterations: {report.iterations}\n"
        f"residual: {report.residual:.6e}\n"
        f"objective: {value:.6e}\n"
        f"mean:\n{_matrix_text(report.mean)}"
    ))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_distance(args):
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    value = bw_distance(a, b)
    _write(args, {"distance": value}, lambda: f"distance: {value:.12e}\n")
    return EXIT_OK


def cmd_geodesic(args):
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    point = geodesic(a, b, args.t)
    _write(args, matrix_to_json_dict(point), lambda: _matrix_text(point))
    return EXIT_OK


def cmd_generate(args):
    from .seeded import random_ensemble

    ensemble = random_ensemble(
        args.m, args.n, args.seed,
        eig_lo=args.eig_lo, eig_hi=args.eig_hi, commuting=args.commuting,
    )
    doc = ensemble_to_json_dict(ensemble)
    _write(args, doc, lambda: dumps_canonical(doc))
    return EXIT_OK


def _parse_checks(arg):
    if arg == "all":
        return arg
    if arg == "none":
        return []
    return [name.strip() for name in arg.split(",") if name.strip()]


def cmd_verify(args):
    from .checks import SuitePlan, run_suite

    if args.plan:
        plan = load_plan(args.plan)
    else:
        plan = SuitePlan(
            checks=_parse_checks(args.checks),
            seeds=(args.seed, args.seed + args.seed_count),
            tol=args.tol,
        )
    reports = run_suite(plan)
    doc = [r.to_json_dict() for r in reports]
    lines = []
    for r in reports:
        verdict = "skip" if r.skipped else ("pass" if r.holds else "FAIL")
        lines.append(f"{verdict:4s} {r.check_name:28s} margin={r.margin: .3e}")
    failed = [r for r in reports if not r.skipped and not r.holds]
    skipped = [r for r in reports if r.skipped]
    lines.append(
        f"{len(reports) - len(failed) - len(skipped)} passed, "
        f"{len(failed)} failed, {len(skipped)} skipped"
    )
    _write(args, doc, lambda: "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that calls ``arguments(self)`` the first time it
    parses, so a command's arguments, and the modules their defaults come
    from, load only when the command line selects that command."""

    def __init__(self, *, arguments=None, **kwargs):
        super().__init__(**kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            arguments, self._arguments = self._arguments, None
            arguments(self)
        return super().parse_known_args(args, namespace)


def _add_output_flags(p):
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="output format (default: json)")
    p.add_argument("--out", default=None, help="write output to this path "
                   "instead of stdout")


def _generate_arguments(p_gen):
    from .seeded import random_ensemble

    p_gen.add_argument("--m", type=int, required=True, help="matrix dimension")
    p_gen.add_argument("--n", type=int, required=True, help="ensemble size")
    p_gen.add_argument("--seed", type=int, default=0, help="seed (default: 0)")
    spectrum = inspect.signature(random_ensemble).parameters
    p_gen.add_argument("--eig-lo", type=float, default=spectrum["eig_lo"].default,
                       help="spectrum lower edge (default: %(default)s)")
    p_gen.add_argument("--eig-hi", type=float, default=spectrum["eig_hi"].default,
                       help="spectrum upper edge (default: %(default)s)")
    p_gen.add_argument("--commuting", action="store_true",
                       help="share one eigenbasis across the ensemble")
    _add_output_flags(p_gen)


def _verify_arguments(p_ver):
    from .checks import SuitePlan

    p_ver.add_argument("--plan", default=None, help="suite plan JSON path "
                       "(overrides the flags below)")
    p_ver.add_argument("--checks", default="all",
                       help="comma-separated check names, 'all' or 'none' "
                       "(default: all)")
    p_ver.add_argument("--seed", type=int, default=SuitePlan.seeds[0],
                       help="first seed of the range (default: %(default)s)")
    p_ver.add_argument("--seed-count", type=int, default=SuitePlan.seeds[1] - SuitePlan.seeds[0],
                       help="number of seeds per check (default: %(default)s)")
    p_ver.add_argument("--tol", type=float, default=SuitePlan.tol,
                       help="Loewner margin tolerance (default: %(default)s)")
    _add_output_flags(p_ver)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wassmean",
        description="Bures-Wasserstein distances, geodesics, barycenters and "
        "Loewner-order inequality checks for positive definite matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p_mean = sub.add_parser("mean", help="Wasserstein mean of an ensemble file")
    p_mean.add_argument("ensemble", help="ensemble JSON path")
    p_mean.add_argument("--tol", type=float, default=SolverConfig.residual_tol,
                        help="residual tolerance (default: %(default)s)")
    p_mean.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                        help="iteration budget (default: %(default)s)")
    _add_output_flags(p_mean)
    p_mean.set_defaults(func=cmd_mean)

    p_dist = sub.add_parser("distance", help="distance between two matrix files")
    p_dist.add_argument("a", help="first matrix JSON path")
    p_dist.add_argument("b", help="second matrix JSON path")
    _add_output_flags(p_dist)
    p_dist.set_defaults(func=cmd_distance)

    p_geo = sub.add_parser("geodesic", help="point on the geodesic between two "
                           "matrix files")
    p_geo.add_argument("a", help="first matrix JSON path")
    p_geo.add_argument("b", help="second matrix JSON path")
    p_geo.add_argument("--t", type=float, required=True,
                       help="geodesic parameter in [0, 1]")
    _add_output_flags(p_geo)
    p_geo.set_defaults(func=cmd_geodesic)

    sub.add_parser("generate", help="seeded random ensemble file",
                   arguments=_generate_arguments).set_defaults(func=cmd_generate)
    sub.add_parser("verify", help="run the inequality suite",
                   arguments=_verify_arguments).set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverBreakdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():
    raise SystemExit(main())
