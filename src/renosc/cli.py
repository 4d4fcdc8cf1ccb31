"""Command-line front end.

Subcommands: `box` (full rectangle indices + eigenvalues), `invariance`
(certificate constants, optionally a full-grid scan with loss-point
classification), and `left-shelf` (renormalized crossing count plus the
monotonicity audit).  Configs are JSON files or built-in catalog names.

Exit codes: 0 success, 1 usage/config/expression error (a non-positive
leading coefficient included), 2 invariance violation (including
collapsed, rank-deficient frames), 3 numeric blow-up.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import artifacts
from .errors import (
    BlowUpError,
    ConfigError,
    DegenerateCoefficientError,
    ExpressionError,
    InvarianceViolationError,
    RenoscError,
)
from .invariance import _psi_grids, classify_loss_point, constants_report, rho_grid_scan
from .maslovbox import compute_box, monotonicity_audit, renormalized_count
from .problems import CATALOG, builtin_catalog, load_config_file, load_problem


class _Parser(argparse.ArgumentParser):
    """argparse with two changes: a token that parses as a float is a value,
    never an option (argparse itself takes -1 and -.5 for numbers but not
    -1e3 or -inf), and a usage error exits 1, not 2, which is reserved for
    invariance violations.  Subcommand parsers are of the same class."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("config", help="JSON config path or catalog name "
                     f"({', '.join(CATALOG)})")
    sub.add_argument("--x-steps", type=int, default=None)
    sub.add_argument("--lambda-steps", type=int, default=None)
    sub.add_argument("--lambda", dest="lam", type=float, nargs=2, default=None,
                     metavar=("L1", "L2"), help="override the spectral interval")
    sub.add_argument("--no-rescale", action="store_true",
                     help="disable per-step column rescaling")
    sub.add_argument("--out", default="renosc-out", help="output directory")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The CLI's parser, built once per process (about a millisecond) and
    shared by every `main` call; parse_args leaves it as it was."""
    ap = _Parser(prog="renosc", description=__doc__)
    sp = ap.add_subparsers(dest="command", required=True)

    box = sp.add_parser("box", help="compute all four shelves and eigenvalues")
    _add_common(box)

    inv = sp.add_parser("invariance", help="certificate constants and rho scans")
    _add_common(inv)
    inv.add_argument("--scan", action="store_true",
                     help="also scan rho over the full grid")
    inv.add_argument("--refine", type=int, default=2,
                     help="loss-point refinement rounds (default 2)")

    left = sp.add_parser("left-shelf", help="renormalized count and audit")
    _add_common(left)
    return ap


def _load(args):
    name = args.config
    if os.path.exists(name):
        cfg = load_config_file(name)
    elif name in CATALOG:
        cfg = builtin_catalog(name)
    else:
        raise ConfigError(f"no such file or catalog entry: {name}")
    override = {"x_steps": args.x_steps, "lambda_steps": args.lambda_steps,
                "lam": tuple(args.lam) if args.lam else None}
    cfg = replace(cfg, **{k: v for k, v in override.items() if v is not None})
    problem = load_problem(cfg)
    if args.no_rescale:
        problem = replace(problem, rescale=False)
    return cfg, problem


def _emit(summary, outdir):
    artifacts.write_summary_json(os.path.join(outdir, "summary.json"), summary)
    print(json.dumps(summary, indent=2, sort_keys=True))


def cmd_box(args) -> int:
    cfg, problem = _load(args)
    outdir = artifacts.ensure_outdir(args.out)
    # the figure needs the full grid; the top shelf reuses the pass's last nodes
    psi1 = _psi_grids(problem)[0]
    report = compute_box(problem)
    for shelf, samples in report.shelf_samples.items():
        artifacts.write_path_csv(os.path.join(outdir, f"shelf_{shelf}.csv"), samples)
    artifacts.write_rows_csv(
        os.path.join(outdir, "crossings.csv"), "x",
        [(x,) for x in report.left_crossings],
    )
    artifacts.write_rows_csv(
        os.path.join(outdir, "eigenvalues.csv"), "lambda",
        [(v,) for v in report.eigenvalues],
    )
    artifacts.write_box_svg(
        os.path.join(outdir, "box.svg"), problem.lambda_grid(), problem.x_grid(),
        psi1, crossings=report.left_crossings, eigenvalues=report.eigenvalues,
        title=f"spectral curve ({args.config})",
    )
    summary = {"command": "box", "config": cfg.to_dict(), **report.to_dict()}
    _emit(summary, outdir)
    return 0


def cmd_invariance(args) -> int:
    if args.refine < 0:
        raise ConfigError(f"--refine must be at least 0, got {args.refine}")
    cfg, problem = _load(args)
    outdir = artifacts.ensure_outdir(args.out)
    report = constants_report(problem)
    summary = {"command": "invariance", "config": cfg.to_dict(),
               "constants": report.to_dict()}
    if args.scan:
        scan = rho_grid_scan(problem, refine_rounds=args.refine)
        classified = []
        for p in scan.loss_points:
            try:
                classified.append(
                    classify_loss_point(problem, p, others=tuple(scan.loss_points))
                )
            except RenoscError as exc:
                p.flagged = True
                p.note = str(exc)
                classified.append(p)
        scan.loss_points = classified
        artifacts.write_grid_csv(
            os.path.join(outdir, "rho_grid.csv"), scan.lam_axis, scan.x_axis, scan.rho
        )
        artifacts.write_heatmap_svg(
            os.path.join(outdir, "rho_heatmap.svg"), scan.lam_axis, scan.x_axis,
            scan.rho, loss_points=scan.loss_points,
            title=f"rho over the box ({args.config})",
        )
        summary["scan"] = scan.to_dict()
    _emit(summary, outdir)
    return 0


def cmd_left_shelf(args) -> int:
    cfg, problem = _load(args)
    outdir = artifacts.ensure_outdir(args.out)
    count, xs = renormalized_count(problem)
    ratios = monotonicity_audit(problem)
    from .maslovbox import shelf_path

    artifacts.write_path_csv(
        os.path.join(outdir, "left_shelf.csv"), shelf_path(problem, "left")
    )
    artifacts.write_rows_csv(
        os.path.join(outdir, "audit.csv"), "x,ratio", ratios
    )
    summary = {
        "command": "left-shelf", "config": cfg.to_dict(),
        "count": count, "crossings": xs,
        "audit_ratios": [list(r) for r in ratios],
    }
    _emit(summary, outdir)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "box":
            return cmd_box(args)
        if args.command == "invariance":
            return cmd_invariance(args)
        return cmd_left_shelf(args)
    except (ConfigError, ExpressionError, DegenerateCoefficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"numeric blow-up: {exc}", file=sys.stderr)
        return 3
    except InvarianceViolationError as exc:
        where = f" (shelf {exc.shelf}, node {exc.node})" if exc.shelf else ""
        print(f"invariance violation: {exc}{where}", file=sys.stderr)
        return 2
    except RenoscError as exc:
        # structural assertions, collapsed frames and unresolvable
        # refinements also invalidate the run's indices
        print(f"invariance violation: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"invariance violation: singular frame algebra ({exc}); "
              "a propagated frame collapsed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
