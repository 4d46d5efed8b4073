"""Command-line front end.

Subcommands:
  solve     run one projection method on matrices read from text files
  example1  squared-error ratio table for the 2-state analytic fixture
  sweep     the random-chain benchmark sweep, emitting trial and cell CSVs
  heatmap   render one cell statistic as an SVG heatmap

Exit codes: 0 success, 1 input/validation error, 2 numerical singularity.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import analysis, heatmap, instances, matio, solvers
from .harness import SweepConfig, aggregate, sweep
from .mdp import exact_value, make_mdp
from .projections import make_feature_basis, make_state_weights, weight_column, weighted_norm

EXIT_OK, EXIT_INPUT, EXIT_SINGULAR = 0, 1, 2


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _singular(what: str, condition: float) -> int:
    print(f"singular: {what} has condition estimate {condition:.6g}", file=sys.stderr)
    return EXIT_SINGULAR


def cmd_solve(args) -> int:
    try:
        P = matio.parse_matrix(args.transitions)
        r = matio.parse_vector(args.rewards)
        phi_mat = matio.parse_matrix(args.features)
        xi_vec = matio.parse_vector(args.weights)
        mdp = make_mdp(P, r, args.gamma)
        phi = make_feature_basis(phi_mat)
        xi = make_state_weights(xi_vec)
        # the library checks the features', the weights' and the direction's sizes
        if args.method == "best":
            sol = solvers.solve_best(mdp, phi, xi)
        elif args.method == "td":
            sol = solvers.solve_td(mdp, phi, xi)
        elif args.method == "br":
            sol = solvers.solve_br(mdp, phi, xi)
        else:
            if args.direction is None:
                raise ValueError("--direction is required for method oblique")
            # only the report reads xi, and a singular solve skips the report
            weight_column(xi, mdp.n_states)
            sol = solvers.solve_oblique(mdp, phi, matio.parse_matrix(args.direction))
        report = analysis.error_report(mdp, phi, xi, sol.weights) if sol.ok else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if not sol.ok:
        return _singular(f"{sol.method} system", sol.condition_estimate)
    if not report.ok:
        return _singular("Gram system of the error report's projection",
                         report.condition_estimate)

    print(f"method: {sol.method}")
    print("w: " + " ".join(_fmt(x) for x in sol.weights))
    print("v_hat: " + " ".join(_fmt(x) for x in sol.value_estimate))
    print(f"approx_error: {_fmt(report.approx_error)}")
    print(f"td_error: {_fmt(report.td_error)}")
    print(f"br_residual: {_fmt(report.br_residual)}")
    print(f"adequacy: {_fmt(report.adequacy)}")
    print(f"condition_estimate: {_fmt(sol.condition_estimate)}")
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def cmd_example1(args) -> int:
    try:
        gammas = _parse_grid(args.gamma_grid)
        thetas = _parse_grid(args.theta_grid)
        if not gammas or not thetas:
            raise ValueError("grids must be nonempty")
        if any(not 0.0 < g < 1.0 for g in gammas):
            raise ValueError("every gamma must be in (0,1)")
        if not all(math.isfinite(t) for t in thetas):
            raise ValueError("every theta must be finite")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", "theta", "ratio_td", "ratio_br"])
            for gamma in gammas:
                for theta in thetas:
                    inst = instances.example1(gamma, theta)
                    ref = inst.reference
                    v = exact_value(inst.mdp)

                    def sq_err(w):
                        return weighted_norm(v - inst.phi.matrix @ [w], inst.xi) ** 2

                    def ratio(w):
                        e_best = sq_err(ref.w_best)
                        return _fmt(sq_err(w) / e_best if e_best > 0 else math.nan)

                    ratio_td = "singular" if ref.w_td is None else ratio(ref.w_td)
                    writer.writerow([_fmt(gamma), _fmt(theta), ratio_td, ratio(ref.w_br)])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        gammas = tuple(_parse_grid(args.gammas))
        config = SweepConfig(gammas=gammas, n_min=2, n_max=args.n_max,
                             feature_trials=args.trials, mdp_trials=args.trials,
                             master_seed=args.seed,
                             singular_policy=args.singular_policy)
        os.makedirs(args.out_dir, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    records = sweep(config, workers=args.workers)
    cells = aggregate(records, singular_policy=config.singular_policy,
                      expected_cell_size=config.feature_trials * config.mdp_trials)
    try:
        matio.write_trial_csv(os.path.join(args.out_dir, "trials.csv"), records)
        matio.write_cell_csv(os.path.join(args.out_dir, "cells.csv"), cells)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    for gamma in gammas:
        sub = cells[cells["gamma"] == gamma]
        wins = float(np.mean(sub["td_win_ratio"]))
        ratios = sub["mean_td_over_br"][~np.isnan(sub["mean_td_over_br"])]
        mean_ratio = float(np.mean(ratios)) if ratios.size else float("nan")
        print(f"gamma={gamma:g}: cells={len(sub)} td_win_ratio={wins:.4f} "
              f"mean_td_over_br={mean_ratio:.4f}")
    return EXIT_OK


def cmd_heatmap(args) -> int:
    try:
        cells = matio.read_cell_csv(args.cells)
        svg = heatmap.render_heatmap(cells, args.stat, args.gamma,
                                     log_scale=args.log)
        with open(args.out, "w") as fh:
            fh.write(svg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projeval",
        description="Linear policy evaluation by projection: TD(0), BR, oblique.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance read from text files")
    p.add_argument("--transitions", required=True)
    p.add_argument("--rewards", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--method", required=True, choices=["td", "br", "best", "oblique"])
    p.add_argument("--direction", help="direction matrix file (oblique only)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("example1", help="error-ratio table for the analytic 2-state fixture")
    p.add_argument("--gamma-grid", required=True, help="gamma values, comma/space separated")
    p.add_argument("--theta-grid", required=True, help="theta values, comma/space separated")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("sweep", help="random-chain benchmark sweep")
    p.add_argument("--seed", type=int, default=SweepConfig.master_seed)
    p.add_argument("--gammas", default="0.9 0.95 0.99 0.999")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--trials", type=int, default=20,
                   help="feature trials and MDP trials per cell")
    p.add_argument("--singular-policy", default="worst", choices=["worst", "exclude"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("heatmap", help="render one cell statistic as SVG")
    p.add_argument("--cells", required=True, help="cells.csv from a sweep")
    p.add_argument("--stat", required=True, choices=list(heatmap.STAT_FIELDS))
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic color scale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
