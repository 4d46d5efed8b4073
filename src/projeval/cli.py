"""Command-line front end.

Subcommands:
  solve     run one projection method on matrices read from text files
  example1  squared-error ratio table for the 2-state analytic fixture
  sweep     the random-chain benchmark sweep, emitting trial and cell CSVs
  heatmap   render one cell statistic as an SVG heatmap

Exit codes: 0 success; 1 with an `error: <message>` line on stderr for any
`ValueError` or `OSError`, usage errors included; 2 with a `singular:
<message>` line for any numerically singular system, whether a singular
status or an `ArithmeticError`. The commands raise; only `main` catches.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import analysis, heatmap, instances, matio, solvers
from .harness import SweepConfig, aggregate, sweep_columns
from .mdp import exact_value, make_mdp
from .projections import make_feature_basis, make_state_weights, weight_column, weighted_norm

EXIT_OK, EXIT_INPUT, EXIT_SINGULAR = 0, 1, 2


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_solve(args) -> None:
    P = matio.parse_matrix(args.transitions)
    r = matio.parse_vector(args.rewards)
    phi_mat = matio.parse_matrix(args.features)
    xi_vec = matio.parse_vector(args.weights)
    mdp = make_mdp(P, r, args.gamma)
    phi = make_feature_basis(phi_mat)
    xi = make_state_weights(xi_vec)
    # the library checks the features', the weights' and the direction's sizes
    if args.method != "oblique":
        sol = getattr(solvers, f"solve_{args.method}")(mdp, phi, xi)
    elif args.direction is None:
        raise ValueError("--direction is required for method oblique")
    else:
        # only the report reads xi, and a singular solve skips the report
        weight_column(xi, mdp.n_states)
        sol = solvers.solve_oblique(mdp, phi, matio.parse_matrix(args.direction))
    if not sol.ok:
        raise ArithmeticError(f"{sol.method} system has condition estimate "
                              f"{sol.condition_estimate:.6g}")
    report = analysis.error_report(mdp, phi, xi, sol.weights)
    if not report.ok:
        raise ArithmeticError("Gram system of the error report's projection has "
                              f"condition estimate {report.condition_estimate:.6g}")

    print(f"method: {sol.method}")
    print("w: " + " ".join(_fmt(x) for x in sol.weights))
    print("v_hat: " + " ".join(_fmt(x) for x in sol.value_estimate))
    print(f"approx_error: {_fmt(report.approx_error)}")
    print(f"td_error: {_fmt(report.td_error)}")
    print(f"br_residual: {_fmt(report.br_residual)}")
    print(f"adequacy: {_fmt(report.adequacy)}")
    print(f"condition_estimate: {_fmt(sol.condition_estimate)}")


def _parse_grid(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def cmd_example1(args) -> None:
    gammas = _parse_grid(args.gamma_grid)
    thetas = _parse_grid(args.theta_grid)
    if not gammas or not thetas:
        raise ValueError("grids must be nonempty")
    if not all(math.isfinite(t) for t in thetas):
        raise ValueError("every theta must be finite")

    rows = []  # all of them before the file is created, so an error leaves none
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
            rows.append([_fmt(gamma), _fmt(theta), ratio_td, ratio(ref.w_br)])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "theta", "ratio_td", "ratio_br"])
        writer.writerows(rows)


def cmd_sweep(args) -> None:
    gammas = tuple(_parse_grid(args.gammas))
    config = SweepConfig(gammas=gammas, n_min=2, n_max=args.n_max,
                         feature_trials=args.trials, mdp_trials=args.trials,
                         master_seed=args.seed,
                         singular_policy=args.singular_policy)
    if args.workers < 1:
        raise ValueError(f"--workers is {args.workers}, expected at least 1")
    os.makedirs(args.out_dir, exist_ok=True)

    cell_blocks = []
    tails = dict.fromkeys(gammas, np.empty(0))  # e_td / e_br of k < n, regular-TD trials

    def columns():
        # each column's trial rows are written, and its cells and ratios kept, as it arrives
        for records in sweep_columns(config, workers=args.workers):
            cell_blocks.append(aggregate(records, config.singular_policy,
                                         config.feature_trials * config.mdp_trials))
            kept = records[(records["k"] < records["n"]) & ~records["td_singular"]]
            gamma = float(records["gamma"][0])
            tails[gamma] = np.append(tails[gamma], kept["e_td"] / kept["e_br"])
            yield records

    # both files are open before the first column runs
    with open(os.path.join(args.out_dir, "trials.csv"), "w", newline="") as trials_fh, \
            open(os.path.join(args.out_dir, "cells.csv"), "w", newline="") as cells_fh:
        matio.write_csv(trials_fh, columns(), matio.TRIAL_HEADER)
        cells = np.concatenate(cell_blocks)
        matio.write_csv(cells_fh, [cells], matio.CELL_HEADER)

    for gamma in gammas:
        sub = cells[cells["gamma"] == gamma]
        wins = float(np.mean(sub["td_win_ratio"]))
        ratios = sub["mean_td_over_br"][~np.isnan(sub["mean_td_over_br"])]
        mean_ratio = float(np.mean(ratios)) if ratios.size else float("nan")
        print(f"gamma={gamma:g}: cells={len(sub)} td_win_ratio={wins:.4f} "
              f"mean_td_over_br={mean_ratio:.4f}")
        print(_tail_summary(tails[gamma]))


def _tail_summary(ratios: np.ndarray) -> str:
    """How often TD beats BR trial by trial, and how much of the mean ratio its worst
    0.1% of trials hold."""
    top = math.ceil(0.001 * ratios.size)
    share = np.sort(ratios)[-top:].sum() / ratios.sum()
    # a ratio is below 1 exactly when e_td < e_br: the quotient is then at most
    # 1 - 2**-53, a float, and division rounds monotonically
    return (f"  k<n: trials={ratios.size} td_win_share={np.mean(ratios < 1):.4f} "
            f"td_over_br median={np.median(ratios):.4f} mean={np.mean(ratios):.4f} "
            f"p99={np.percentile(ratios, 99):.4f} top{top}_share={share:.4f}")


def cmd_heatmap(args) -> None:
    cells = matio.read_cell_csv(args.cells)
    svg = heatmap.render_heatmap(cells, args.stat, args.gamma, log_scale=args.log)
    with open(args.out, "w") as fh:
        fh.write(svg)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are `ValueError`s, so that they exit 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("example1", help="error-ratio table for the analytic 2-state fixture")
    p.add_argument("--gamma-grid", required=True, help="gamma values, comma/space separated")
    p.add_argument("--theta-grid", required=True, help="theta values, comma/space separated")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="random-chain benchmark sweep")
    p.add_argument("--seed", type=int, default=SweepConfig.master_seed)
    p.add_argument("--gammas", default="0.9 0.95 0.99 0.999")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--trials", type=int, default=20,
                   help="feature trials and MDP trials per cell")
    p.add_argument("--singular-policy", default="worst", choices=["worst", "exclude"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("heatmap", help="render one cell statistic as SVG")
    p.add_argument("--cells", required=True, help="cells.csv from a sweep")
    p.add_argument("--stat", required=True, choices=list(heatmap.STAT_FIELDS))
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic color scale")
    p.add_argument("--out", required=True)
    return parser


_parser = None  # built by the first `main` call, reused by every later one


def main(argv=None) -> int:
    global _parser
    try:
        _parser = _parser or build_parser()
        args = _parser.parse_args(argv)
        globals()[f"cmd_{args.command}"](args)  # looked up per call, so a wrapper runs
    except ArithmeticError as exc:
        print(f"singular: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
