"""Command-line front end.

Subcommands:
  solve     run one projection method on matrices read from text files
  example1  squared-error ratio table for the 2-state analytic fixture
  sweep     the random-chain benchmark sweep, emitting trial and cell CSVs
  heatmap   render one cell statistic as an SVG heatmap

Exit codes: 0 success; 1 with an `error: <message>` line on stderr for any
other `ValueError` or `OSError`, usage errors included; 2 with a `singular:
<message>` line for any numerically singular system, whether a singular
status, an `ArithmeticError` or numpy's `LinAlgError` (a `ValueError`).
The commands raise; only `main` catches.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys

import numpy as np

from . import analysis, heatmap, instances, matio, solvers
from .harness import SweepConfig, aggregate, is_degenerate, report, sweep_columns, tail
from .mdp import exact_value, make_mdp
from .projections import make_feature_basis, make_state_weights, weighted_norm

EXIT_OK, EXIT_INPUT, EXIT_SINGULAR = 0, 1, 2


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@np.errstate(over="raise", invalid="raise")  # an overflow is an ArithmeticError: exit 2
def cmd_solve(args) -> None:
    if args.method == "oblique" and args.direction is None:
        raise ValueError("--direction is required for method oblique")
    if args.method != "oblique" and args.direction is not None:
        raise ValueError("--direction is only read by method oblique")
    P = matio.parse_matrix(args.transitions)
    r = matio.parse_vector(args.rewards)
    phi_mat = matio.parse_matrix(args.features)
    xi_vec = matio.parse_vector(args.weights)
    mdp = make_mdp(P, r, args.gamma)
    phi = make_feature_basis(phi_mat)
    xi = make_state_weights(xi_vec)
    # the library checks the features', the weights' and the direction's sizes
    x = [matio.parse_matrix(args.direction)] if args.method == "oblique" else []
    sol = getattr(solvers, f"solve_{args.method}")(mdp, phi, xi, *x)
    if not sol.ok:
        raise ArithmeticError(f"{sol.method} system has error bound "
                              f"{sol.condition_estimate:.6g}")
    report = analysis.error_report(mdp, phi, xi, sol.weights)

    print(f"method: {sol.method}")
    print("w: " + " ".join(_fmt(x) for x in sol.weights))
    print("v_hat: " + " ".join(_fmt(x) for x in sol.value_estimate))
    for field, value in {"approx_error": sol.approx_error, **vars(report)}.items():
        print(f"{field}: {_fmt(value)}")
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
    for gamma, theta in itertools.product(gammas, thetas):
        inst = instances.example1(gamma, theta)
        sols = [solve(inst.mdp, inst.phi, inst.xi)
                for solve in (solvers.solve_best, solvers.solve_td, solvers.solve_br)]
        # each squared error from its solve, None where the solve's gate calls it singular
        e_best, e_td, e_br = (sol.approx_error ** 2 if sol.ok else None for sol in sols)
        # the sweep's degeneracy cutoff: near v in span(Phi) every error is rounding noise
        v_norm = weighted_norm(exact_value(inst.mdp), inst.xi)
        regular = not is_degenerate(math.sqrt(e_best), v_norm)
        # keys as their shortest exact text: 0.1, 0.8333333333333334, but 2 for 2.0
        rows.append([repr(x).removesuffix(".0") for x in (gamma, theta)] + [
            "singular" if e is None else _fmt(e / e_best if regular else math.nan)
            for e in (e_td, e_br)])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "theta", "ratio_td", "ratio_br"])
        writer.writerows(rows)


def cmd_sweep(args) -> None:
    config = SweepConfig(gammas=tuple(_parse_grid(args.gammas)), n_max=args.n_max,
                         feature_trials=args.trials, mdp_trials=args.trials, master_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)

    cell_blocks, tails = [], {gamma: [] for gamma in config.gammas}  # each column's tail, by gamma

    def columns():
        # each column's trial rows are written, and its cells and tail kept, as it arrives
        for records in sweep_columns(config, workers=_usable_cpus()):
            cell_blocks.append(aggregate(records, config.singular_policy,
                                         config.feature_trials * config.mdp_trials))
            tails[float(records["gamma"][0])].append(tail(records))
            yield records

    # both files are open before the first column runs; a failure then removes both
    with open(os.path.join(args.out_dir, "trials.csv"), "w", newline="") as trials_fh, \
            open(os.path.join(args.out_dir, "cells.csv"), "w", newline="") as cells_fh:
        try:
            matio.write_csv(trials_fh, columns(), matio.TRIAL_HEADER)
            matio.write_csv(cells_fh, [np.concatenate(cell_blocks)], matio.CELL_HEADER)
        except BaseException:
            for fh in (trials_fh, cells_fh):
                fh.close()
                os.remove(fh.name)
            raise

    for gamma, gamma_tails in tails.items():
        print(report(gamma, gamma_tails))


def _usable_cpus() -> int:
    """The CPUs `taskset` or a batch scheduler lets this process use (every CPU on macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_heatmap(args) -> None:
    if matio._csv_dtype(args.cells) != matio.CELL_DTYPE:  # from its header alone
        raise ValueError(f"{args.cells}: a trials.csv, expected a cells.csv")
    cells = matio.read_csv(args.cells)
    svg = heatmap.render_heatmap(cells, args.stat, args.gamma)
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
    p.add_argument("--gammas", default=" ".join(map(repr, SweepConfig.gammas)))
    p.add_argument("--n-max", type=int, default=SweepConfig.n_max)
    p.add_argument("--trials", type=int, default=SweepConfig.feature_trials,
                   help="feature trials and MDP trials per cell")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("heatmap", help="render one cell statistic as SVG")
    p.add_argument("--cells", required=True, help="cells.csv from a sweep")
    p.add_argument("--stat", required=True, choices=list(heatmap.STAT_FIELDS))
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True)
    return parser


_parser = None  # built by the first `main` call, reused by every later one


def main(argv=None) -> int:
    global _parser
    try:
        _parser = _parser or build_parser()
        args = _parser.parse_args(argv)
        globals()[f"cmd_{args.command}"](args)  # looked up per call, so a wrapper runs
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"singular: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
