"""Seeded benchmark sweep over random chain instances and its statistics.

For each (gamma, n, k) cell the sweep crosses `feature_trials` random
feature/weight draws with `mdp_trials` random chains and records each
trial's best / TD / BR errors and both projector-norm bounds as a row of
one record array (`TRIAL_DTYPE`), in (gamma, n, k, phi_trial, mdp_trial)
order. A (gamma, n) column, the cells k = 1..n, is the unit of work:
`run_column` draws the column's chains as one stack and forms their L and
v once, then one `kernels.cell_stats` call per cell fills, by field name,
the cell's (F, M) block of the column's (n, F, M) record array;
`sweep_columns` yields the columns in order, so each can be aggregated and
written as it arrives. Seeds are derived from the master seed and the
draw's labels (the chain's from gamma_index, n and mdp_trial, the
features' and weights' from gamma_index, n, k and phi_trial), so any
worker layout produces the same records. gamma_index is gamma's position
in `gammas`, not its value: `--gammas 0.99` alone therefore draws other
trials than the default grid's 0.99 row.
"""

from __future__ import annotations

import concurrent.futures
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .instances import SeedSpec, random_chain, random_features, random_weights

# a record is degenerate (exactly-representable value, errors pure numerical
# noise) when its best error is at most this fraction of ||v||_xi; the bar is
# relative because ||v|| ~ 1/(1-gamma) scales noise-level errors with it
DEGENERATE_RELATIVE_ERROR = 1e-9

# roles distinguishing the independent seed streams of one trial
_ROLE_MDP, _ROLE_FEATURES, _ROLE_WEIGHTS = 0, 1, 2

SINGULAR_POLICIES = ("worst", "exclude")

# one row per trial; `kernels.cell_stats` writes the fields from e on by name.
# e_td and b_td are NaN when td_singular; v_norm, ||v||_xi, scales the degeneracy cutoff
TRIAL_DTYPE = np.dtype(
    [("gamma", np.float64)] + [(f, np.int32) for f in ("n", "k", "phi_trial", "mdp_trial")]
    + [(f, np.float64) for f in ("e", "e_td", "e_br", "b_td", "b_br")]
    + [("td_singular", np.bool_), ("v_norm", np.float64)])

# one row per cell, as `aggregate` returns it; a ratio mean is NaN when every
# trial it would average is excluded. Both dtypes are the sweep CSVs' columns.
STAT_FIELDS = ("td_win_ratio", "bound_prediction_ratio", "mean_td_over_br",
               "mean_rel_td", "mean_rel_br")
CELL_DTYPE = np.dtype([("gamma", np.float64), ("n", np.int32), ("k", np.int32)]
                      + [(f, np.float64) for f in STAT_FIELDS]
                      + [("singular_count", np.int32), ("excluded_count", np.int32)])


@dataclass(frozen=True)
class SweepConfig:
    gammas: tuple[float, ...] = (0.9, 0.95, 0.99, 0.999)
    n_min: int = 2
    n_max: int = 30
    feature_trials: int = 20
    mdp_trials: int = 20
    master_seed: int = 20100627
    singular_policy: str = "worst"

    def __post_init__(self):
        for name in ("n_min", "n_max", "feature_trials", "mdp_trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.feature_trials < 1 or self.mdp_trials < 1:
            raise ValueError("trial counts must be >= 1")
        if not self.gammas or len(set(self.gammas)) != len(self.gammas):
            raise ValueError(f"gammas must be nonempty and distinct, got {self.gammas}")
        if any(not 0.0 < g < 1.0 for g in self.gammas):
            raise ValueError("every gamma must be in (0,1)")
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError(f"need 2 <= n_min <= n_max, got {self.n_min} and {self.n_max}")
        if self.singular_policy not in SINGULAR_POLICIES:
            raise ValueError(f"singular_policy must be one of {SINGULAR_POLICIES}")
        if not (isinstance(self.master_seed, numbers.Integral) and self.master_seed >= 0):
            raise ValueError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")


def run_column(config: SweepConfig, gamma_index: int, n: int) -> np.recarray:
    """Every trial of one (gamma, n) column, an (n, F, M) record array flattened.

    Chains are seeded without k, so the column draws its chains as one
    stack and forms their L and v once; each cell's (Phi, xi) pairs are
    drawn as two stacks just before its kernel call fills the cell's block,
    so only one cell's bases are alive at a time.
    """
    root = SeedSpec(config.master_seed)
    gamma = config.gammas[gamma_index]
    F, M = config.feature_trials, config.mdp_trials
    chains = random_chain(n, gamma, root.derive(_ROLE_MDP, gamma_index, n), count=M)
    out = np.recarray((n, F, M), dtype=TRIAL_DTYPE)
    out.gamma, out.n = gamma, n
    out.k, out.phi_trial = np.arange(1, n + 1)[:, None, None], np.arange(F)[:, None]
    out.mdp_trial = np.arange(M)
    for k, cell in enumerate(out, start=1):
        labels = (gamma_index, n, k)
        phi = random_features(n, k, root.derive(_ROLE_FEATURES, *labels), count=F)
        xi = random_weights(n, root.derive(_ROLE_WEIGHTS, *labels), count=F)
        kernels.cell_stats(chains, phi, xi, cell)
    return out.reshape(-1)


def sweep_columns(config: SweepConfig, workers: int = 1) -> Iterator[np.recarray]:
    """Each (gamma, n) column's `run_column` records, in canonical (gamma_index, n)
    order; with more than one worker, from a pool of at most one process per column."""
    grid = [(gi, n) for gi in range(len(config.gammas))
            for n in range(config.n_min, config.n_max + 1)]
    args = (run_column, [config] * len(grid), *zip(*grid))
    workers = min(workers, len(grid))
    if workers <= 1:
        yield from map(*args)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(*args, chunksize=1)


def sweep(config: SweepConfig, workers: int = 1) -> np.recarray:
    """All trials of the grid, in canonical order regardless of worker count: the
    `sweep_columns` columns gathered by one concatenate."""
    return np.concatenate(list(sweep_columns(config, workers))).view(np.recarray)


def is_degenerate(e, v_norm):
    """Whether a best error e (xi-norm, not squared) is rounding noise: at most
    1e-9 * ||v||_xi; elementwise on arrays."""
    return e <= DEGENERATE_RELATIVE_ERROR * v_norm


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if values.size else float("nan")


def aggregate(records: np.ndarray,
              singular_policy: str = "worst",
              expected_cell_size: int | None = None) -> np.recarray:
    """A `CELL_DTYPE` row of statistics per cell, in input order; a cell is a run of
    adjacent records with equal (gamma, n, k), and one in two runs raises `ValueError`.

    Under the "worst" policy a singular TD trial counts as a TD loss (and as
    a correctly predicted loss) in the indicator means; under "exclude" it is
    dropped from them. Singular trials never enter the ratio means, and
    degenerate trials (`is_degenerate`) are excluded from all ratio means; both
    counts are reported. A cell's means sum its values in record order.
    """
    if singular_policy not in SINGULAR_POLICIES:
        raise ValueError(f"singular_policy must be one of {SINGULAR_POLICIES}")
    keys = [records[f] for f in ("gamma", "n", "k")]
    new_cell = np.ones(len(records), dtype=bool)
    new_cell[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    starts = np.flatnonzero(new_cell)
    cell_keys = list(zip(*(key[starts].tolist() for key in keys)))
    if len(set(cell_keys)) < len(cell_keys):
        gamma, n, k = next(key for key in cell_keys if cell_keys.count(key) > 1)
        raise ValueError(f"cell (gamma={gamma}, n={n}, k={k}) is split into separate runs")

    out = np.recarray(len(starts), dtype=CELL_DTYPE)
    for i, ((gamma, n, k), start, stop) in enumerate(
            zip(cell_keys, starts, [*starts[1:], len(records)])):
        c = records[start:stop]
        if expected_cell_size is not None and len(c) != expected_cell_size:
            raise ValueError(f"cell (gamma={gamma}, n={n}, k={k}) has {len(c)} records, "
                             f"expected {expected_cell_size}")
        e, e_td, e_br, singular = c["e"], c["e_td"], c["e_br"], c["td_singular"]
        td_wins = e_td < e_br
        wins = td_wins & ~singular                                  # a diverged TD solve loses
        predictions = (td_wins == (c["b_td"] < c["b_br"])) | singular  # as its bound says
        scored = ~singular if singular_policy == "exclude" else ...
        degenerate = is_degenerate(e, c["v_norm"])
        br = ~degenerate
        td = br & ~singular
        out[i] = (gamma, n, k, _mean(wins[scored]), _mean(predictions[scored]),
                  _mean(e_td[td] / e_br[td]), _mean(e_td[td] / e[td]), _mean(e_br[br] / e[br]),
                  np.count_nonzero(singular), np.count_nonzero(degenerate))
    return out


BREAKS = ("e>e_td", "e>e_br", "b_td<1", "b_br<1", "e_td>b_td*e", "e_br>b_br*e")


def tail(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `e_td / e_br` ratios of the k < n, regular-TD trials of `records` (trials.csv's
    fields suffice), and how many break each of the paper's inequalities in `BREAKS`, with a
    slack: the best error at most either error, each bound at least 1, each error within it."""
    kept = records[(records["k"] < records["n"]) & ~records["td_singular"]]
    e, e_td, e_br, b_td, b_br = (kept[f] for f in ("e", "e_td", "e_br", "b_td", "b_br"))
    return e_td / e_br, np.count_nonzero([
        e > e_td * (1 + 1e-9), e > e_br * (1 + 1e-9), b_td < 1 - 1e-9, b_br < 1 - 1e-9,
        e_td > b_td * e * (1 + 1e-6), e_br > b_br * e * (1 + 1e-6)], axis=1)


def report(gamma: float, tails: list[tuple[np.ndarray, np.ndarray]]) -> str:
    """The sweep's two printed lines for `gamma`, from the `tail`s of its trials in any slices."""
    ratios = np.concatenate([r for r, _ in tails])
    top = int(np.ceil(0.001 * ratios.size))
    # ratio < 1 exactly when e_td < e_br: 1 - 2**-53 is a float and division rounds monotonically
    return (f"gamma={float(gamma)!r} k<n: trials={ratios.size} "
            f"td_win_share={np.mean(ratios < 1):.4f} td_over_br median={np.median(ratios):.4f} "
            f"mean={np.mean(ratios):.4f} p99={np.percentile(ratios, 99):.4f} "
            f"top{top}_share={np.sort(ratios)[-top:].sum() / ratios.sum():.4f}\n  k<n breaks: "
            + " ".join(map("{}={}".format, BREAKS, sum(b for _, b in tails))))
