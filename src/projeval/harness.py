"""Seeded benchmark sweep over random chain instances and its statistics.

For each (gamma, n, k) cell the sweep crosses `feature_trials` random
feature/weight draws with `mdp_trials` random chains and records per trial
the best / TD / BR errors plus both spectral-radius bounds. A cell is the
unit of work: `run_cell` draws each chain and each (Phi, xi) pair of the
cell once and runs all its trials through one `kernels.cell_stats` call.
Seeds are derived from the master seed and the draw's labels (the chain's
from gamma, n and mdp_trial, the features' and weights' from gamma, n, k
and phi_trial), so any worker layout produces the same records.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from . import kernels
from .instances import SeedSpec, random_chain, random_features, random_weights

# a record is degenerate (exactly-representable value, errors pure numerical
# noise) below either cutoff; the relative one matters at discounts near 1,
# where ||v|| ~ 1/(1-gamma) pushes noise-level errors above any absolute bar
DEGENERATE_ERROR = 1e-12
DEGENERATE_RELATIVE_ERROR = 1e-9

# roles distinguishing the independent seed streams of one trial
_ROLE_MDP, _ROLE_FEATURES, _ROLE_WEIGHTS = 0, 1, 2

SINGULAR_POLICIES = ("worst", "exclude")


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
        if self.feature_trials < 1 or self.mdp_trials < 1:
            raise ValueError("trial counts must be >= 1")
        if any(not 0.0 < g < 1.0 for g in self.gammas):
            raise ValueError("every gamma must be in (0,1)")
        if self.singular_policy not in SINGULAR_POLICIES:
            raise ValueError(f"singular_policy must be one of {SINGULAR_POLICIES}")


@dataclass(frozen=True)
class TrialRecord:
    gamma: float
    n: int
    k: int
    phi_trial: int
    mdp_trial: int
    e: float
    e_td: float      # NaN when td_singular
    e_br: float
    b_td: float      # NaN when td_singular
    b_br: float
    td_singular: bool
    v_norm: float = 1.0  # ||v||_xi, the scale for the degeneracy cutoff

    @property
    def degenerate(self) -> bool:
        return self.e <= max(DEGENERATE_ERROR,
                             DEGENERATE_RELATIVE_ERROR * self.v_norm)


@dataclass(frozen=True)
class CellStats:
    gamma: float
    n: int
    k: int
    td_win_ratio: float
    bound_prediction_ratio: float
    mean_td_over_br: float   # NaN when every record is excluded
    mean_rel_td: float
    mean_rel_br: float
    singular_count: int
    excluded_count: int


def run_cell(config: SweepConfig, gamma_index: int, n: int, k: int) -> list[TrialRecord]:
    """Every trial of one (gamma, n, k) cell, in (phi_trial, mdp_trial) order.

    A cell is the full cross product of its chains and its (Phi, xi) pairs,
    so each is drawn once and the stacked trials go through one kernel call.
    """
    root = SeedSpec(config.master_seed)
    gamma = config.gammas[gamma_index]
    chains = [random_chain(n, gamma, root.derive(_ROLE_MDP, gamma_index, n, mt))
              for mt in range(config.mdp_trials)]
    bases = [random_features(n, k, root.derive(_ROLE_FEATURES, gamma_index, n, k, pt))
             for pt in range(config.feature_trials)]
    weights = [random_weights(n, root.derive(_ROLE_WEIGHTS, gamma_index, n, k, pt))
               for pt in range(config.feature_trials)]
    pt, mt = np.divmod(np.arange(config.feature_trials * config.mdp_trials), config.mdp_trials)
    P = np.stack([c.transitions for c in chains])[mt]
    r = np.stack([c.rewards for c in chains])[mt]
    phi = np.stack([b.matrix for b in bases])[pt]
    xi = np.stack([w.weights for w in weights])[pt]
    del chains, bases, weights  # only the stacks stay alive in the kernel call
    stats = kernels.cell_stats(P, r, gamma, phi, xi)
    return [TrialRecord(gamma, n, k, p, m, *row[kernels.E_BEST:kernels.COND_TD],
                        td_singular=bool(row[kernels.TD_SINGULAR]), v_norm=row[kernels.V_NORM])
            for p, m, row in zip(pt.tolist(), mt.tolist(), stats.tolist())]


def sweep(config: SweepConfig, workers: int = 1) -> list[TrialRecord]:
    """All trials of the grid, in canonical order regardless of worker count."""
    keys = [(gi, n, k) for gi in range(len(config.gammas))
            for n in range(config.n_min, config.n_max + 1) for k in range(1, n + 1)]
    args = (run_cell, [config] * len(keys), *zip(*keys))
    if workers <= 1:
        return [rec for cell in map(*args) for rec in cell]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return [rec for cell in pool.map(*args, chunksize=4) for rec in cell]


def aggregate(records: list[TrialRecord],
              singular_policy: str = "worst",
              expected_cell_size: int | None = None) -> list[CellStats]:
    """Per-cell statistics of a sweep's records.

    Under the "worst" policy a singular TD trial counts as a TD loss (and as
    a correctly predicted loss) in the indicator means; under "exclude" it is
    dropped from them. Singular trials never enter the ratio means, and
    records with a degenerate best error (below 1e-12) are excluded from all
    ratio means; both counts are reported.
    """
    if singular_policy not in SINGULAR_POLICIES:
        raise ValueError(f"singular_policy must be one of {SINGULAR_POLICIES}")
    cells: dict[tuple[float, int, int], list[TrialRecord]] = {}
    for rec in records:
        cells.setdefault((rec.gamma, rec.n, rec.k), []).append(rec)

    out = []
    for (gamma, n, k), recs in sorted(cells.items()):
        if expected_cell_size is not None and len(recs) != expected_cell_size:
            raise ValueError(
                f"cell (gamma={gamma}, n={n}, k={k}) has {len(recs)} records, "
                f"expected {expected_cell_size}")
        wins, predictions = [], []
        ratio_td_br, rel_td, rel_br = [], [], []
        singular = excluded = 0
        for rec in recs:
            if rec.td_singular:
                singular += 1
                if singular_policy == "worst":
                    wins.append(0.0)          # a diverged TD solve loses
                    predictions.append(1.0)   # and the infinite bound predicts it
            else:
                td_wins = rec.e_td < rec.e_br
                wins.append(1.0 if td_wins else 0.0)
                predictions.append(1.0 if td_wins == (rec.b_td < rec.b_br) else 0.0)
            if rec.degenerate:
                excluded += 1
                continue
            rel_br.append(rec.e_br / rec.e)
            if not rec.td_singular:
                ratio_td_br.append(rec.e_td / rec.e_br)
                rel_td.append(rec.e_td / rec.e)

        def mean(xs):
            return float(np.mean(xs)) if xs else float("nan")

        out.append(CellStats(
            gamma=gamma, n=n, k=k,
            td_win_ratio=mean(wins),
            bound_prediction_ratio=mean(predictions),
            mean_td_over_br=mean(ratio_td_br),
            mean_rel_td=mean(rel_td),
            mean_rel_br=mean(rel_br),
            singular_count=singular,
            excluded_count=excluded,
        ))
    return out
