"""Finite MDP with a fixed policy: transition matrix, rewards, discount.

The chain is uncontrolled; all value computations reduce to dense linear
algebra with L = I - gamma * P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Mdp:
    """An uncontrolled finite-state MDP: row-stochastic P, rewards r, discount."""

    transitions: np.ndarray
    rewards: np.ndarray
    discount: float

    @property
    def n_states(self) -> int:
        return self.transitions.shape[0]


def make_mdp(transitions, rewards, discount: float) -> Mdp:
    """Build a validated Mdp, renormalizing rows that are within tolerance.

    Raises ValueError listing every violated invariant otherwise.
    """
    P = np.array(transitions, dtype=float)
    r = np.array(rewards, dtype=float).ravel()
    m = Mdp(P, r, float(discount))
    problems = validate(m)
    if problems:
        raise ValueError("invalid MDP: " + "; ".join(problems))
    # file-parsed probabilities carry rounding noise; renormalize inside tolerance
    row_sums = P.sum(axis=1, keepdims=True)
    P = P / row_sums
    P.flags.writeable = False
    r.flags.writeable = False
    return Mdp(P, r, float(discount))


def validate(mdp: Mdp) -> list[str]:
    """Check all Mdp invariants; return a list of violations (empty means ok)."""
    problems = []
    P, r, gamma = mdp.transitions, mdp.rewards, mdp.discount
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        problems.append(f"transition matrix is {P.shape}, expected square")
        return problems
    n = P.shape[0]
    if n == 0:
        problems.append("transition matrix has no states")
        return problems
    if r.shape != (n,):
        problems.append(f"rewards has length {r.size}, expected {n}")
    elif not np.all(np.isfinite(r)):
        problems.append(f"non-finite reward at {np.flatnonzero(~np.isfinite(r))[0]}")
    if not (0.0 < gamma < 1.0):
        problems.append("discount not in (0,1)")
    if not np.all(np.isfinite(P)):
        i, j = np.argwhere(~np.isfinite(P))[0]
        problems.append(f"non-finite probability at ({i},{j}): {P[i, j]}")
        return problems
    if np.any(P < 0.0) or np.any(P > 1.0):
        i, j = np.unravel_index(np.argmin(P) if P.min() < 0 else np.argmax(P), P.shape)
        problems.append(f"probability out of [0,1] at ({i},{j}): {P[i, j]}")
    row_sums = P.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)[0]
    for i in bad:
        problems.append(f"row {i} sums to {row_sums[i]!r}")
    return problems


def bellman_apply(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """One application of the Bellman operator: r + gamma * P v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.n_states,):
        raise ValueError(f"value vector has length {v.size}, expected {mdp.n_states}")
    return mdp.rewards + mdp.discount * (mdp.transitions @ v)


def l_matrix(mdp: Mdp) -> np.ndarray:
    """The dense matrix L = I - gamma P."""
    return np.eye(mdp.n_states) - mdp.discount * mdp.transitions


def checked_solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """x with a x = b by a pivoted dense solve; ArithmeticError when the
    residual is non-finite or above 1e-10 relative to b."""
    x = np.linalg.solve(a, b)
    resid = np.max(np.abs(a @ x - b))
    if not np.isfinite(resid) or resid > 1e-10 * (1.0 + np.max(np.abs(b), initial=0.0)):
        raise ArithmeticError(f"{what} solve residual too large: {resid}")
    return x


def exact_value(mdp: Mdp) -> np.ndarray:
    """Unique solution of (I - gamma P) v = r."""
    return checked_solve(l_matrix(mdp), mdp.rewards, "value")


def stationary_distribution(mdp: Mdp) -> np.ndarray | None:
    """Stationary xi with xi' P = xi', xi > 0, or None when no such xi exists.

    One least-squares solve of xi'(I - P) = 0 with sum xi = 1. Its stacked
    matrix has full column rank exactly when rank(I - P) = n - 1, so xi is
    unique; otherwise, or when xi puts (numerically) zero mass on a state as
    for chains with an absorbing class, None is returned.
    """
    n = mdp.n_states
    a = np.vstack([np.eye(n) - mdp.transitions.T, np.ones((1, n))])
    xi, _, rank, _ = np.linalg.lstsq(a, np.append(np.zeros(n), 1.0), rcond=None)
    if rank < n or np.min(xi) <= 1e-12:
        return None
    return xi / xi.sum()
