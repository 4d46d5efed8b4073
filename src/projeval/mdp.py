"""Finite MDP with a fixed policy: transition matrix, rewards, discount.

The chain is uncontrolled; all value computations reduce to dense linear
algebra with L = I - gamma * P. L v = r is solved only while L's condition
number, exactly ||L||_inf / (1 - gamma) for a row-stochastic P (Higham 2002,
ch. 7), is within the library's one singularity limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .projections import SINGULAR_CONDITION_LIMIT

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Mdp:
    """An uncontrolled finite-state MDP: row-stochastic P, rewards r, discount.

    `make_mdp` makes P and r read-only, so L and the exact value are formed
    on first use and kept, read-only too: see `l_matrix` and `exact_value`.
    A stack of M chains (`make_mdp(..., stack=True)`) holds M x n x n P and M x n r.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    discount: float

    @property
    def n_states(self) -> int:
        return self.transitions.shape[-1]

    @cached_property
    def _l(self) -> np.ndarray:
        return _read_only(np.eye(self.n_states) - self.discount * self.transitions)

    @cached_property
    def _v(self) -> np.ndarray:
        cond = np.atleast_1d(value_condition(self))
        over = cond > SINGULAR_CONDITION_LIMIT
        if over.any():
            bad = over.argmax()
            where = f" of chain {bad} (n={self.n_states})" if self.transitions.ndim == 3 else ""
            raise ArithmeticError(f"value system{where} has condition number {cond[bad]:.6g} "
                                  f"at discount {self.discount!r}")
        v = np.linalg.solve(self._l, self.rewards[..., None])[..., 0]
        if not np.all(np.isfinite(v)):
            raise ArithmeticError("value solution overflows: it is not finite")
        return _read_only(v)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_mdp(transitions, rewards, discount: float, stack: bool = False) -> Mdp:
    """Build a validated Mdp, renormalizing rows that are within tolerance; with
    `stack`, one Mdp of M x n x n transitions and M x n rewards, checked at once.

    Raises ValueError listing every violated invariant otherwise.
    """
    P = np.array(transitions, dtype=float)
    r = np.array(rewards, dtype=float)
    m = Mdp(P, r, float(discount))
    problems = validate(m, stack)
    if problems:
        raise ValueError("invalid MDP: " + "; ".join(problems))
    # file-parsed probabilities carry rounding noise; renormalize inside tolerance
    return Mdp(_read_only(P / P.sum(axis=-1, keepdims=True)), _read_only(m.rewards), m.discount)


def validate(mdp: Mdp, stack: bool = False) -> list[str]:
    """Check all Mdp invariants; return a list of violations (empty means ok).
    With `stack`, all chains are checked at once and a violation names its first chain."""

    def of(chain):  # where in a stack
        return f" of chain {chain[0]}" if chain else ""

    P, r, gamma = mdp.transitions, mdp.rewards, mdp.discount
    if P.ndim != 2 + stack or P.shape[-1] != P.shape[-2]:
        return [f"transition matrix is {P.shape}, expected square{' stack' * stack}"]
    if P.shape[-1] == 0:
        return ["transition matrix has no states"]
    problems = []
    if r.shape != P.shape[:-1]:
        problems.append(f"rewards has shape {r.shape}, expected {P.shape[:-1]}")
    elif not np.all(np.isfinite(r)):
        *chain, i = np.argwhere(~np.isfinite(r))[0]
        problems.append(f"non-finite reward at {i}{of(chain)}")
    if not (0.0 < gamma < 1.0):
        problems.append("discount not in (0,1)")
    if not np.all(np.isfinite(P)):
        *chain, i, j = np.argwhere(~np.isfinite(P))[0]
        problems.append(f"non-finite probability at ({i},{j}){of(chain)}: {P[(*chain, i, j)]}")
        return problems
    if np.any(P < 0.0) or np.any(P > 1.0):
        *chain, i, j = np.argwhere((P < 0.0) | (P > 1.0))[0]
        problems.append(f"probability out of [0,1] at ({i},{j}){of(chain)}: {P[(*chain, i, j)]}")
    with np.errstate(over="ignore"):  # entries far above 1 may overflow; reported below
        row_sums = P.sum(axis=-1)
    for *chain, i in np.argwhere(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        problems.append(f"row {i}{of(chain)} sums to {float(row_sums[(*chain, i)])!r}")
    return problems


def bellman_apply(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """One application of the Bellman operator: r + gamma * P v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.n_states,):
        raise ValueError(f"value vector has length {v.size}, expected {mdp.n_states}")
    return mdp.rewards + mdp.discount * (mdp.transitions @ v)


def l_matrix(mdp: Mdp) -> np.ndarray:
    """The dense matrix L = I - gamma P, formed once per Mdp."""
    return mdp._l


def value_condition(mdp: Mdp) -> np.floating | np.ndarray:
    """||L||_inf ||L^-1||_inf of L = I - gamma P (each chain's, in a stack): exactly
    ||L||_inf / (1 - gamma), as L^-1 = sum_t gamma^t P^t >= 0 has row sums 1 / (1 - gamma)."""
    return np.abs(mdp._l).sum(-1).max(-1) / (1.0 - mdp.discount)


def exact_value(mdp: Mdp) -> np.ndarray:
    """Unique solution of (I - gamma P) v = r, solved once per Mdp; ArithmeticError when
    v is not finite or `value_condition` (a stack's first chain over) is past the limit."""
    return mdp._v
