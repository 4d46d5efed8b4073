"""Projected-equation solvers: best projection, TD(0), BR, and oblique.

Writing L = I - gamma P and Xi for the diagonal weight matrix, every method
is the one oblique solve

  (X' L Phi) w = X' r

for a direction matrix X: TD(0) is X = Xi Phi, BR is X = Xi L Phi, and
`solve_oblique` takes any X. Each goes through `projections.projected_solve`,
so a numerically singular system (condition estimate above 1e12) is the
status "singular" on the solution, never an exception or a silently garbage
answer. The best projection solves no system: it is the xi-orthogonal
projection of `projections.weighted_qr`, never singular, and the direction X*
solving L' X* = Xi Phi reproduces it as an oblique solve. A solution that
overflows to a non-finite value raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, checked_solve, exact_value, l_matrix
from .projections import (FeatureBasis, StateWeights, direction_matrix, feature_matrix,
                          projected_solve, row_weighted, weighted_qr)


@dataclass(frozen=True)
class ProjectionSolution:
    """Outcome of one projected solve: weights, value estimate, diagnostics."""

    weights: np.ndarray | None
    value_estimate: np.ndarray | None
    method: str
    condition_estimate: float
    status: str  # "ok" | "singular"

    def __post_init__(self):  # every solver's one check that "ok" means finite
        if self.ok and not np.isfinite(np.r_[self.weights, self.value_estimate]).all():
            raise ArithmeticError(f"{self.method} solution overflows: it is not finite")

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _solve(left: np.ndarray, right: np.ndarray, b: np.ndarray,
           phi: FeatureBasis, method: str) -> ProjectionSolution:
    w, _, cond, status = projected_solve(left, right, b)
    w, v_hat = (w, phi.matrix @ w) if status == "ok" else (None, None)
    return ProjectionSolution(w, v_hat, method, cond, status)


def _lphi(mdp: Mdp, phi: FeatureBasis) -> np.ndarray:
    """L Phi, with Phi's rows checked against the chain."""
    return l_matrix(mdp) @ feature_matrix(phi, mdp.n_states)


def solve_best(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> ProjectionSolution:
    """The exact value's xi-orthogonal projection onto span(Phi); estimate cond(Xi^1/2 Phi)."""
    s, q, r = weighted_qr(feature_matrix(phi, mdp.n_states), xi)
    w = np.linalg.solve(r, q.T @ (s[:, 0] * exact_value(mdp)))
    return ProjectionSolution(w, phi.matrix @ w, "best", float(np.linalg.cond(r)), "ok")


def solve_td(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> ProjectionSolution:
    """TD(0) fixed point: the value in span(Phi) with zero projected TD error."""
    lphi = _lphi(mdp, phi)
    return _solve(td_direction(mdp, phi, xi), lphi, mdp.rewards, phi, "td")


def solve_br(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> ProjectionSolution:
    """Minimizer of the xi-weighted Bellman residual over span(Phi)."""
    lphi = _lphi(mdp, phi)
    return _solve(row_weighted(xi, lphi), lphi, mdp.rewards, phi, "br")


def solve_oblique(mdp: Mdp, phi: FeatureBasis, x: np.ndarray) -> ProjectionSolution:
    """Solution of the projected equation for an arbitrary direction matrix X."""
    lphi = _lphi(mdp, phi)
    return _solve(direction_matrix(x, phi), lphi, mdp.rewards, phi, "oblique")


def optimal_direction(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> np.ndarray:
    """Direction X* with L' X* = Xi Phi; its oblique solve is the best projection."""
    return checked_solve(l_matrix(mdp).T, td_direction(mdp, phi, xi), "optimal-direction")


def td_direction(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> np.ndarray:
    """X = Xi Phi, the direction whose oblique solve is the TD(0) fixed point."""
    return row_weighted(xi, feature_matrix(phi, mdp.n_states))


def br_direction(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> np.ndarray:
    """X = Xi L Phi, the direction whose oblique solve is the BR minimizer."""
    return row_weighted(xi, _lphi(mdp, phi))
