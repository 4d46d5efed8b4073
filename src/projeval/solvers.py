"""Projected-equation solvers: best projection, TD(0), BR, and oblique.

Writing L = I - gamma P and Xi for the diagonal weight matrix, every method
is the one oblique solve

  (X' L Phi) w = X' r = (L' X)' v

for a direction matrix X: TD(0) is X = Xi Phi, BR is X = Xi L Phi, best is
the X* with L' X* = Xi Phi, and `solve_oblique` takes any X of independent
columns. Each goes through `projections.oblique_solve`, and its
`condition_estimate` is X's error bound (1 for best): the amplification of the
best achievable error is exactly the xi-norm of the projector onto span(Phi)
along span(L'X)^perp, 1 / sigma_min(Q_W' Q_U) for orthonormal bases Q_U of
Xi^1/2 Phi and Q_W of Xi^-1/2 L' X (Szyld 2006). A bound above 1e12 is the
status "singular", not an exception. Every solve needs v and reports its error
||v - Phi w||_xi as `approx_error`; a value system L v = r past that limit
raises ArithmeticError (`mdp.exact_value`), as does a solution that overflows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, exact_value, l_matrix
from .projections import (FeatureBasis, StateWeights, direction_matrix, feature_matrix,
                          oblique_solve, row_weighted, weight_column, weighted_norm)


@dataclass(frozen=True)
class ProjectionSolution:
    """Outcome of one projected solve: weights, value estimate, diagnostics."""

    weights: np.ndarray | None
    value_estimate: np.ndarray | None
    method: str
    condition_estimate: float
    status: str  # "ok" | "singular"
    approx_error: float | None  # ||v - v_hat||_xi, None when singular

    def __post_init__(self):  # every solver's one check that "ok" means finite
        if self.ok and not np.isfinite(np.r_[self.weights, self.value_estimate]).all():
            raise ArithmeticError(f"{self.method} solution overflows: it is not finite")

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _solve(mdp: Mdp, phi: FeatureBasis, xi: StateWeights, ltx: np.ndarray,
           method: str) -> ProjectionSolution:
    v = exact_value(mdp)
    w, bound = oblique_solve(phi.matrix, xi, ltx, v)
    v_hat, status = (None, "singular") if w is None else (phi.matrix @ w, "ok")
    error = None if w is None else weighted_norm(v - v_hat, xi)
    return ProjectionSolution(w, v_hat, method, bound, status, error)


def solve_best(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> ProjectionSolution:
    """The exact value's xi-orthogonal projection onto span(Phi): the direction X*."""
    return _solve(mdp, phi, xi, td_direction(mdp, phi, xi), "best")


def solve_td(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> ProjectionSolution:
    """TD(0) fixed point: the value in span(Phi) with zero projected TD error."""
    return _solve(mdp, phi, xi, l_matrix(mdp).T @ td_direction(mdp, phi, xi), "td")


def solve_br(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> ProjectionSolution:
    """Minimizer of the xi-weighted Bellman residual over span(Phi)."""
    return _solve(mdp, phi, xi, l_matrix(mdp).T @ br_direction(mdp, phi, xi), "br")


def solve_oblique(mdp: Mdp, phi: FeatureBasis, xi: StateWeights,
                  x: np.ndarray) -> ProjectionSolution:
    """Solution of the projected equation for a direction matrix X of independent columns."""
    weight_column(xi, len(feature_matrix(phi, mdp.n_states)))  # before X and the value solve
    return _solve(mdp, phi, xi, l_matrix(mdp).T @ direction_matrix(x, phi), "oblique")


def td_direction(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> np.ndarray:
    """X = Xi Phi, the direction whose oblique solve is the TD(0) fixed point."""
    return row_weighted(xi, feature_matrix(phi, mdp.n_states))


def br_direction(mdp: Mdp, phi: FeatureBasis, xi: StateWeights) -> np.ndarray:
    """X = Xi L Phi, the direction whose oblique solve is the BR minimizer."""
    return row_weighted(xi, l_matrix(mdp) @ feature_matrix(phi, mdp.n_states))
