"""Error functionals and tight error bounds.

For a candidate v_hat in span(Phi) the report carries four xi-norms: the
approximation error against the exact value, the TD error, the Bellman
residual, and the adequacy gap between them; the residual squared always
splits as TD error squared plus adequacy squared. The TD error and the
adequacy are distances to Proj T v_hat, the xi-orthogonal projection of
`projections.weighted_qr`, which solves no system and has no singular case.

For an oblique direction X, the amplification of the best achievable error
is exactly the xi-norm of the projector onto span(Phi) along span(L'X)^perp,
1 / sigma_min(Q_W' Q_U) for orthonormal bases Q_U of Xi^1/2 Phi and Q_W of
Xi^-1/2 L' X (Szyld 2006). `error_bound` reads it, and its singularity
gate, from `projections.oblique_solve`, the call every solver makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, bellman_apply, exact_value, l_matrix
from .projections import (
    FeatureBasis,
    StateWeights,
    direction_matrix,
    feature_matrix,
    oblique_solve,
    weight_column,
    weighted_norm,
    weighted_qr,
)


@dataclass(frozen=True)
class ErrorReport:
    approx_error: float  # ||v - v_hat||_xi
    td_error: float      # ||v_hat - Proj T v_hat||_xi
    br_residual: float   # ||v_hat - T v_hat||_xi
    adequacy: float      # ||T v_hat - Proj T v_hat||_xi


@dataclass(frozen=True)
class BoundReport:
    bound: float | None         # None when singular
    condition_estimate: float   # the bound, singular or not
    status: str  # "ok" | "singular"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def error_report(mdp: Mdp, phi: FeatureBasis, xi: StateWeights,
                 w: np.ndarray) -> ErrorReport:
    """All four error functionals for the candidate v_hat = Phi w.

    Proj T v_hat comes from `weighted_qr`. A ValueError unless w is a finite vector
    of length m; an ArithmeticError when Phi w or T Phi w is not finite.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (phi.dim,):
        raise ValueError(f"coordinates w have shape {w.shape}, expected ({phi.dim},)")
    if not np.all(np.isfinite(w)):
        raise ValueError("coordinates w have non-finite entries")
    phi_mat = feature_matrix(phi, mdp.n_states)
    s, q, _ = weighted_qr(phi_mat, xi)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite candidate raises below
        v_hat = phi_mat @ w
        t_v_hat = bellman_apply(mdp, v_hat)
    if not (np.isfinite(v_hat).all() and np.isfinite(t_v_hat).all()):
        raise ArithmeticError("the candidate Phi w or T Phi w overflows: it is not finite")
    proj_t = (q @ (q.T @ (s * t_v_hat[:, None])) / s)[:, 0]
    return ErrorReport(
        approx_error=weighted_norm(exact_value(mdp) - v_hat, xi),
        td_error=weighted_norm(v_hat - proj_t, xi),
        br_residual=weighted_norm(v_hat - t_v_hat, xi),
        adequacy=weighted_norm(t_v_hat - proj_t, xi),
    )


def error_bound(mdp: Mdp, phi: FeatureBasis, xi: StateWeights,
                x: np.ndarray) -> BoundReport:
    """Tight amplification factor 1 / sigma_min(Q_W' Q_U) for a direction X of
    independent columns, from `oblique_solve`.

    Past the singularity limit the oblique solution does not exist; the bound is
    reported as a status, never as a sentinel number.
    """
    weight_column(xi, len(feature_matrix(phi, mdp.n_states)))  # as `solve_oblique` checks
    ltx = l_matrix(mdp).T @ direction_matrix(x, phi)
    w, bound = oblique_solve(phi.matrix, xi, ltx, np.zeros(mdp.n_states))  # w: the gate only
    return BoundReport(None, bound, "singular") if w is None else BoundReport(bound, bound, "ok")
