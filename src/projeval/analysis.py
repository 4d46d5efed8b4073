"""Error functionals.

For a candidate v_hat in span(Phi) the report carries the three xi-norms that
need no exact value: the TD error, the Bellman residual, and the adequacy gap
between them; the residual squared always splits as TD error squared plus
adequacy squared. The TD error and the adequacy are distances to Proj T v_hat,
the xi-orthogonal projection of `projections.weighted_qr`, which solves no
system and has no singular case; the error ||v - v_hat||_xi comes with the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, bellman_apply
from .projections import FeatureBasis, StateWeights, feature_matrix, weighted_norm, weighted_qr


@dataclass(frozen=True)
class ErrorReport:
    td_error: float     # ||v_hat - Proj T v_hat||_xi
    br_residual: float  # ||v_hat - T v_hat||_xi
    adequacy: float     # ||T v_hat - Proj T v_hat||_xi


def error_report(mdp: Mdp, phi: FeatureBasis, xi: StateWeights,
                 w: np.ndarray) -> ErrorReport:
    """The three error functionals for the candidate v_hat = Phi w.

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
        td_error=weighted_norm(v_hat - proj_t, xi),
        br_residual=weighted_norm(v_hat - t_v_hat, xi),
        adequacy=weighted_norm(t_v_hat - proj_t, xi),
    )
