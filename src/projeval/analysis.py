"""Error functionals and tight spectral-radius error bounds.

For a candidate v_hat in span(Phi) the report carries four xi-norms: the
approximation error against the exact value, the TD error, the Bellman
residual, and the adequacy gap between them; the residual squared always
splits as TD error squared plus adequacy squared.

For an oblique direction X, the amplification of the best achievable error
is exactly the xi-norm of the projector onto span(Phi) along span(L'X)^perp,
computed from three m x m matrices:

  A = Phi' Xi Phi,  B = (X' L Phi)^-1,  C = X' L Xi^-1 L' X,
  bound = sqrt(lambda_max(A^1/2 B C B' A^1/2)).

Both the xi-projection of the report and the system X' L Phi of the bound
go through the singularity gate of `projections`.
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
    projected_solve,
    projected_system,
    row_weighted,
    weight_column,
    weighted_norm,
)


@dataclass(frozen=True)
class ErrorReport:
    approx_error: float         # ||v - v_hat||_xi
    td_error: float | None      # ||v_hat - Proj T v_hat||_xi
    br_residual: float          # ||v_hat - T v_hat||_xi
    adequacy: float | None      # ||T v_hat - Proj T v_hat||_xi
    condition_estimate: float   # of the Gram system behind Proj
    status: str  # "ok" | "singular"; td_error and adequacy are None when singular

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class BoundReport:
    direction_tag: str
    a_matrix: np.ndarray
    b_matrix: np.ndarray | None
    c_matrix: np.ndarray
    bound: float | None
    condition_estimate: float   # of X' L Phi
    status: str  # "ok" | "singular"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix or stack, negative eigenvalues clipped."""
    lam, vec = np.linalg.eigh(a)
    return (vec * np.sqrt(np.maximum(lam, 0.0))[..., None, :]) @ vec.swapaxes(-1, -2)


def amplification_bound(a_half: np.ndarray, b: np.ndarray,
                        c: np.ndarray) -> float | np.ndarray:
    """sqrt(lambda_max(A^1/2 B C B' A^1/2)) from A^1/2 = psd_sqrt(A), B and C.

    One float for one system, one per matrix for stacks. The symmetric form
    avoids complex eigensolvers; the sweep's CSVs depend on this exact
    operation order.
    """
    sym = a_half @ (b @ c @ b.swapaxes(-1, -2)) @ a_half
    sym = sym + sym.swapaxes(-1, -2)
    sym *= 0.5
    return np.sqrt(np.maximum(np.max(np.linalg.eigvalsh(sym), axis=-1), 0.0))


def c_matrix(L: np.ndarray, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """C = X' L Xi^-1 L' X per matrix, in the operation order the sweep's CSVs need."""
    ltx = L.swapaxes(-1, -2) @ x
    return (ltx / xi[..., None]).swapaxes(-1, -2) @ ltx


def error_report(mdp: Mdp, phi: FeatureBasis, xi: StateWeights,
                 w: np.ndarray) -> ErrorReport:
    """All four error functionals for the candidate v_hat = Phi w.

    Proj is the xi-orthogonal projection, the projected solve with
    left = Xi Phi and right = Phi; when that system is singular, td_error
    and adequacy are None.
    """
    phi_mat = feature_matrix(phi, mdp.n_states)
    v_hat = phi_mat @ np.asarray(w, dtype=float)
    t_v_hat = bellman_apply(mdp, v_hat)
    coords, cond, status = projected_solve(row_weighted(xi, phi_mat), phi_mat, t_v_hat)
    td_error = adequacy = None
    if status == "ok":
        proj_t = phi_mat @ coords
        td_error = weighted_norm(v_hat - proj_t, xi)
        adequacy = weighted_norm(t_v_hat - proj_t, xi)
    return ErrorReport(
        approx_error=weighted_norm(exact_value(mdp) - v_hat, xi),
        td_error=td_error,
        br_residual=weighted_norm(v_hat - t_v_hat, xi),
        adequacy=adequacy,
        condition_estimate=cond,
        status=status,
    )


def error_bound(mdp: Mdp, phi: FeatureBasis, xi: StateWeights,
                x: np.ndarray) -> BoundReport:
    """Tight amplification factor sqrt(lambda_max(A B C B')) for direction X.

    Singular X' L Phi means the oblique solution does not exist; the bound is
    reported as a status, never as a sentinel number.
    """
    phi_mat = feature_matrix(phi, mdp.n_states)
    x = direction_matrix(x, phi)
    L = l_matrix(mdp)
    a = phi_mat.T @ row_weighted(xi, phi_mat)
    c = c_matrix(L, x, xi.weights)
    xlphi, cond, status = projected_system(x, L @ phi_mat)
    if status != "ok":
        return BoundReport("oblique-X", a, None, c, None, cond, status)
    b = np.linalg.inv(xlphi)
    return BoundReport("oblique-X", a, b, c, amplification_bound(psd_sqrt(a), b, c),
                       cond, status)


def concentration_coefficient(mdp: Mdp, xi: StateWeights) -> float:
    """max over (i,j) of p_ij / xi_i, a stochasticity measure of the chain."""
    return float(np.max(mdp.transitions / weight_column(xi, mdp.n_states)))


def br_guarantee(mdp: Mdp, xi: StateWeights, v_hat: np.ndarray) -> tuple[float, float]:
    """Both sides of the residual-based performance guarantee.

    lhs = ||v - v_hat||_xi, rhs = sqrt(C(xi)) / (1 - gamma) * ||v_hat - T v_hat||_xi,
    for any v_hat.
    """
    v_hat = np.asarray(v_hat, dtype=float)
    v = exact_value(mdp)
    lhs = weighted_norm(v - v_hat, xi)
    residual = weighted_norm(v_hat - bellman_apply(mdp, v_hat), xi)
    rhs = np.sqrt(concentration_coefficient(mdp, xi)) / (1.0 - mdp.discount) * residual
    return lhs, rhs


def stationary_td_bound_check(mdp: Mdp, phi: FeatureBasis,
                              xi_stationary: StateWeights) -> tuple[float, float]:
    """TD error bound under the stationary distribution.

    lhs = ||v - v_td||_xi, rhs = ||v - v_best||_xi / sqrt(1 - gamma^2).
    Requires xi' P = xi' within 1e-8.
    """
    from .solvers import solve_best, solve_td

    xi = xi_stationary
    resid = np.max(np.abs(xi.weights @ mdp.transitions - xi.weights))
    if resid > 1e-8:
        raise ValueError(f"weights are not stationary for P (residual {resid:.3e})")
    v = exact_value(mdp)
    td = solve_td(mdp, phi, xi)
    if not td.ok:
        raise ArithmeticError("TD solve is singular under a stationary distribution")
    best = solve_best(mdp, phi, xi)
    lhs = weighted_norm(v - td.value_estimate, xi)
    rhs = weighted_norm(v - best.value_estimate, xi) / np.sqrt(1.0 - mdp.discount ** 2)
    return lhs, rhs
