"""Weighted norms, the feature and weight objects with the one row weighting
Xi M and the one direction check, and the one projected solve.

Every method of this package reduces to an m x m system M w = left' b with
M = left' right: TD, BR and any oblique direction X use left = X and
right = L Phi, and the xi-orthogonal projection uses left = Xi Phi and
right = Phi. `projected_system` forms M and decides, from its
cancellation-aware condition estimate, whether M is numerically singular;
that decision is returned as a status, never raised. Solvers, error
reports, bounds and the sweep kernel all take it from there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# any m x m system above this condition estimate is declared singular;
# TD genuinely diverges on such instances and must be reported, not masked
SINGULAR_CONDITION_LIMIT = 1e12

INDEPENDENCE_SV_RATIO = 1e-10


@dataclass(frozen=True)
class FeatureBasis:
    """N x m feature matrix with linearly independent columns."""

    matrix: np.ndarray

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def make_feature_basis(matrix) -> FeatureBasis:
    phi = np.array(matrix, dtype=float)
    if phi.ndim == 1:
        phi = phi[:, None]
    n, m = phi.shape
    if m > n:
        raise ValueError(f"feature matrix is {n}x{m}, need m <= N")
    if not np.all(np.isfinite(phi)):
        raise ValueError("feature matrix has non-finite entries")
    s = np.linalg.svd(phi, compute_uv=False)
    if s[-1] <= INDEPENDENCE_SV_RATIO * s[0]:
        raise ValueError(
            f"feature columns are not linearly independent "
            f"(singular value ratio {s[-1] / s[0]:.3e})")
    phi.flags.writeable = False
    return FeatureBasis(phi)


@dataclass(frozen=True)
class StateWeights:
    """Strictly positive distribution over states, inducing the weighted norm."""

    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]


def make_state_weights(weights) -> StateWeights:
    xi = np.array(weights, dtype=float).ravel()
    if not np.all(np.isfinite(xi)):
        raise ValueError("state weights must be finite")
    if np.any(xi <= 0.0):
        raise ValueError("state weights must be strictly positive")
    total = xi.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("state weights must have a positive finite sum")
    xi = xi / total
    xi.flags.writeable = False
    return StateWeights(xi)


def weight_column(xi: StateWeights, n_rows: int) -> np.ndarray:
    """xi as an n_rows x 1 column; a ValueError unless xi has n_rows entries."""
    if xi.n_states != n_rows:
        raise ValueError(f"weights have length {xi.n_states}, expected {n_rows}")
    return xi.weights[:, None]


def row_weighted(xi: StateWeights, M: np.ndarray) -> np.ndarray:
    """Xi M, the rows of M scaled by the state weights."""
    return M * weight_column(xi, M.shape[0])


def direction_matrix(x, phi: FeatureBasis) -> np.ndarray:
    """A direction X as a finite matrix of Phi's shape; a vector is one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != phi.matrix.shape:
        raise ValueError(f"direction matrix is {x.shape}, expected {phi.matrix.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("direction matrix has non-finite entries")
    return x


def weighted_norm(v: np.ndarray, xi: StateWeights) -> float:
    """sqrt(sum_i xi_i v_i^2)."""
    v = np.asarray(v, dtype=float)
    if v.shape != xi.weights.shape:
        raise ValueError(f"vector has length {v.size}, expected {xi.n_states}")
    return float(np.sqrt(np.dot(xi.weights, v * v)))


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm per matrix, rounded as `np.linalg.norm(x)` (a BLAS dot)."""
    flat = x.reshape(*x.shape[:-2], 1, -1)
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def condition_estimate(M: np.ndarray, left: np.ndarray,
                       right: np.ndarray) -> float | np.ndarray:
    """Cancellation-aware condition estimate of the product M = left' right.

    The classical condition number of M misses catastrophic cancellation:
    a 1x1 product can collapse to a tiny but nonzero scalar (condition 1)
    while the underlying projected system is effectively singular. Scaling
    by the Frobenius norms of the factors catches this; the estimate always
    dominates the classical condition number. Stacked factors give one
    estimate per product.
    """
    s_min = np.linalg.svd(M, compute_uv=False)[..., -1]
    scale = _frobenius(left) * _frobenius(right)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s_min == 0.0, np.inf, scale / s_min)[()]


def projected_system(left: np.ndarray, right: np.ndarray
                     ) -> tuple[np.ndarray, float | np.ndarray, str | np.ndarray]:
    """M = left' right, its condition estimate, and its status.

    The status is "singular" when the estimate is infinite or above
    SINGULAR_CONDITION_LIMIT and "ok" otherwise; stacked factors give a
    stack of M and an array of estimates and statuses. This is the
    package's only singularity test.
    """
    M = left.swapaxes(-1, -2) @ right
    cond = condition_estimate(M, left, right)
    status = np.where(cond <= SINGULAR_CONDITION_LIMIT, "ok", "singular")
    return M, cond, status if status.ndim else status.item()


def projected_solve(left: np.ndarray, right: np.ndarray,
                    b: np.ndarray) -> tuple[np.ndarray | None, float, str]:
    """Solve (left' right) w = left' b; w is None when the system is singular."""
    M, cond, status = projected_system(left, right)
    w = np.linalg.solve(M, left.T @ b) if status == "ok" else None
    return w, cond, status
