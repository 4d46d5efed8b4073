"""Weighted norms, the feature and weight objects with the one row weighting
Xi M and the one direction check, and the one projected solve.

Every method of this package reduces to an m x m system M w = left' b with
M = left' right: TD, BR and any oblique direction X use left = X and
right = L Phi, and the xi-orthogonal projection uses left = Xi Phi and
right = Phi. `projected_system` forms M and decides, from its
cancellation-aware condition estimate, whether M is numerically singular;
that decision is returned as a status, never raised. Solvers, error
reports, bounds and the sweep kernel all take it from there: every helper
also takes stacks, and gives each member, bit for bit, its result alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# any m x m system above this condition estimate is declared singular;
# TD genuinely diverges on such instances and must be reported, not masked
SINGULAR_CONDITION_LIMIT = 1e12

INDEPENDENCE_SV_RATIO = 1e-10


def _require(ok: np.ndarray, message: str, *values: np.ndarray) -> None:
    """A ValueError unless all of `ok` holds; `message` is formatted with the first
    failing member's name (" i" in a stack, "" alone) and its entries of `values`."""
    if not np.all(ok):
        bad = np.flatnonzero(~ok)[0]
        raise ValueError(message.format(f" {bad}" if ok.ndim else "",
                                        *(v.reshape(-1)[bad] for v in values)))


@dataclass(frozen=True)
class FeatureBasis:
    """N x m feature matrix with linearly independent columns, or an F x N x m stack."""

    matrix: np.ndarray

    @property
    def n_states(self) -> int:
        return self.matrix.shape[-2]

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def make_feature_basis(matrix, stack: bool = False) -> FeatureBasis:
    """A basis from an N x m matrix, or with `stack` an F x N x m stack checked at once."""
    phi = np.array(matrix, dtype=float)
    if phi.ndim == 1 and not stack:
        phi = phi[:, None]
    if phi.ndim != 2 + stack:
        raise ValueError(f"feature matrix has shape {phi.shape}, expected {'F x ' * stack}N x m")
    n, m = phi.shape[-2:]
    if not 1 <= m <= n:
        raise ValueError(f"feature matrix is {n}x{m}, need 1 <= m <= N")
    _require(np.isfinite(phi).all(axis=(-2, -1)), "feature matrix{0} has non-finite entries")
    s = np.linalg.svd(phi, compute_uv=False)
    _require(s[..., -1] > INDEPENDENCE_SV_RATIO * s[..., 0],
             "feature columns{0} are not linearly independent "
             "(singular values {1:.3e} and {2:.3e})", s[..., -1], s[..., 0])
    phi.flags.writeable = False
    return FeatureBasis(phi)


@dataclass(frozen=True)
class StateWeights:
    """Strictly positive distribution over states, inducing the weighted norm: an N
    vector, or a stack of them with any leading axes (F x N, or F x 1 x N to broadcast)."""

    weights: np.ndarray

    @property
    def n_states(self) -> int:
        return self.weights.shape[-1]


def make_state_weights(weights, stack: bool = False) -> StateWeights:
    xi = np.array(weights, dtype=float)
    if xi.ndim != 1 + stack:
        raise ValueError(f"state weights must be a vector{' stack' * stack}, got shape {xi.shape}")
    _require(np.isfinite(xi).all(axis=-1), "state weights{0} must be finite")
    _require((xi > 0.0).all(axis=-1), "state weights{0} must be strictly positive")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected just below
        total = xi.sum(axis=-1)
    _require(np.isfinite(total) & (total > 0), "state weights{0} must have a positive finite sum")
    xi = xi / total[..., None]
    _require((xi > 0.0).all(axis=-1),
             "state weights{0} span too wide a range: some are zero once normalized")
    xi.flags.writeable = False
    return StateWeights(xi)


def feature_matrix(phi: FeatureBasis, n_rows: int) -> np.ndarray:
    """Phi's matrix; a ValueError unless Phi has n_rows rows."""
    if phi.n_states != n_rows:
        raise ValueError(f"features have {phi.n_states} rows, expected {n_rows}")
    return phi.matrix


def weight_column(xi: StateWeights, n_rows: int) -> np.ndarray:
    """xi as an n_rows x 1 column (a stack of them); a ValueError unless xi has n_rows entries."""
    if xi.n_states != n_rows:
        raise ValueError(f"weights have length {xi.n_states}, expected {n_rows}")
    return xi.weights[..., None]


def row_weighted(xi: StateWeights, M: np.ndarray) -> np.ndarray:
    """Xi M, the rows of M (of each matrix of a stack) scaled by the state weights."""
    return M * weight_column(xi, M.shape[-2])


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


def weighted_norm(v: np.ndarray, xi: StateWeights) -> float | np.ndarray:
    """sqrt(sum_i xi_i v_i^2) over the last axis; a float, or one norm per vector of a stack."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (xi.n_states,):
        raise ValueError(f"vector has shape {v.shape}, expected length {xi.n_states}")
    norm = np.sqrt(np.sum(xi.weights * v * v, axis=-1))
    return norm if norm.ndim else float(norm)


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


def projected_solve(left: np.ndarray, right: np.ndarray, b: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, float | np.ndarray, str | np.ndarray]:
    """w with (left' right) w = left' b, and M, its estimate and status as `projected_system`
    gives them. The identity stands in for a singular M, in the M returned too, so a
    stacked solve cannot fail; that system's w is NaN."""
    M, cond, status = projected_system(left, right)
    singular = np.asarray(status) != "ok"
    M[singular] = np.eye(M.shape[-1])
    w = np.linalg.solve(M, left.swapaxes(-1, -2) @ b[..., None])[..., 0]
    w[singular] = np.nan
    return w, M, cond, status
