"""Weighted norms, the feature and weight objects with the one row weighting
Xi M and the one direction check, and the one oblique solve.

Best, TD, BR and any oblique direction X solve (X' L Phi) w = X' r:
`oblique_solve` does so from orthonormal bases of Xi^1/2 Phi (`weighted_qr`,
also the xi-orthogonal projection) and of Xi^-1/2 L' X, with one gate on the
projector's norm, reported as a mask. It and the other helpers take a member
or a stack, and give each member, bit for bit, its result alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# one gate, for a member or a stack: a solve whose bound (the kernel's TD: condition estimate)
# is not at most this is singular, reported as a mask; TD genuinely diverges there
SINGULAR_CONDITION_LIMIT = 1e12

INDEPENDENCE_SV_RATIO = 1e-10


def _require(ok: np.ndarray, message: str, *values: np.ndarray) -> None:
    """A ValueError unless all of `ok` holds; `message` is formatted with the first
    failing member's name (" i" in a stack, "" alone) and its entries of `values`."""
    if not np.all(ok):
        bad = np.flatnonzero(~ok)[0]
        raise ValueError(message.format(f" {bad}" if ok.ndim else "",
                                        *(v.reshape(-1)[bad] for v in values)))


def _require_independent(a: np.ndarray, what: str) -> None:
    """A ValueError unless the columns of `a` (of each matrix of a stack) are independent."""
    s = np.linalg.svd(a, compute_uv=False)
    _require(s[..., -1] > INDEPENDENCE_SV_RATIO * s[..., 0], what + "{0} are not linearly "
             "independent (singular values {1:.3e} and {2:.3e})", s[..., -1], s[..., 0])


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
    _require_independent(phi, "feature columns")
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
    """A direction X as a finite matrix of Phi's shape with independent columns, as Phi's
    are; a vector is one column. A dependent X's Q_W would still be orthonormal."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != phi.matrix.shape:
        raise ValueError(f"direction matrix is {x.shape}, expected {phi.matrix.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("direction matrix has non-finite entries")
    _require_independent(x, "direction columns")
    return x


def weighted_qr(phi_mat: np.ndarray, xi: StateWeights) -> tuple[np.ndarray, ...]:
    """s = Xi^1/2 as a column and the thin QR (q, r) of s Phi: Proj y = q q' (s y) / s,
    with coordinates c solving r c = q' (s y), conditioned as cond(r), not its square."""
    s = np.sqrt(weight_column(xi, phi_mat.shape[-2]))
    return (s, *np.linalg.qr(s * phi_mat))


def oblique_solve(phi_mat: np.ndarray, xi: StateWeights, ltx: np.ndarray,
                  v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, b, singular) of the direction X with ltx = L' X, per member of the broadcast leading
    axes: w solves (X' L Phi) w = X' L v, and b = 1 / sigma_min(K), K = Q_W' Q_U for orthonormal
    bases of Xi^-1/2 L' X and Xi^1/2 Phi, is its projector's xi-norm (Szyld 2006). A member is
    singular unless b <= SINGULAR_CONDITION_LIMIT: the identity stands in for its K, w is NaN."""
    s, q_u, r_u = weighted_qr(phi_mat, xi)
    q_wt = np.linalg.qr(ltx / s)[0].swapaxes(-1, -2)
    k = q_wt @ q_u
    with np.errstate(divide="ignore"):
        b = 1.0 / np.linalg.svd(k, compute_uv=False)[..., -1]
    singular = ~(b <= SINGULAR_CONDITION_LIMIT)
    k[singular] = np.eye(k.shape[-1])
    w = np.linalg.solve(r_u, np.linalg.solve(k, q_wt @ (s * v[..., None])))[..., 0]
    return np.where(singular[..., None], np.nan, w), b, singular


def weighted_norm(v: np.ndarray, xi: StateWeights) -> float | np.ndarray:
    """sqrt(sum_i xi_i v_i^2) over the last axis; a float, or one norm per vector of a stack."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (xi.n_states,):
        raise ValueError(f"vector has shape {v.shape}, expected length {xi.n_states}")
    with np.errstate(over="ignore"):  # a finite v's squares may overflow; hypot's do not
        norm = np.sqrt(np.sum(xi.weights * v * v, axis=-1))
    if np.isinf(norm).any():
        norm = np.where(np.isinf(norm), np.hypot.reduce(np.sqrt(xi.weights) * v, axis=-1), norm)
    return norm if norm.ndim else float(norm)
