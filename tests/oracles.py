"""Reference implementations the tests compare the package against.

Coefficient maps of (oblique) projections as explicit m x N matrices, a
dense solve checked on its residual, the direction X* whose oblique solve is
the best projection, the projector norm computed from them through small
m x m products, the matrices A, B and C of the amplification bound, a
full-size singular-value oracle for induced xi-operator norms, the
matrix-free L and L' products, a trial's three errors, a candidate's error
report and an exact test of a trial's TD and BR bounds in rational
arithmetic (stdlib `fractions`), a record-by-record loop over a sweep's
cells, a token-by-token matrix file reader, a 17-digit matrix file writer,
a `str.format` CSV writer and the closed-form weights of the paper's
example 1; and the paper's two performance guarantees (BR's concentration
bound and TD's bound under the stationary distribution), with the
stationary distribution and the two fixtures they are checked on (a
block-triangular instance and an ergodic cyclic chain). The package itself
needs none of these; they exist to cross-check its solvers, bounds and
statistics by an independent route.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from projeval.harness import CELL_DTYPE, DEGENERATE_RELATIVE_ERROR
from projeval.instances import _WEIGHT_FLOOR, Instance, SeedSpec
from projeval.matio import MatrixParseError
from projeval.mdp import bellman_apply, exact_value, l_matrix, make_mdp
from projeval.projections import (FeatureBasis, StateWeights, make_feature_basis,
                                  make_state_weights, weight_column, weighted_norm)
from projeval.solvers import solve_best, solve_td, td_direction


class SingularMatrixError(np.linalg.LinAlgError):
    """A coefficient map's m x m system is numerically singular."""

    def __init__(self, what: str, condition: float):
        super().__init__(f"{what} is numerically singular (condition estimate {condition:.3e})")
        self.what = what
        self.condition = condition


@dataclass(frozen=True)
class CoefficientMap:
    """m x N map from state-space vectors to feature coordinates."""

    matrix: np.ndarray
    direction_tag: str


def _coefficient_matrix(left: np.ndarray, right: np.ndarray, what: str) -> np.ndarray:
    """(left' right)^-1 left', raising when M = left' right is singular: sigma_min(M) is 0,
    or ||left||_F ||right||_F / sigma_min(M), which a tiny M from cancellation cannot
    hide, is above 1e12."""
    M = left.T @ right
    sigma_min = np.linalg.svd(M, compute_uv=False)[-1]
    cond = np.linalg.norm(left) * np.linalg.norm(right) / sigma_min if sigma_min else np.inf
    if cond > 1e12:
        raise SingularMatrixError(what, cond)
    return np.linalg.solve(M, left.T)


def orthogonal_coefficient_map(phi: FeatureBasis, xi: StateWeights) -> CoefficientMap:
    """pi = (Phi' Xi Phi)^-1 Phi' Xi, the xi-orthogonal coefficient map."""
    xiphi = phi.matrix * xi.weights[:, None]
    return CoefficientMap(_coefficient_matrix(xiphi, phi.matrix, "Gram matrix"),
                          "orthogonal-xi")


def oblique_coefficient_map(phi: FeatureBasis, x: np.ndarray) -> CoefficientMap:
    """pi_X = (X' Phi)^-1 X', projecting onto span(Phi) orthogonally to span(X)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape != phi.matrix.shape:
        raise ValueError(f"direction matrix is {x.shape}, expected {phi.matrix.shape}")
    return CoefficientMap(_coefficient_matrix(x, phi.matrix, "direction product X'Phi"),
                          "oblique-X")


def checked_solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """x with a x = b by a pivoted dense solve; ArithmeticError when the
    residual is non-finite or above 1e-10 relative to b."""
    x = np.linalg.solve(a, b)
    resid = np.max(np.abs(a @ x - b))
    if not np.isfinite(resid) or resid > 1e-10 * (1.0 + np.max(np.abs(b), initial=0.0)):
        raise ArithmeticError(f"{what} solve residual too large: {resid}")
    return x


def optimal_direction(mdp, phi: FeatureBasis, xi: StateWeights) -> np.ndarray:
    """Direction X* with L' X* = Xi Phi; its oblique solve is the best projection."""
    return checked_solve(l_matrix(mdp).T, td_direction(mdp, phi, xi), "optimal-direction")


def bound_matrices(mdp, phi: FeatureBasis, xi: StateWeights,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m x m matrices of the amplification bound of direction X, each
    formed from dense N x N matrices: A = Phi' Xi Phi, B = (X' L Phi)^-1 and
    C = X' L Xi^-1 L' X."""
    L = np.eye(mdp.n_states) - mdp.discount * mdp.transitions
    Xi = np.diag(xi.weights)
    a = phi.matrix.T @ Xi @ phi.matrix
    b = np.linalg.inv(x.T @ L @ phi.matrix)
    c = x.T @ L @ np.linalg.inv(Xi) @ L.T @ x
    return a, b, c


def spectral_radius(m_matrix: np.ndarray) -> float:
    """Maximum absolute eigenvalue of a square matrix."""
    m_matrix = np.asarray(m_matrix, dtype=float)
    if m_matrix.ndim != 2 or m_matrix.shape[0] != m_matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got {m_matrix.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(m_matrix))))


def psd_product_spectral_radius(g: np.ndarray, h: np.ndarray) -> float:
    """Spectral radius of G H for symmetric PSD G, H.

    Computed as the top eigenvalue of G^(1/2) H G^(1/2), a similar symmetric
    PSD matrix; avoids complex eigensolvers and spurious imaginary parts.
    """
    g = 0.5 * (g + g.T)
    h = 0.5 * (h + h.T)
    lam, vec = np.linalg.eigh(g)
    g_half = (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.T
    sym = g_half @ h @ g_half
    return float(np.max(np.maximum(np.linalg.eigvalsh(0.5 * (sym + sym.T)), 0.0)))


def projector_weighted_norm(phi: FeatureBasis, pi: CoefficientMap,
                            xi: StateWeights) -> float:
    """xi-operator norm of the projector Phi pi, via m x m products only.

    ||Y Z||_xi^2 is the spectral radius of (Y' Xi Y)(Z Xi^-1 Z') with
    Y = Phi and Z = pi.
    """
    g = phi.matrix.T @ (phi.matrix * xi.weights[:, None])
    h = (pi.matrix / xi.weights[None, :]) @ pi.matrix.T
    return float(np.sqrt(psd_product_spectral_radius(g, h)))


def operator_norm_oracle(op_matrix: np.ndarray, xi: StateWeights) -> float:
    """Full-size oracle for the induced xi-operator norm of an N x N matrix.

    Largest singular value of Xi^(1/2) M Xi^(-1/2); used to validate the
    small-matrix route above.
    """
    op_matrix = np.asarray(op_matrix, dtype=float)
    root = np.sqrt(xi.weights)
    scaled = (op_matrix * root[:, None]) / root[None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def apply_L(mdp, v: np.ndarray) -> np.ndarray:
    """(I - gamma P) v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.n_states,):
        raise ValueError(f"value vector has length {v.size}, expected {mdp.n_states}")
    return v - mdp.discount * (mdp.transitions @ v)


def apply_L_transpose(mdp, v: np.ndarray) -> np.ndarray:
    """(I - gamma P') v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.n_states,):
        raise ValueError(f"value vector has length {v.size}, expected {mdp.n_states}")
    return v - mdp.discount * (mdp.transitions.T @ v)


def _exact_solve(a: list, b: list) -> list:
    """x with a x = b, by Gaussian elimination in exact rational arithmetic."""
    rows = [[*row, bi] for row, bi in zip(a, b)]
    n = len(rows)
    for j in range(n):
        p = next(i for i in range(j, n) if rows[i][j] != 0)  # StopIteration: singular
        rows[j], rows[p] = rows[p], rows[j]
        for i in range(j + 1, n):
            f = rows[i][j] / rows[j][j]
            if f:
                rows[i][j:] = [x - f * y for x, y in zip(rows[i][j:], rows[j][j:])]
    x = [Fraction(0)] * n
    for j in reversed(range(n)):
        x[j] = (rows[j][n] - _dot(rows[j][j + 1:n], x[j + 1:])) / rows[j][j]
    return x


def _dot(x, y) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _exact_terms(mdp, phi: FeatureBasis, xi: StateWeights) -> tuple[list, ...]:
    """L, r, xi, Phi's columns and L Phi's columns, the float inputs taken as exact rationals."""
    n = mdp.n_states
    gamma = Fraction(mdp.discount)
    P = [[Fraction(p) for p in row] for row in mdp.transitions.tolist()]
    L = [[(i == j) - gamma * P[i][j] for j in range(n)] for i in range(n)]
    r = [Fraction(x) for x in mdp.rewards.tolist()]
    weights = [Fraction(x) for x in xi.weights.tolist()]
    cols = [[Fraction(x) for x in col] for col in phi.matrix.T.tolist()]
    lcols = [[_dot(row, col) for row in L] for col in cols]
    return L, r, weights, cols, lcols


def exact_errors(mdp, phi: FeatureBasis, xi: StateWeights) -> tuple[float, float, float]:
    """e, e_td and e_br of one instance in exact rational arithmetic.

    The float P, r, gamma, Phi and xi are taken as the exact rationals they
    are. Elimination solves L v = r, then the best, TD and BR systems
    (Phi' Xi Phi) w = Phi' Xi v, (Phi' Xi L Phi) w = Phi' Xi r and
    ((L Phi)' Xi L Phi) w = (L Phi)' Xi r; each error ||v - Phi w||_xi is
    exact up to its square root, taken in float. Standard library only.
    """
    L, r, weights, cols, lcols = _exact_terms(mdp, phi, xi)
    v = _exact_solve(L, r)

    def error(left, right, b):
        """||v - Phi w||_xi with (left' Xi right) w = left' Xi b, left and right as columns."""
        xleft = [[x * y for x, y in zip(weights, col)] for col in left]
        w = _exact_solve([[_dot(x, col) for col in right] for x in xleft],
                         [_dot(x, b) for x in xleft])
        return _xi_norm(weights, [vi - _dot(w, row) for vi, row in zip(v, zip(*cols))])

    return error(cols, cols, v), error(cols, lcols, r), error(lcols, lcols, r)


def exact_best_weights(mdp, phi: FeatureBasis, xi: StateWeights) -> list[float]:
    """w of the best projection, (Phi' Xi Phi) w = Phi' Xi v, in exact rational
    arithmetic: the Gram system the package avoids is exact here."""
    L, r, weights, cols, _ = _exact_terms(mdp, phi, xi)
    v = _exact_solve(L, r)
    xcols = [[x * y for x, y in zip(weights, col)] for col in cols]
    return [float(c) for c in _exact_solve([[_dot(x, col) for col in cols] for x in xcols],
                                           [_dot(x, v) for x in xcols])]


def exact_report(mdp, phi: FeatureBasis, xi: StateWeights,
                 w) -> tuple[float, float, float, float]:
    """approx_error, td_error, br_residual and adequacy of the candidate Phi w in exact
    rational arithmetic: the first as `ProjectionSolution` names it, the other three
    as `analysis.error_report` does.

    Proj T v_hat is Phi c with (Phi' Xi Phi) c = Phi' Xi T v_hat, solved by
    elimination: the Gram system the package avoids is exact here.
    """
    L, r, weights, cols, _ = _exact_terms(mdp, phi, xi)
    rows = list(zip(*cols))
    v = _exact_solve(L, r)
    v_hat = [_dot(map(Fraction, w), row) for row in rows]
    t_v_hat = [vi - _dot(row, v_hat) + ri for vi, row, ri in zip(v_hat, L, r)]
    xcols = [[x * y for x, y in zip(weights, col)] for col in cols]
    c = _exact_solve([[_dot(x, col) for col in cols] for x in xcols],
                     [_dot(x, t_v_hat) for x in xcols])
    proj_t = [_dot(c, row) for row in rows]
    return tuple(_xi_norm(weights, [a - b for a, b in zip(x, y)])
                 for x, y in ((v, v_hat), (v_hat, proj_t), (v_hat, t_v_hat), (t_v_hat, proj_t)))


def _xi_norm(weights: list, d: list) -> float:
    """||d||_xi, exact up to its square root, taken in float."""
    return math.sqrt(float(sum(x * y * y for x, y in zip(weights, d))))


def exact_bound_test(mdp, phi: FeatureBasis, xi: StateWeights, direction: str):
    """A test of t >= b^2 for the TD ("td", X = Xi Phi) or BR ("br", X = Xi L Phi)
    bound b in exact rational arithmetic; call it with a float t.

    b^2 is the largest eigenvalue of C G^-1, with m = X' L Phi, A = Phi' Xi Phi,
    G = m A^-1 m' and C = X' L Xi^-1 L' X, so the test is that t G - C is positive
    definite: every pivot of its symmetric elimination is positive (Sylvester). The
    float P, r, gamma, Phi and xi are taken as the exact rationals they are.
    """
    L, _, weights, cols, lcols = _exact_terms(mdp, phi, xi)
    xcols = [[x * y for x, y in zip(weights, col)] for col in {"td": cols, "br": lcols}[direction]]
    ltx = [[_dot(col, x) for col in zip(*L)] for x in xcols]             # L' X's columns
    m = [[_dot(x, col) for col in lcols] for x in xcols]
    a = [[_dot([x * y for x, y in zip(weights, c)], d) for d in cols] for c in cols]
    a_inv_mt = [_exact_solve(a, row) for row in m]                       # A^-1 m', by columns
    g = [[_dot(row, col) for col in a_inv_mt] for row in m]
    c = [[_dot([x / w for x, w in zip(y, weights)], z) for z in ltx] for y in ltx]

    def holds(t: float) -> bool:
        rows = [[Fraction(t) * gij - cij for gij, cij in zip(gi, ci)] for gi, ci in zip(g, c)]
        for j in range(len(rows)):
            if rows[j][j] <= 0:
                return False
            for i in range(j + 1, len(rows)):
                f = rows[i][j] / rows[j][j]
                rows[i][j:] = [x - f * y for x, y in zip(rows[i][j:], rows[j][j:])]
        return True

    return holds


def aggregate_loop(records, singular_policy: str = "worst") -> np.recarray:
    """`harness.aggregate` one record at a time: each cell's values are
    gathered in record order into Python lists and averaged by np.mean,
    and each cell becomes one row of a `CELL_DTYPE` record array, in order
    of first appearance."""
    cells = {}
    for rec in records:
        cells.setdefault((float(rec.gamma), int(rec.n), int(rec.k)), []).append(rec)
    out = []
    for (gamma, n, k), recs in cells.items():
        wins, predictions, ratio_td_br, rel_td, rel_br = [], [], [], [], []
        singular = excluded = 0
        for rec in recs:
            if rec.td_singular:
                singular += 1
                if singular_policy == "worst":
                    wins.append(0.0)
                    predictions.append(1.0)
            else:
                td_wins = rec.e_td < rec.e_br
                wins.append(1.0 if td_wins else 0.0)
                predictions.append(1.0 if td_wins == (rec.b_td < rec.b_br) else 0.0)
            if rec.e <= DEGENERATE_RELATIVE_ERROR * rec.v_norm:
                excluded += 1
                continue
            rel_br.append(rec.e_br / rec.e)
            if not rec.td_singular:
                ratio_td_br.append(rec.e_td / rec.e_br)
                rel_td.append(rec.e_td / rec.e)

        def mean(xs):
            return float(np.mean(xs)) if xs else float("nan")

        out.append((gamma, n, k, mean(wins), mean(predictions), mean(ratio_td_br),
                    mean(rel_td), mean(rel_br), singular, excluded))
    return np.array(out, dtype=CELL_DTYPE).view(np.recarray)


def parse_matrix_loop(path: str) -> np.ndarray:
    """A matrix file read one `float()` call per token: the reader that
    `matio.parse_matrix` replaced, with the same messages and line numbers."""
    rows = []
    width = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.replace(",", " ").split()
            try:
                row = [float(tok) for tok in fields]
            except ValueError as exc:
                raise MatrixParseError(path, line_no, f"bad number: {exc}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MatrixParseError(
                    path, line_no, f"row has {len(row)} entries, expected {width}")
            rows.append(row)
    if not rows:
        raise MatrixParseError(path, 0, "file contains no matrix rows")
    return np.array(rows, dtype=float)


def write_csv_format(fh, blocks, fields) -> None:
    """The sweep CSV writer that `matio.write_csv` replaced: each row through
    one `str.format` line of "{!r}" for gamma, "{:.12g}" for every other float
    and "{:d}" fields."""
    fh.write(",".join(fields) + "\r\n")
    for rows in blocks:
        line = ",".join("{!r}" if f == "gamma" else "{:.12g}" if rows.dtype[f].kind == "f"
                        else "{:d}" for f in fields) + "\r\n"
        fh.writelines(line.format(*row) for row in zip(*(rows[f].tolist() for f in fields)))


def write_matrix(path: str, matrix: np.ndarray) -> None:
    """Write a matrix file at 17 significant digits, so that `parse_matrix` reads it back
    bit for bit, nan and inf included."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


@dataclass(frozen=True)
class Example1Weights:
    w_best: float
    w_td: float | None  # None when the TD system is singular
    w_br: float


def example1_weights(gamma: float, theta: float) -> Example1Weights:
    """The closed-form weights of `instances.example1(gamma, theta)`, r = (cos, sin) theta:

      w_best = r1/5 + (2+gamma) r2 / (5(1-gamma))
      w_td   = (r1 + 2 r2) / (5 - 6 gamma)        (None at gamma = 5/6)
      w_br   = ((1-2g) r1 + (2-2g) r2) / ((1-2g)^2 + (2-2g)^2)
    """
    r1, r2 = np.cos(theta), np.sin(theta)
    den_td = 5.0 - 6.0 * gamma
    g1, g2 = 1.0 - 2.0 * gamma, 2.0 - 2.0 * gamma
    return Example1Weights(w_best=r1 / 5.0 + (2.0 + gamma) * r2 / (5.0 * (1.0 - gamma)),
                           w_td=None if den_td == 0.0 else (r1 + 2.0 * r2) / den_td,
                           w_br=(g1 * r1 + g2 * r2) / (g1 * g1 + g2 * g2))


# The paper's performance guarantees, checked by acceptance criteria 7 and 8,
# and the two fixtures they are checked on. The package solves and bounds one
# instance at a time; these state what its solutions must satisfy.


def concentration_coefficient(mdp, xi: StateWeights) -> float:
    """max over (i,j) of p_ij / xi_i, a stochasticity measure of the chain."""
    return float(np.max(mdp.transitions / weight_column(xi, mdp.n_states)))


def br_guarantee(mdp, xi: StateWeights, v_hat: np.ndarray) -> tuple[float, float]:
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


def stationary_td_bound_check(mdp, phi: FeatureBasis,
                              xi_stationary: StateWeights) -> tuple[float, float]:
    """TD error bound under the stationary distribution.

    lhs = ||v - v_td||_xi, rhs = ||v - v_best||_xi / sqrt(1 - gamma^2).
    Requires xi' P = xi' within 1e-8.
    """
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


def stationary_distribution(mdp) -> np.ndarray | None:
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


def block_triangular(k: int, l: int, seed: SeedSpec) -> Instance:
    """(k+l)-state MDP, discount 0.9, whose first k states never reach the last l states.

    The feature space is all of R^k on the first block and a random proper
    subspace on the second, so the first-block value is exactly representable
    while the second generally is not.
    """
    if k < 1 or l < 1:
        raise ValueError("block sizes must be >= 1")
    rng = seed.rng()
    n = k + l
    P = np.zeros((n, n))
    p11 = rng.uniform(size=(k, k))
    P[:k, :k] = p11 / p11.sum(axis=1, keepdims=True)
    p2 = rng.uniform(size=(l, n))
    P[k:, :] = p2 / p2.sum(axis=1, keepdims=True)
    r = rng.uniform(-1.0, 1.0, size=n)
    mdp = make_mdp(P, r, 0.9)

    s2_dim = max(1, l - 1)
    phi_mat = np.zeros((n, k + s2_dim))
    phi_mat[:k, :k] = np.eye(k)
    phi_mat[k:, k:] = rng.uniform(-1.0, 1.0, size=(l, s2_dim))
    phi = make_feature_basis(phi_mat)
    xi = make_state_weights(rng.uniform(_WEIGHT_FLOOR, 1.0, size=n))
    return Instance(mdp, phi, xi)


def ergodic_chain(n: int, gamma: float, seed: SeedSpec):
    """Cyclic chain: state i advances to (i+1) mod n with probability p_i.

    Irreducible and aperiodic, so a strictly positive stationary distribution
    exists; used as the fixture for stationary-distribution TD bounds.
    """
    if n < 2:
        raise ValueError("chain needs at least 2 states")
    rng = seed.rng()
    # keep stay/advance probabilities away from 0 so mixing stays fast
    p = rng.uniform(0.1, 0.9, size=n)
    P = np.zeros((n, n))
    idx = np.arange(n)
    P[idx, (idx + 1) % n] = p
    P[idx, idx] += 1.0 - p
    r = rng.uniform(-1.0, 1.0, size=n)
    return make_mdp(P, r, gamma)
