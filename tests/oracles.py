"""Reference implementations the tests compare the package against.

Coefficient maps of (oblique) projections as explicit m x N matrices, the
projector norm computed from them through small m x m products, the
matrices A, B and C of the amplification bound, a full-size
singular-value oracle for induced xi-operator norms, the matrix-free L
and L' products, a record-by-record loop over a sweep's cells, a
token-by-token matrix file reader, a 17-digit matrix file writer and a
`str.format` CSV writer. The package itself needs none of these; they
exist to cross-check its solvers, bounds and statistics by an independent
route.
"""

from dataclasses import dataclass

import numpy as np

from projeval.harness import CELL_DTYPE, DEGENERATE_ERROR, DEGENERATE_RELATIVE_ERROR
from projeval.matio import MatrixParseError
from projeval.projections import FeatureBasis, StateWeights, projected_system


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
    """(left' right)^-1 left', raising when the package's gate calls it singular."""
    M, cond, status = projected_system(left, right)
    if status != "ok":
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
            if rec.e <= max(DEGENERATE_ERROR, DEGENERATE_RELATIVE_ERROR * rec.v_norm):
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
    one `str.format` line of "{:.12g}" and "{:d}" fields."""
    fh.write(",".join(fields) + "\r\n")
    for rows in blocks:
        line = ",".join("{:.12g}" if rows.dtype[f].kind == "f" else "{:d}"
                        for f in fields) + "\r\n"
        fh.writelines(line.format(*row) for row in zip(*(rows[f].tolist() for f in fields)))


def write_matrix(path: str, matrix: np.ndarray) -> None:
    """Write a matrix file at 17 significant digits, so that `parse_matrix` reads it back
    bit for bit, nan and inf included."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")
