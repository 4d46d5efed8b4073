"""Cell-batched numeric kernel for the benchmark sweep.

One call computes, for a stack of same-shape (P, r, gamma, Phi, xi)
instances (the trials of one sweep cell), the best / TD / BR errors and the
two spectral-radius bounds of each. Every step is a stacked numpy call that
loops over the leading axis, so a row equals, bit for bit, the same instance
run as a stack of one. TD and BR are the oblique solve (X' L Phi) w = X' r
with X = Xi Phi and X = Xi L Phi, both through one direction helper; only
the TD systems that pass the gate of `projections.projected_system` are
solved, while the BR system, a Gram matrix of the independent columns of
L Phi, is not gated. The sweep's CSVs are compared byte for byte against
earlier runs, so the operation order of every written column is fixed,
including the operand order of the BR system.
"""

from __future__ import annotations

import numpy as np

from .analysis import amplification_bound, c_matrix, psd_sqrt
from .projections import projected_system

BACKEND = "numpy"

# result row layout
E_BEST, E_TD, E_BR, B_TD, B_BR, COND_TD, TD_SINGULAR, V_NORM = range(8)


def _xi_norm(xi, d):
    return np.sqrt(np.sum(xi * d * d, axis=-1))


def _direction(L, r, v, phi, xi, a_half, m, x):
    """Errors and bounds of the oblique solves m w = X' r, with m = X' L Phi."""
    w = np.linalg.solve(m, x.swapaxes(-1, -2) @ r[..., None])
    return (_xi_norm(xi, v - (phi @ w)[..., 0]),
            amplification_bound(a_half, np.linalg.inv(m), c_matrix(L, x, xi)))


def cell_stats(P, r, gamma, phi, xi):
    """Errors and bounds for a stack of B instances with n states, k features.

    P is (B, n, n), r and xi are (B, n), phi is (B, n, k). Returns a (B, 8)
    array whose rows are (e, e_td, e_br, b_td, b_br, cond_td, singular flag,
    ||v||_xi); e_td and b_td are NaN where the TD system is singular.
    """
    L = np.eye(P.shape[-1]) - gamma * P
    v = np.linalg.solve(L, r[..., None])[..., 0]

    xi_col = xi[..., None]
    xiphi = phi * xi_col                 # Xi Phi
    lphi = L @ phi                       # L Phi
    a = phi.swapaxes(-1, -2) @ xiphi     # Phi' Xi Phi

    w_best = np.linalg.solve(a, xiphi.swapaxes(-1, -2) @ v[..., None])
    out = np.full((len(r), 8), np.nan)
    out[:, E_BEST] = _xi_norm(xi, v - (phi @ w_best)[..., 0])
    out[:, V_NORM] = _xi_norm(xi, v)
    a_half = psd_sqrt(a)
    del a, w_best  # dropped early: a cell's stacks set the sweep's peak memory

    m_td, out[:, COND_TD], status = projected_system(xiphi, lphi)
    regular = status == "ok"
    out[:, TD_SINGULAR] = ~regular
    # boolean-mask copies only when some TD system is singular
    td = slice(None) if regular.all() else regular
    out[td, E_TD], out[td, B_TD] = _direction(
        L[td], r[td], v[td], phi[td], xi[td], a_half[td], m_td[td], xiphi[td])
    del m_td, xiphi

    xilphi = lphi * xi_col               # Xi L Phi
    out[:, E_BR], out[:, B_BR] = _direction(L, r, v, phi, xi, a_half,
                                            lphi.swapaxes(-1, -2) @ xilphi, xilphi)
    return out
