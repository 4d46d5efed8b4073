"""Per-trial numeric kernel for the benchmark sweep.

One call computes, for a single (P, r, gamma, Phi, xi) instance, the best /
TD / BR approximation errors and the two spectral-radius bounds. TD and BR
are the oblique solve (X' L Phi) w = X' r with X = Xi Phi and X = Xi L Phi,
so both go through one direction helper. The TD system passes the
singularity gate of `projections.projected_system`; the BR system is a
Gram matrix of the independent columns of L Phi and is not gated. Both
bounds use `analysis.c_matrix` and `analysis.amplification_bound`.

The sweep's CSVs are compared byte for byte against earlier runs, so the
operation order of every written column is fixed, including the operand
order of the BR system.
"""

from __future__ import annotations

import numpy as np

from .analysis import amplification_bound, c_matrix, psd_sqrt
from .projections import projected_system

BACKEND = "numpy"

# result vector layout
E_BEST, E_TD, E_BR, B_TD, B_BR, COND_TD, TD_SINGULAR, V_NORM = range(8)


def _direction(L, r, v, phi, xi, a_half, m, x):
    """Error and bound of the oblique solve m w = X' r, with m = X' L Phi."""
    w = np.linalg.solve(m, x.T @ r)
    d = v - phi @ w
    return (np.sqrt(np.sum(xi * d * d)),
            amplification_bound(a_half, np.linalg.inv(m), c_matrix(L, x, xi)))


def trial_stats(P, r, gamma, phi, xi):
    """Errors and bounds for one instance.

    Returns a length-8 vector (e, e_td, e_br, b_td, b_br, cond_td, singular
    flag, ||v||_xi); e_td and b_td are NaN when the TD system is singular.
    """
    n = P.shape[0]
    L = np.eye(n) - gamma * P
    v = np.linalg.solve(L, r)

    xi_col = xi.reshape(n, 1)
    xiphi = phi * xi_col                 # Xi Phi
    lphi = L @ phi                       # L Phi
    xilphi = lphi * xi_col               # Xi L Phi
    a = phi.T @ xiphi                    # Phi' Xi Phi

    w_best = np.linalg.solve(a, xiphi.T @ v)
    d = v - phi @ w_best
    a_half = psd_sqrt(a)

    out = np.full(8, np.nan)
    out[E_BEST] = np.sqrt(np.sum(xi * d * d))
    out[V_NORM] = np.sqrt(np.sum(xi * v * v))

    m_td, out[COND_TD], status = projected_system(xiphi, lphi)
    out[TD_SINGULAR] = status != "ok"
    if status == "ok":
        out[E_TD], out[B_TD] = _direction(L, r, v, phi, xi, a_half, m_td, xiphi)
    out[E_BR], out[B_BR] = _direction(L, r, v, phi, xi, a_half, lphi.T @ xilphi, xilphi)
    return out
