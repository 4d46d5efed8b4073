"""Factored numeric kernel for the benchmark sweep.

A sweep cell crosses F bases (Phi, xi) with M chains (P, r). Each term is
computed once per the inputs it depends on: the chain terms L = I - gamma P
and v = L^-1 r once per chain (`chain_terms`, once per (gamma, n) column of
the sweep), the basis terms Xi Phi, A = Phi' Xi Phi and A^1/2 once per
basis, and only the pair terms (L Phi, the TD and BR systems, the errors,
C and the bounds) once per trial. Chains enter `cell_stats` as (1, M, ...)
stacks and bases as (F, 1, ...) stacks, so numpy's stacked calls broadcast
them into the (F, M) trial grid; each trial's matrices are the ones a
stack of one would see, so a row equals, bit for bit, the same instance
run alone.

TD and BR are the oblique solve (X' L Phi) w = X' r with X = Xi Phi and
X = Xi L Phi, both through one direction helper. A TD system that fails
the gate of `projections.projected_system` gets NaN errors and bounds; the
BR system, a Gram matrix of the independent columns of L Phi, is not gated.
The sweep's CSVs are compared byte for byte against earlier runs, so the
operation order of every written column is fixed, including the operand
order of the BR system.
"""

from __future__ import annotations

import numpy as np

from .analysis import amplification_bound, c_matrix, psd_sqrt
from .projections import projected_system

BACKEND = "numpy"

# result row layout: the fields e to v_norm of harness.TRIAL_DTYPE, then cond_td
E_BEST, E_TD, E_BR, B_TD, B_BR, TD_SINGULAR, V_NORM, COND_TD = range(8)


def _xi_norm(xi, d):
    return np.sqrt(np.sum(xi * d * d, axis=-1))


def _direction(L, r, v, phi, xi, a_half, m, x):
    """Errors and bounds of the oblique solves m w = X' r, with m = X' L Phi."""
    w = np.linalg.solve(m, x.swapaxes(-1, -2) @ r[..., None])
    return (_xi_norm(xi, v - (phi @ w)[..., 0]),
            amplification_bound(a_half, np.linalg.inv(m), c_matrix(L, x, xi)))


def chain_terms(P, r, gamma):
    """L = I - gamma P and v = L^-1 r of M chains: P is (M, n, n), r is (M, n)."""
    L = np.eye(P.shape[-1]) - gamma * P
    return L, np.linalg.solve(L, r[..., None])[..., 0]


def cell_stats(L, r, v, phi, xi):
    """Errors and bounds of every pair of F bases with M chains.

    L is (M, n, n) and r and v are (M, n), as from `chain_terms`; phi is
    (F, n, k) and xi is (F, n). Returns an (F*M, 8) array in (basis, chain)
    order whose rows are (e, e_td, e_br, b_td, b_br, singular flag, ||v||_xi,
    cond_td); e_td and b_td are NaN where the TD system is singular.
    """
    L, r, v = L[None], r[None], v[None]  # (1, M, n, n) and (1, M, n)
    phi, xi = phi[:, None], xi[:, None]  # (F, 1, n, k) and (F, 1, n)
    xi_col = xi[..., None]
    xiphi = phi * xi_col                 # Xi Phi
    a = phi.swapaxes(-1, -2) @ xiphi     # Phi' Xi Phi
    a_half = psd_sqrt(a)
    lphi = L @ phi                       # L Phi, one per pair from here on

    w_best = np.linalg.solve(a, xiphi.swapaxes(-1, -2) @ v[..., None])
    out = np.full(lphi.shape[:2] + (8,), np.nan)
    out[..., E_BEST] = _xi_norm(xi, v - (phi @ w_best)[..., 0])
    out[..., V_NORM] = _xi_norm(xi, v)

    m_td, out[..., COND_TD], status = projected_system(xiphi, lphi)
    singular = status != "ok"
    out[..., TD_SINGULAR] = singular
    m_td[singular] = np.eye(m_td.shape[-1])  # a stand-in, so the stacked solve cannot fail
    out[..., E_TD], out[..., B_TD] = _direction(L, r, v, phi, xi, a_half, m_td, xiphi)
    out[singular, E_TD] = out[singular, B_TD] = np.nan

    xilphi = lphi * xi_col               # Xi L Phi
    out[..., E_BR], out[..., B_BR] = _direction(L, r, v, phi, xi, a_half,
                                                lphi.swapaxes(-1, -2) @ xilphi, xilphi)
    return out.reshape(-1, 8)
