"""Factored numeric kernel for the benchmark sweep.

A sweep cell crosses F bases (Phi, xi) with M chains (P, r). Each term is
computed once per the inputs it depends on: L = I - gamma P and v = L^-1 r
once per chain (`l_matrix` and `exact_value` keep them on the column's
stack of chains), Xi Phi, A = Phi' Xi Phi and A^1/2 once per basis, and
only the pair terms (L Phi, the TD and BR systems, the errors and the
bounds) once per trial. Bases and weights enter as (F, 1, ...) stacks against the
(M, ...) chains, so the library's stacked calls broadcast them into the
(F, M) trial grid, whose record block each result fills by field name, and
a row equals, bit for bit, its trial run alone.

Best solves the Gram system A; TD solves (Xi Phi)'(L Phi), singular past
SINGULAR_CONDITION_LIMIT on a cancellation-aware condition estimate; BR solves
(L Phi)'(Xi L Phi), ungated; each bound is `_bound`, inexact for BR (ROADMAP item
11). The sweep's CSVs are compared byte for byte against earlier runs, so every
operand and operation order behind the errors and bounds is fixed; the TD gate's
estimate is only compared with the limit, so its norms set the flag alone.
"""

from __future__ import annotations

import numpy as np

from .mdp import Mdp, exact_value, l_matrix
from .projections import (SINGULAR_CONDITION_LIMIT, FeatureBasis, StateWeights, row_weighted,
                          weighted_norm)

BACKEND = "numpy"

TD_SINGULAR = "td_singular"  # the field of the singular-TD flag


def _psd_sqrt(a):
    """Symmetric square root per PSD matrix, negative eigenvalues clipped."""
    lam, vec = np.linalg.eigh(a)
    return (vec * np.sqrt(np.maximum(lam, 0.0))[..., None, :]) @ vec.swapaxes(-1, -2)


def _solve(m, x, b):
    """w with m w = X' b per member, ungated."""
    return np.linalg.solve(m, x.swapaxes(-1, -2) @ b[..., None])[..., 0]


def _bound(a_half, m, L, x, xi):
    """sqrt(lambda_max(A^1/2 B C B' A^1/2)) per member, from A^1/2 and the system
    m = X' L Phi, with B = m^-1 and C = X' L Xi^-1 L' X; the symmetric form
    avoids complex eigensolvers."""
    b = np.linalg.inv(m)
    ltx = L.swapaxes(-1, -2) @ x
    c = (ltx / xi.weights[..., None]).swapaxes(-1, -2) @ ltx
    sym = a_half @ (b @ c @ b.swapaxes(-1, -2)) @ a_half
    sym = sym + sym.swapaxes(-1, -2)
    sym *= 0.5
    return np.sqrt(np.maximum(np.max(np.linalg.eigvalsh(sym), axis=-1), 0.0))


def cell_stats(chains: Mdp, bases: FeatureBasis, weights: StateWeights, out: np.ndarray) -> None:
    """Errors and bounds of every pair of a stack of F bases and weights with a stack of
    M chains, written into the fields e to v_norm of `out`, an (F, M) block of
    `harness.TRIAL_DTYPE` records; e_td and b_td are NaN where TD is singular."""
    L, r, v = l_matrix(chains), chains.rewards, exact_value(chains)  # (M, n, n) and (M, n)
    phi = bases.matrix[:, None]                   # (F, 1, n, k)
    xi = StateWeights(weights.weights[:, None])   # (F, 1, n)
    xiphi = row_weighted(xi, phi)                 # Xi Phi
    a = phi.swapaxes(-1, -2) @ xiphi              # Phi' Xi Phi
    a_half = _psd_sqrt(a)
    lphi = L @ phi                                # L Phi, one per pair from here on

    def error(w):
        return weighted_norm(v - (phi @ w[..., None])[..., 0], xi)

    out["v_norm"] = weighted_norm(v, xi)
    out["e"] = error(_solve(a, xiphi, v))

    # TD is singular past the limit on ||Xi Phi||_F ||L Phi||_F / sigma_min(m), which
    # catches a tiny m from cancellation; the identity stands in for its m, w is NaN
    m_td = xiphi.swapaxes(-1, -2) @ lphi
    s_min = np.linalg.svd(m_td, compute_uv=False)[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.linalg.norm(xiphi, axis=(-2, -1)) * np.linalg.norm(lphi, axis=(-2, -1)) / s_min
    out[TD_SINGULAR] = singular = ~(cond <= SINGULAR_CONDITION_LIMIT)
    m_td[singular] = np.eye(m_td.shape[-1])
    w_td = _solve(m_td, xiphi, r)
    w_td[singular] = np.nan
    out["e_td"] = error(w_td)
    out["b_td"] = np.where(singular, np.nan, _bound(a_half, m_td, L, xiphi, xi))

    xilphi = row_weighted(xi, lphi)               # Xi L Phi
    m_br = lphi.swapaxes(-1, -2) @ xilphi
    out["e_br"] = error(_solve(m_br, xilphi, r))
    out["b_br"] = _bound(a_half, m_br, L, xilphi, xi)
