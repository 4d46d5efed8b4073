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

TD is `projected_solve`, which gates its system and gives a singular one
NaN weights; every error is `weighted_norm` and every bound
`amplification_bound`. These normal-equation helpers, and the best and BR
solves, are the kernel's alone: the library's solvers and `error_bound` go
through `projections.oblique_solve`, and the BR solve is not gated. The sweep's
CSVs are compared byte for byte against earlier runs, so their operand orders,
Phi'(Xi Phi) and (L Phi)'(Xi L Phi), are fixed like every other operation order.
"""

from __future__ import annotations

import numpy as np

from .analysis import amplification_bound, psd_sqrt
from .mdp import Mdp, exact_value, l_matrix
from .projections import FeatureBasis, StateWeights, projected_solve, row_weighted, weighted_norm

BACKEND = "numpy"

TD_SINGULAR = "td_singular"  # the field of the singular-TD flag


def _solve(m, x, b):
    """w with m w = X' b per member, ungated."""
    return np.linalg.solve(m, x.swapaxes(-1, -2) @ b[..., None])[..., 0]


def cell_stats(chains: Mdp, bases: FeatureBasis, weights: StateWeights, out: np.ndarray) -> None:
    """Errors and bounds of every pair of a stack of F bases and weights with a stack of
    M chains, written into the fields e to v_norm of `out`, an (F, M) block of
    `harness.TRIAL_DTYPE` records; e_td and b_td are NaN where TD is singular."""
    L, r, v = l_matrix(chains), chains.rewards, exact_value(chains)  # (M, n, n) and (M, n)
    phi = bases.matrix[:, None]                   # (F, 1, n, k)
    xi = StateWeights(weights.weights[:, None])   # (F, 1, n)
    xiphi = row_weighted(xi, phi)                 # Xi Phi
    a = phi.swapaxes(-1, -2) @ xiphi              # Phi' Xi Phi
    a_half = psd_sqrt(a)
    lphi = L @ phi                                # L Phi, one per pair from here on

    def error(w):
        return weighted_norm(v - (phi @ w[..., None])[..., 0], xi)

    out["v_norm"] = weighted_norm(v, xi)
    out["e"] = error(_solve(a, xiphi, v))

    w_td, m_td, _, status = projected_solve(xiphi, lphi, r)
    out[TD_SINGULAR] = singular = status != "ok"
    out["e_td"] = error(w_td)
    out["b_td"] = np.where(singular, np.nan, amplification_bound(a_half, m_td, L, xiphi, xi))

    xilphi = row_weighted(xi, lphi)               # Xi L Phi
    m_br = lphi.swapaxes(-1, -2) @ xilphi
    out["e_br"] = error(_solve(m_br, xilphi, r))
    out["b_br"] = amplification_bound(a_half, m_br, L, xilphi, xi)
