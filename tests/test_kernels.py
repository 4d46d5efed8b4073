import numpy as np

from projeval import kernels
from projeval.instances import example1

SINGULAR_GAMMA = 5.0 / 6.0


def cell(P, r, gamma, phi, xi):
    """cell_stats of F bases against M chains, the chain terms formed first."""
    L, v = kernels.chain_terms(P, r, gamma)
    return kernels.cell_stats(L, r, v, phi, xi)


def stack_of_one(inst, gamma):
    """cell_stats on a single instance, one basis against one chain; returns its row."""
    return cell(inst.mdp.transitions[None], inst.mdp.rewards[None], gamma,
                inst.phi.matrix[None], inst.xi.weights[None])[0]


def example1_grid(chains, phis, xis):
    """Bases against chains on the two states of example 1 at gamma 5/6.

    A chain is (P, theta) with rewards (cos theta, sin theta); a basis is
    one feature column with its weights. With example 1's chain and
    uniform weights, Phi = (1, 2)' makes the TD system exactly singular
    there; Phi = (1, 1)', other weights or the identity chain do not.
    """
    return (np.array([P for P, _ in chains], dtype=float),
            np.array([[np.cos(t), np.sin(t)] for _, t in chains]),
            SINGULAR_GAMMA,
            np.array(phis, dtype=float)[..., None],
            np.array(xis, dtype=float))


EXAMPLE1_P = [[0, 1], [0, 1]]
IDENTITY_P = [[1, 0], [0, 1]]


def assert_rows_match_stacks_of_one(P, r, gamma, phi, xi):
    """Every (basis, chain) row of the grid equals that pair run alone."""
    out = cell(P, r, gamma, phi, xi)
    n_bases, n_chains = len(phi), len(P)
    assert n_bases >= 2 and n_chains >= 2
    assert out.shape == (n_bases * n_chains, 8)
    for pt in range(n_bases):
        for mt in range(n_chains):
            alone = cell(P[mt:mt + 1], r[mt:mt + 1], gamma, phi[pt:pt + 1], xi[pt:pt + 1])
            np.testing.assert_array_equal(out[pt * n_chains + mt], alone[0])
    return out


def test_singular_instance_flagged():
    inst = example1(5.0 / 6.0, 1.0)
    out = stack_of_one(inst, 5.0 / 6.0)
    assert out[kernels.TD_SINGULAR] == 1.0
    assert np.isnan(out[kernels.E_TD])
    assert np.isnan(out[kernels.B_TD])
    assert np.isfinite(out[kernels.E_BR])


def test_example1_hand_values():
    inst = example1(0.5, 0.0)
    out = stack_of_one(inst, 0.5)
    np.testing.assert_allclose(out[kernels.E_BEST], np.sqrt(0.4), rtol=1e-12)
    np.testing.assert_allclose(out[kernels.B_TD], 1.25, rtol=1e-12)
    np.testing.assert_allclose(out[kernels.B_BR], np.sqrt(1.25), rtol=1e-12)


def test_mixed_singularity_stack_rows_equal_stacks_of_one():
    chains = [(EXAMPLE1_P, 1.0), (IDENTITY_P, 0.3), (EXAMPLE1_P, 2.0), (EXAMPLE1_P, -0.7)]
    phis = [[1, 2], [1, 1], [1, 2]]
    xis = [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]
    out = assert_rows_match_stacks_of_one(*example1_grid(chains, phis, xis))
    np.testing.assert_array_equal(out[:, kernels.TD_SINGULAR],
                                  [1, 0, 1, 1] + [0] * 4 + [0] * 4)
    singular = out[:, kernels.TD_SINGULAR] == 1.0
    assert np.all(np.isnan(out[singular][:, [kernels.E_TD, kernels.B_TD]]))
    assert np.all(np.isfinite(out[~singular][:, [kernels.E_TD, kernels.B_TD]]))
    assert np.all(np.isfinite(out[:, [kernels.E_BEST, kernels.E_BR, kernels.B_BR]]))


def test_all_singular_stack_rows_equal_stacks_of_one():
    chains = [(EXAMPLE1_P, 1.0), (EXAMPLE1_P, 0.3), (EXAMPLE1_P, 2.0)]
    out = assert_rows_match_stacks_of_one(
        *example1_grid(chains, [[1, 2], [2, 4]], [[0.5, 0.5]] * 2))
    assert np.all(out[:, kernels.TD_SINGULAR] == 1.0)
    assert np.all(np.isnan(out[:, [kernels.E_TD, kernels.B_TD]]))
    assert np.all(np.isfinite(out[:, [kernels.E_BEST, kernels.E_BR, kernels.B_BR]]))
