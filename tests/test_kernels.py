import numpy as np

from projeval import kernels
from projeval.instances import example1

SINGULAR_GAMMA = 5.0 / 6.0


def stack_of_one(inst, gamma):
    """cell_stats on a single instance, as a stack of one; returns its row."""
    return kernels.cell_stats(inst.mdp.transitions[None], inst.mdp.rewards[None], gamma,
                              inst.phi.matrix[None], inst.xi.weights[None])[0]


def example1_stack(phis, thetas):
    """Example 1 at gamma 5/6 with the given one-feature columns and reward angles.

    Phi = (1, 2)' makes the TD system exactly singular there, Phi = (1, 1)'
    does not.
    """
    insts = [example1(SINGULAR_GAMMA, theta) for theta in thetas]
    return (np.stack([i.mdp.transitions for i in insts]),
            np.stack([i.mdp.rewards for i in insts]),
            SINGULAR_GAMMA,
            np.array(phis, dtype=float)[..., None],
            np.stack([i.xi.weights for i in insts]))


def assert_rows_match_stacks_of_one(P, r, gamma, phi, xi):
    out = kernels.cell_stats(P, r, gamma, phi, xi)
    assert out.shape == (len(r), 8)
    for i in range(len(r)):
        alone = kernels.cell_stats(P[i:i + 1], r[i:i + 1], gamma, phi[i:i + 1], xi[i:i + 1])
        np.testing.assert_array_equal(out[i], alone[0])
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
    phis = [[1, 2], [1, 1], [1, 2], [1, 1], [1, 1]]
    out = assert_rows_match_stacks_of_one(*example1_stack(phis, [1.0, 1.0, 0.3, 2.0, -0.7]))
    np.testing.assert_array_equal(out[:, kernels.TD_SINGULAR], [1, 0, 1, 0, 0])
    singular = out[:, kernels.TD_SINGULAR] == 1.0
    assert np.all(np.isnan(out[singular][:, [kernels.E_TD, kernels.B_TD]]))
    assert np.all(np.isfinite(out[~singular][:, [kernels.E_TD, kernels.B_TD]]))
    assert np.all(np.isfinite(out[:, [kernels.E_BEST, kernels.E_BR, kernels.B_BR]]))


def test_all_singular_stack_rows_equal_stacks_of_one():
    out = assert_rows_match_stacks_of_one(*example1_stack([[1, 2]] * 3, [1.0, 0.3, 2.0]))
    assert np.all(out[:, kernels.TD_SINGULAR] == 1.0)
    assert np.all(np.isnan(out[:, [kernels.E_TD, kernels.B_TD]]))
    assert np.all(np.isfinite(out[:, [kernels.E_BEST, kernels.E_BR, kernels.B_BR]]))
