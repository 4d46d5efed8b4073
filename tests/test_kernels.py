import numpy as np

from projeval import kernels
from projeval.instances import example1


def test_singular_instance_flagged():
    inst = example1(5.0 / 6.0, 1.0)
    out = kernels.trial_stats(inst.mdp.transitions, inst.mdp.rewards, 5.0 / 6.0,
                              inst.phi.matrix, inst.xi.weights)
    assert out[kernels.TD_SINGULAR] == 1.0
    assert np.isnan(out[kernels.E_TD])
    assert np.isnan(out[kernels.B_TD])
    assert np.isfinite(out[kernels.E_BR])


def test_example1_hand_values():
    inst = example1(0.5, 0.0)
    out = kernels.trial_stats(inst.mdp.transitions, inst.mdp.rewards, 0.5,
                              inst.phi.matrix, inst.xi.weights)
    np.testing.assert_allclose(out[kernels.E_BEST], np.sqrt(0.4), rtol=1e-12)
    np.testing.assert_allclose(out[kernels.B_TD], 1.25, rtol=1e-12)
    np.testing.assert_allclose(out[kernels.B_BR], np.sqrt(1.25), rtol=1e-12)

