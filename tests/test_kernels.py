import numpy as np
import pytest

from projeval import FeatureBasis, StateWeights, harness, kernels, make_mdp, projections
from projeval.instances import example1

SINGULAR_GAMMA = 5.0 / 6.0

# the fields cell_stats writes: every trial field after the five keys
KERNEL_FIELDS = harness.TRIAL_DTYPE.names[5:]


def cell(P, r, gamma, phi, xi, out=None):
    """cell_stats of F bases against M chains, the bases and weights taken as given, on
    a zeroed (F, M) block of trial records (or `out`); returns the block flattened."""
    if out is None:
        out = np.zeros((len(phi), len(P)), dtype=harness.TRIAL_DTYPE)
    kernels.cell_stats(make_mdp(P, r, gamma, stack=True), FeatureBasis(phi),
                       StateWeights(xi), out)
    return out.reshape(-1)


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
    assert out.shape == (n_bases * n_chains,)
    for pt in range(n_bases):
        for mt in range(n_chains):
            (alone,) = cell(P[mt:mt + 1], r[mt:mt + 1], gamma, phi[pt:pt + 1], xi[pt:pt + 1])
            for field in KERNEL_FIELDS:  # NaN equal to NaN
                np.testing.assert_array_equal(out[pt * n_chains + mt][field], alone[field],
                                              err_msg=field, strict=True)
    return out


def test_singular_instance_flagged():
    inst = example1(5.0 / 6.0, 1.0)
    out = stack_of_one(inst, 5.0 / 6.0)
    assert out[kernels.TD_SINGULAR]
    assert np.isnan(out["e_td"])
    assert np.isnan(out["b_td"])
    assert np.isfinite(out["e_br"])


def test_example1_hand_values():
    inst = example1(0.5, 0.0)
    out = stack_of_one(inst, 0.5)
    np.testing.assert_allclose(out["e"], np.sqrt(0.4), rtol=1e-12)
    np.testing.assert_allclose(out["b_td"], 1.25, rtol=1e-12)
    np.testing.assert_allclose(out["b_br"], np.sqrt(1.25), rtol=1e-12)


def test_mixed_singularity_stack_rows_equal_stacks_of_one():
    chains = [(EXAMPLE1_P, 1.0), (IDENTITY_P, 0.3), (EXAMPLE1_P, 2.0), (EXAMPLE1_P, -0.7)]
    phis = [[1, 2], [1, 1], [1, 2]]
    xis = [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]
    out = assert_rows_match_stacks_of_one(*example1_grid(chains, phis, xis))
    singular = out[kernels.TD_SINGULAR]
    np.testing.assert_array_equal(singular, [1, 0, 1, 1] + [0] * 4 + [0] * 4)
    for field in ("e_td", "b_td"):
        assert np.all(np.isnan(out[field][singular]))
        assert np.all(np.isfinite(out[field][~singular]))
    for field in ("e", "e_br", "b_br"):
        assert np.all(np.isfinite(out[field]))


def test_all_singular_stack_rows_equal_stacks_of_one():
    chains = [(EXAMPLE1_P, 1.0), (EXAMPLE1_P, 0.3), (EXAMPLE1_P, 2.0)]
    out = assert_rows_match_stacks_of_one(
        *example1_grid(chains, [[1, 2], [2, 4]], [[0.5, 0.5]] * 2))
    assert np.all(out[kernels.TD_SINGULAR])
    for field in ("e_td", "b_td"):
        assert np.all(np.isnan(out[field]))
    for field in ("e", "e_br", "b_br"):
        assert np.all(np.isfinite(out[field]))


# state 2 returns to state 1 with probability 0.6: at gamma 5/6, with Phi = (1, 3/2)' and
# weights (3/4, 1/4), Xi Phi = (3/4, 3/8)' and L Phi = (-1/4, 1/2)', so the TD system is
# exactly 0, in floats too; example 1's own system there rounds to -1.1e-16
RETURN_P = [[0, 1], [0.6, 0.4]]


def td_estimates(P, gamma, phi, xi):
    """The TD gate's rule, ||Xi Phi||_F ||L Phi||_F / sigma_min(Phi' Xi L Phi), and the TD
    systems, for every (basis, chain) pair, by the SVD of each system."""
    L = np.eye(P.shape[-1]) - gamma * P
    xiphi = (xi[..., None] * phi)[:, None]
    lphi = L @ phi[:, None]
    m = xiphi.swapaxes(-1, -2) @ lphi
    s_min = np.linalg.svd(m, compute_uv=False)[..., -1]
    norms = np.linalg.norm(xiphi, axis=(-2, -1)) * np.linalg.norm(lphi, axis=(-2, -1))
    with np.errstate(divide="ignore"):
        return (norms / s_min).reshape(-1), m


@pytest.mark.parametrize("chains", [
    [(EXAMPLE1_P, 1.0), (IDENTITY_P, 0.3), (RETURN_P, 2.0)],
    [(EXAMPLE1_P, 1.0), (IDENTITY_P, 0.3)],
], ids=["exactly-singular", "no-exact-zero"])
def test_gate_certificate_and_fallback_equal_the_svd_rule(chains):
    # against example 1's chain, Phi = (1, 2 + 1e-9)' sits at an estimate of 1e10, inside
    # the limit but past the SVD-free certificate's margin, so it takes the SVD and stays
    # regular; Phi = (1, 2)' sits past the limit. An exactly singular member makes the
    # stack's inverse raise, so the whole stack takes the SVD; a stack of one does not
    phis = [[1, 2], [1, 2 + 1e-9], [1, 1], [1, 1.5]]
    xis = [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.75, 0.25]]
    grid = example1_grid(chains, phis, xis)
    out = assert_rows_match_stacks_of_one(*grid)
    P, _, gamma, phi, xi = grid
    estimates, m = td_estimates(P, gamma, phi, xi)
    np.testing.assert_array_equal(out[kernels.TD_SINGULAR],
                                  ~(estimates <= projections.SINGULAR_CONDITION_LIMIT))
    assert np.any(estimates <= 1e6)
    assert np.any((1e9 < estimates) & (estimates <= projections.SINGULAR_CONDITION_LIMIT))
    assert np.any(projections.SINGULAR_CONDITION_LIMIT < estimates)
    assert np.any(m == 0) == (len(chains) == 3)
    for field in ("e_td", "b_td"):
        np.testing.assert_array_equal(np.isnan(out[field]), out[kernels.TD_SINGULAR])
        # when the stack's inverse raises, its infinite stand-in reaches no regular row
        assert np.all(np.isfinite(out[field][~out[kernels.TD_SINGULAR]]))


def test_every_kernel_field_overwritten():
    # a block of sentinels, on a grid whose TD trials are all regular: every field from
    # e to v_norm must be written, so a trial field the kernel misses fails here
    chains = [(EXAMPLE1_P, 1.0), (IDENTITY_P, 0.3)]
    P, r, gamma, phi, xi = example1_grid(chains, [[1, 1], [1, 3]], [[0.5, 0.5], [0.25, 0.75]])
    out = np.zeros((len(phi), len(P)), dtype=harness.TRIAL_DTYPE)
    sentinels = {field: True if out.dtype[field] == np.bool_ else -1.0
                 for field in KERNEL_FIELDS}
    for field, sentinel in sentinels.items():
        out[field] = sentinel
    out = cell(P, r, gamma, phi, xi, out)
    assert not np.any(out[kernels.TD_SINGULAR])
    for field, sentinel in sentinels.items():
        assert np.all(out[field] != sentinel), field
