import re

import numpy as np
import pytest

from projeval import (
    StateWeights,
    make_feature_basis,
    make_state_weights,
    weighted_norm,
)
from projeval.instances import SeedSpec, example1
from projeval.mdp import l_matrix
from projeval.projections import projected_solve, row_weighted

from conftest import random_instance
from oracles import (
    SingularMatrixError,
    concentration_coefficient,
    ergodic_chain,
    oblique_coefficient_map,
    operator_norm_oracle,
    orthogonal_coefficient_map,
    projector_weighted_norm,
    spectral_radius,
    stationary_distribution,
)


def uniform_weights(n):
    return make_state_weights(np.full(n, 1.0 / n))


class TestConstructors:
    def test_feature_basis_rejects_dependent_columns(self):
        with pytest.raises(ValueError, match="independent"):
            make_feature_basis([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])

    def test_feature_basis_rejects_wide(self):
        with pytest.raises(ValueError, match="m <= N"):
            make_feature_basis(np.ones((2, 3)))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            make_state_weights([0.5, 0.0, 0.5])

    def test_weights_whose_sum_overflows_rejected(self):
        # the sum overflows; a RuntimeWarning fails the tests
        with pytest.raises(ValueError, match="positive finite sum"):
            make_state_weights([1e300, np.finfo(float).max])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            make_feature_basis([[1.0, 0.0], [0.0, bad], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            make_state_weights([0.5, bad, 0.5])

    @pytest.mark.parametrize("shape", [(), (2, 2), (1, 3)])
    def test_weights_must_be_a_vector(self, shape):
        with pytest.raises(ValueError, match="vector"):
            make_state_weights(np.ones(shape))

    def test_weights_normalized(self):
        xi = make_state_weights([2.0, 2.0])
        np.testing.assert_allclose(xi.weights, [0.5, 0.5])

    def test_stack_failure_names_first_bad_member(self):
        phi = np.tile(np.eye(3)[:, :2], (4, 1, 1))
        phi[3, 0, 0] = phi[1, 2, 1] = np.nan
        with pytest.raises(ValueError, match="^feature matrix 1 has non-finite entries$"):
            make_feature_basis(phi, stack=True)
        phi[1, 2, 1] = phi[3, 0, 0] = 0.0
        phi[2, :, 1] = phi[3, :, 1] = phi[2, :, 0]
        with pytest.raises(ValueError, match="^feature columns 2 are not linearly"):
            make_feature_basis(phi, stack=True)
        xi = np.ones((3, 2))
        xi[2, 1] = xi[1, 0] = 0.0
        with pytest.raises(ValueError, match="^state weights 1 must be strictly positive$"):
            make_state_weights(xi, stack=True)

    def test_stack_equals_its_members(self):
        rng = np.random.default_rng(5)
        phi, xi = rng.uniform(-1.0, 1.0, (6, 5, 3)), rng.uniform(1e-3, 1.0, (6, 5))
        np.testing.assert_array_equal(make_state_weights(xi, stack=True).weights,
                                      [make_state_weights(w).weights for w in xi], strict=True)
        stack = make_feature_basis(phi, stack=True)
        assert (stack.n_states, stack.dim) == (5, 3) and not stack.matrix.flags.writeable
        np.testing.assert_array_equal(stack.matrix, phi, strict=True)

    @pytest.mark.parametrize("stack", [False, True])
    def test_stack_flag_sets_the_dimensions(self, stack):
        with pytest.raises(ValueError, match="expected F x N x m" if stack else "expected N x m"):
            make_feature_basis(np.ones((2, 3, 2) if not stack else (3, 2)), stack=stack)
        message = "must be a vector stack" if stack else "must be a vector,"
        with pytest.raises(ValueError, match=message):
            make_state_weights(np.ones((2, 3) if not stack else 3), stack=stack)


class TestWeightedNorm:
    def test_unit_vector(self):
        xi = uniform_weights(2)
        assert weighted_norm(np.array([1.0, 0.0]), xi) == pytest.approx(np.sqrt(0.5))

    def test_zero(self):
        assert weighted_norm(np.zeros(3), uniform_weights(3)) == 0.0

    def test_three_four(self):
        xi = uniform_weights(2)
        assert weighted_norm(np.array([3.0, 4.0]), xi) == pytest.approx(np.sqrt(12.5))

    def test_dimension_mismatch(self):
        for v, n in ((np.zeros(3), 2), (np.zeros((3, 1)), 3)):
            with pytest.raises(ValueError, match=re.escape(f"vector has shape {v.shape}")):
                weighted_norm(v, uniform_weights(n))


def members(F, M):
    return [(f, m) for f in range(F) for m in range(M)]


class TestStackedHelpers:
    """On an (F, M) stack each helper gives, bit for bit, what it gives on each member alone."""

    def test_weighted_norm(self, rng):
        xi = make_state_weights(rng.uniform(0.1, 1.0, size=(3, 13)), stack=True)
        v = rng.normal(size=(3, 4, 13))
        norms = weighted_norm(v, StateWeights(xi.weights[:, None]))
        assert norms.shape == (3, 4)
        for f, m in members(3, 4):
            alone = weighted_norm(v[f, m], StateWeights(xi.weights[f]))
            assert type(alone) is float and norms[f, m] == alone

    def test_row_weighted(self, rng):
        xi = make_state_weights(rng.uniform(0.1, 1.0, size=(3, 7)), stack=True)
        mats = rng.normal(size=(3, 4, 7, 2))
        stacked = row_weighted(StateWeights(xi.weights[:, None]), mats)
        for f, m in members(3, 4):
            np.testing.assert_array_equal(
                stacked[f, m], row_weighted(StateWeights(xi.weights[f]), mats[f, m]), strict=True)

    def test_projected_solve(self, rng):
        left = rng.normal(size=(3, 1, 9, 4))   # broadcast against 4 right factors each
        right = rng.normal(size=(3, 4, 9, 4))
        b = rng.normal(size=(4, 9))
        right[1, 2, :, 3] = right[1, 2, :, 0]  # only member (1, 2) is singular
        w, M, cond, status = projected_solve(left, right, b)
        assert w.shape == (3, 4, 4) and M.shape == (3, 4, 4, 4)
        assert [fm for fm in members(3, 4) if status[fm] != "ok"] == [(1, 2)]
        assert np.isnan(w[1, 2]).all() and np.array_equal(M[1, 2], np.eye(4))
        for f, m in members(3, 4):
            alone = projected_solve(left[f, 0], right[f, m], b[m])
            assert alone[2:] == (cond[f, m], status[f, m])
            np.testing.assert_array_equal(w[f, m], alone[0], strict=True)
            np.testing.assert_array_equal(M[f, m], alone[1], strict=True)


class TestOrthogonalMap:
    def test_two_state_hand_value(self):
        inst = example1(0.9, 0.0)
        pi = orthogonal_coefficient_map(inst.phi, inst.xi)
        np.testing.assert_allclose(pi.matrix, [[0.2, 0.4]], atol=1e-12)

    def test_identity_basis(self, rng):
        phi = make_feature_basis(np.eye(4))
        xi = make_state_weights(rng.uniform(0.1, 1.0, size=4))
        pi = orthogonal_coefficient_map(phi, xi)
        np.testing.assert_allclose(pi.matrix, np.eye(4), atol=1e-12)

    def test_rank_one_formula(self, rng):
        col = rng.normal(size=6)
        phi = make_feature_basis(col)
        xi = make_state_weights(rng.uniform(0.1, 1.0, size=6))
        expected = (col * xi.weights) / (col @ (xi.weights * col))
        pi = orthogonal_coefficient_map(phi, xi)
        np.testing.assert_allclose(pi.matrix, expected[None, :], atol=1e-12)


class TestObliqueMap:
    def test_orthogonal_special_case(self, rng):
        for _ in range(10):
            _, phi, xi = random_instance(rng, n_max=12, m_max=6)
            pi_x = oblique_coefficient_map(phi, phi.matrix * xi.weights[:, None])
            pi = orthogonal_coefficient_map(phi, xi)
            np.testing.assert_allclose(pi_x.matrix, pi.matrix, atol=1e-10)

    def test_map_regular_at_td_singularity(self):
        # at gamma = 5/6 the map from X = Xi Phi is fine; only the downstream
        # projected system X' L Phi collapses
        inst = example1(5.0 / 6.0, 0.0)
        x = inst.phi.matrix * inst.xi.weights[:, None]
        pi_x = oblique_coefficient_map(inst.phi, x)
        np.testing.assert_allclose(pi_x.matrix @ inst.phi.matrix, np.eye(1), atol=1e-10)
        lphi = l_matrix(inst.mdp) @ inst.phi.matrix
        assert abs((x.T @ lphi)[0, 0]) < 1e-12

    def test_degenerate_direction_raises(self, rng):
        _, phi, xi = random_instance(rng, n_max=8, m_max=1)
        # make x xi-orthogonal to the single feature column
        x = rng.normal(size=(phi.n_states, 1))
        col = phi.matrix[:, 0]
        coeff = (x[:, 0] @ col) / (col @ col)
        x[:, 0] -= coeff * col
        with pytest.raises(SingularMatrixError):
            oblique_coefficient_map(phi, x)


class TestProjectorNorm:
    def test_orthogonal_projector_has_norm_one(self, rng):
        for _ in range(5):
            _, phi, xi = random_instance(rng, n_max=15, m_max=8)
            pi = orthogonal_coefficient_map(phi, xi)
            assert projector_weighted_norm(phi, pi, xi) == pytest.approx(1.0, abs=1e-10)

    def test_two_state_td_projector_norm(self):
        inst = example1(0.5, 0.0)
        x = inst.phi.matrix * inst.xi.weights[:, None]
        ltx = l_matrix(inst.mdp).T @ x
        pi = oblique_coefficient_map(inst.phi, ltx)
        assert projector_weighted_norm(inst.phi, pi, inst.xi) == pytest.approx(1.25, abs=1e-10)

    def test_identity(self):
        phi = make_feature_basis(np.eye(3))
        xi = uniform_weights(3)
        pi = orthogonal_coefficient_map(phi, xi)
        assert projector_weighted_norm(phi, pi, xi) == pytest.approx(1.0, abs=1e-12)


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(np.diag([2.0, -3.0])) == pytest.approx(3.0)

    def test_scalar(self):
        assert spectral_radius(np.array([[-4.5]])) == pytest.approx(4.5)

    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestOperatorNormOracle:
    def test_orthogonal_projector(self, rng):
        _, phi, xi = random_instance(rng, n_max=12, m_max=5)
        pi = orthogonal_coefficient_map(phi, xi)
        assert operator_norm_oracle(phi.matrix @ pi.matrix, xi) == pytest.approx(1.0, abs=1e-10)

    def test_stationary_transition_norm(self):
        m = ergodic_chain(9, 0.9, SeedSpec(3))
        xi = make_state_weights(stationary_distribution(m))
        assert operator_norm_oracle(m.transitions, xi) <= 1.0 + 1e-10

    def test_matches_small_matrix_route(self, rng):
        for _ in range(100):
            mdp, phi, xi = random_instance(rng, n_max=20, m_max=10)
            x = rng.normal(size=phi.matrix.shape)
            ltx = l_matrix(mdp).T @ x
            try:
                pi = oblique_coefficient_map(phi, ltx)
            except SingularMatrixError:
                continue
            small = projector_weighted_norm(phi, pi, xi)
            full = operator_norm_oracle(phi.matrix @ pi.matrix, xi)
            assert small == pytest.approx(full, rel=1e-8)


class TestProjectorProperties:
    def test_idempotence_and_left_inverse(self, rng):
        for _ in range(30):
            _, phi, xi = random_instance(rng, n_max=30, m_max=30)
            pi = orthogonal_coefficient_map(phi, xi)
            proj = phi.matrix @ pi.matrix
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)
            np.testing.assert_allclose(pi.matrix @ phi.matrix,
                                       np.eye(phi.dim), atol=1e-8)

    def test_complement_has_equal_norm(self, rng):
        # ||I - P||_xi = ||P||_xi for any projector P that is neither 0 nor I
        count = 0
        while count < 20:
            mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
            if phi.dim == phi.n_states:
                continue
            x = rng.normal(size=phi.matrix.shape)
            try:
                pi = oblique_coefficient_map(phi, x)
            except SingularMatrixError:
                continue
            proj = phi.matrix @ pi.matrix
            lhs = operator_norm_oracle(np.eye(phi.n_states) - proj, xi)
            rhs = operator_norm_oracle(proj, xi)
            assert lhs == pytest.approx(rhs, rel=1e-8)
            count += 1

    def test_transition_norm_below_concentration(self, rng):
        from conftest import random_dense_mdp

        for _ in range(30):
            n = int(rng.integers(2, 15))
            mdp = random_dense_mdp(rng, n)
            xi = make_state_weights(rng.uniform(1e-3, 1.0, size=n))
            bound = np.sqrt(concentration_coefficient(mdp, xi))
            assert operator_norm_oracle(mdp.transitions, xi) <= bound + 1e-10
