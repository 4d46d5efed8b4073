import re
import time

import numpy as np
import pytest

from projeval import (
    bellman_apply,
    exact_value,
    make_mdp,
    validate,
)
from projeval.instances import SeedSpec, random_chain
from projeval.mdp import Mdp, l_matrix, value_condition
from projeval.projections import SINGULAR_CONDITION_LIMIT

from conftest import random_dense_mdp
from oracles import apply_L, apply_L_transpose, ergodic_chain, stationary_distribution


def two_state(gamma=0.9, r=(1.0, 0.0)):
    return make_mdp([[0.0, 1.0], [0.0, 1.0]], list(r), gamma)


class TestValidate:
    def test_valid_two_state(self):
        assert validate(two_state()) == []

    def test_bad_row_sum(self):
        m = Mdp(np.array([[0.4, 0.5], [0.0, 1.0]]), np.zeros(2), 0.9)
        problems = validate(m)
        assert any("row 0 sums to" in p for p in problems)

    def test_gamma_out_of_range(self):
        m = Mdp(np.eye(2), np.zeros(2), 1.0)
        assert "discount not in (0,1)" in validate(m)

    def test_negative_probability(self):
        m = Mdp(np.array([[-0.5, 1.5], [0.0, 1.0]]), np.zeros(2), 0.9)
        assert any("out of [0,1]" in p for p in validate(m))

    def test_dimension_mismatch(self):
        m = Mdp(np.eye(3), np.zeros(2), 0.9)
        assert "rewards has shape (2,), expected (3,)" in validate(m)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 1), ()])
    def test_rewards_are_not_flattened(self, shape):
        # a 2 x 2 r is not the 4 rewards of a 4-state chain
        message = re.escape(f"rewards has shape {shape}, expected (4,)")
        with pytest.raises(ValueError, match=message):
            make_mdp(np.full((4, 4), 0.25), np.zeros(shape), 0.9)

    @pytest.mark.parametrize("P, r, expected", [
        ([[np.nan, 1.0], [0.0, 1.0]], [0.0, 0.0], "non-finite probability at (0,0)"),
        ([[0.0, 1.0], [np.inf, 1.0]], [0.0, 0.0], "non-finite probability at (1,0)"),
        ([[0.0, 1.0], [0.0, 1.0]], [0.0, np.nan], "non-finite reward at 1"),
        ([[0.0, 1.0], [0.0, 1.0]], [-np.inf, 0.0], "non-finite reward at 0"),
    ])
    def test_non_finite_entries(self, P, r, expected):
        problems = validate(Mdp(np.array(P), np.array(r), 0.9))
        assert any(expected in p for p in problems), problems
        with pytest.raises(ValueError, match="non-finite"):
            make_mdp(P, r, 0.9)

    def test_make_mdp_raises(self):
        with pytest.raises(ValueError, match="row 0 sums"):
            make_mdp([[0.4, 0.5], [0.0, 1.0]], [0.0, 0.0], 0.9)

    def test_stack_names_the_first_bad_chain(self):
        P = np.tile(np.eye(3), (4, 1, 1))
        r = np.zeros((4, 3))
        P[2, 1] = [0.4, 0.5, 0.0]
        P[3, 0] = [0.0, 0.9, 0.0]
        r[1, 2] = r[3, 0] = np.nan
        problems = validate(Mdp(P, r, 0.9), stack=True)
        assert problems == ["non-finite reward at 2 of chain 1",
                            "row 1 of chain 2 sums to 0.9", "row 0 of chain 3 sums to 0.9"]
        P[3, 2, 2] = -1.0
        assert "probability out of [0,1] at (2,2) of chain 3: -1.0" in validate(
            Mdp(P, r, 0.9), stack=True)
        with pytest.raises(ValueError, match="row 1 of chain 2 sums"):
            make_mdp(P, np.zeros((4, 3)), 0.9, stack=True)

    def test_stack_equals_its_members(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(size=(5, 4, 4))
        P /= P.sum(axis=-1, keepdims=True)
        P[:, 0, 0] += 1e-13  # renormalized within tolerance
        r = rng.uniform(-1.0, 1.0, (5, 4))
        stack = make_mdp(P, r, 0.9, stack=True)
        singles = [make_mdp(p, q, 0.9) for p, q in zip(P, r)]
        np.testing.assert_array_equal(stack.transitions, [m.transitions for m in singles],
                                      strict=True)
        np.testing.assert_array_equal(exact_value(stack), [exact_value(m) for m in singles],
                                      strict=True)
        assert stack.n_states == 4

    def test_single_chain_rejects_a_stack(self):
        with pytest.raises(ValueError, match=r"transition matrix is \(1, 2, 2\), expected square"):
            make_mdp(np.eye(2)[None], [0.0, 0.0], 0.9)

    def test_make_mdp_renormalizes_within_tolerance(self):
        eps = 5e-13
        m = make_mdp([[0.5 + eps, 0.5], [0.0, 1.0]], [0.0, 0.0], 0.9)
        np.testing.assert_allclose(m.transitions.sum(axis=1), 1.0, rtol=0, atol=1e-16)


class TestBellmanApply:
    def test_fixed_point(self, rng):
        m = random_dense_mdp(rng, 7)
        v = exact_value(m)
        np.testing.assert_allclose(bellman_apply(m, v), v, atol=1e-10)

    def test_zero_reward_is_linear_map(self, rng):
        m = make_mdp(random_dense_mdp(rng, 5).transitions, np.zeros(5), 0.7)
        v = rng.normal(size=5)
        np.testing.assert_allclose(bellman_apply(m, v),
                                   0.7 * (m.transitions @ v), atol=1e-14)

    def test_hand_value(self):
        m = two_state(0.5, (1.0, 0.0))
        np.testing.assert_allclose(bellman_apply(m, np.zeros(2)), [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bellman_apply(two_state(), np.zeros(3))


class TestExactValue:
    def test_two_state_closed_form(self):
        # v(1) = r1 + gamma r2/(1-gamma), v(2) = r2/(1-gamma)
        m = two_state(0.5, (1.0, 0.0))
        np.testing.assert_allclose(exact_value(m), [1.0, 0.0], atol=1e-12)

    def test_zero_reward(self, rng):
        m = make_mdp(random_dense_mdp(rng, 6).transitions, np.zeros(6), 0.9)
        np.testing.assert_allclose(exact_value(m), np.zeros(6), atol=1e-14)

    def test_single_absorbing_state(self):
        m = make_mdp([[1.0]], [3.0], 0.8)
        np.testing.assert_allclose(exact_value(m), [3.0 / 0.2], atol=1e-10)

    def test_linearity_in_reward(self, rng):
        base = random_dense_mdp(rng, 12)
        r1 = rng.normal(size=12)
        r2 = rng.normal(size=12)
        v1 = exact_value(make_mdp(base.transitions, r1, base.discount))
        v2 = exact_value(make_mdp(base.transitions, r2, base.discount))
        v12 = exact_value(make_mdp(base.transitions, r1 + r2, base.discount))
        np.testing.assert_allclose(v12, v1 + v2, atol=1e-10)

    def test_geometric_series_bound(self, rng):
        # near 1, v is of size 1 / (1 - gamma) and a backward-stable solve leaves a
        # residual far above 1e-10, yet L's condition number is at most 2e11
        for gamma in [None] * 20 + [1 - 1e-7, 1 - 1e-11] * 5:
            m = random_dense_mdp(rng, int(rng.integers(2, 31)), gamma)
            v = exact_value(m)
            limit = np.max(np.abs(m.rewards)) / (1.0 - m.discount)
            assert np.max(np.abs(v)) <= limit + 1e-10

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 5 / 6, 0.9, 0.99, 0.999])
    def test_condition_closed_form_is_numpys(self, gamma, rng):
        # example 1: ||L||_inf = 1 + gamma, so kappa_inf(L) = (1 + gamma) / (1 - gamma)
        m = two_state(gamma)
        assert value_condition(m) == pytest.approx((1 + gamma) / (1 - gamma), rel=1e-12)
        chains = [m, random_chain(int(rng.integers(2, 31)), gamma, SeedSpec(int(gamma * 1e3)))]
        chains += [random_dense_mdp(rng, int(rng.integers(2, 31)), gamma) for _ in range(5)]
        for chain in chains:
            assert value_condition(chain) == pytest.approx(
                np.linalg.cond(l_matrix(chain), np.inf), rel=1e-9)
        stack = random_chain(7, gamma, SeedSpec(5), count=4)
        np.testing.assert_allclose(value_condition(stack),
                                   np.linalg.cond(l_matrix(stack), np.inf), rtol=1e-9)

    def test_stack_names_the_first_chain_over_the_limit(self):
        # P = I gives L = (1 - gamma) I, perfectly conditioned at any discount
        P = np.array([np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 1.0]], [[0.25, 0.75], [0.0, 1.0]]])
        stack = make_mdp(P, np.ones((4, 2)), 1 - 1e-12, stack=True)
        cond = value_condition(stack)
        assert cond[0] == 1.0 and cond[2] > cond[3] > SINGULAR_CONDITION_LIMIT
        message = f"value system of chain 2 (n=2) has condition number {cond[2]:.6g} at discount "
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}"):
            exact_value(stack)


class TestApplyL:
    def test_inverse_of_exact_value(self, rng):
        m = random_dense_mdp(rng, 9)
        np.testing.assert_allclose(apply_L(m, exact_value(m)), m.rewards, atol=1e-10)

    def test_zero(self):
        np.testing.assert_allclose(apply_L(two_state(), np.zeros(2)), np.zeros(2))

    def test_hand_value(self):
        m = two_state(0.5)
        np.testing.assert_allclose(apply_L(m, np.array([1.0, 2.0])), [0.0, 1.0])

    def test_transpose_is_adjoint(self, rng):
        m = random_dense_mdp(rng, 8)
        u, v = rng.normal(size=8), rng.normal(size=8)
        assert apply_L(m, v) @ u == pytest.approx(v @ apply_L_transpose(m, u))


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        m = make_mdp([[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0], 0.9)
        np.testing.assert_allclose(stationary_distribution(m), [0.5, 0.5], atol=1e-10)

    def test_periodic_chain(self):
        m = make_mdp([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]], [0.0] * 3, 0.9)
        start = time.monotonic()
        xi = stationary_distribution(m)
        assert time.monotonic() - start < 1.0
        np.testing.assert_allclose(xi, [0.25, 0.5, 0.25], atol=1e-12)

    def test_absorbing_chain_not_found(self):
        assert stationary_distribution(two_state()) is None
        # two absorbing states: every mix of them is stationary
        assert stationary_distribution(make_mdp(np.eye(2), [0.0, 0.0], 0.9)) is None

    def test_ergodic_chain_residual(self):
        m = ergodic_chain(8, 0.9, SeedSpec(7))
        xi = stationary_distribution(m)
        assert xi is not None
        assert np.min(xi) > 0
        assert np.max(np.abs(xi @ m.transitions - xi)) <= 1e-10
