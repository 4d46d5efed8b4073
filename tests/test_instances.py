import numpy as np
import pytest

from projeval import (
    exact_value,
    solve_best,
    solve_br,
    solve_td,
    validate,
    weighted_norm,
)
from projeval import projections
from projeval.instances import (
    SeedSpec,
    example1,
    random_chain,
    random_features,
    random_weights,
)
from oracles import block_triangular, ergodic_chain, stationary_distribution

GAMMA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
THETA_GRID = (0.0, 1.0, 2.0, 4.0)


class TestExample1:
    def test_reference_weights_at_half(self):
        ref = example1(0.5, 0.0).reference
        assert ref.w_best == pytest.approx(0.2)
        assert ref.w_td == pytest.approx(0.5)
        assert ref.w_br == pytest.approx(0.0, abs=1e-15)

    def test_td_reference_absent_at_singularity(self):
        assert example1(5.0 / 6.0, 1.3).reference.w_td is None

    def test_pure_second_reward(self):
        ref = example1(0.5, np.pi / 2).reference
        assert ref.w_best == pytest.approx(1.0, rel=1e-12)

    def test_solvers_match_closed_forms(self):
        for gamma in GAMMA_GRID:
            for theta in THETA_GRID:
                inst = example1(gamma, theta)
                ref = inst.reference
                assert solve_best(inst.mdp, inst.phi, inst.xi).weights[0] == \
                    pytest.approx(ref.w_best, rel=1e-10, abs=1e-14)
                assert solve_td(inst.mdp, inst.phi, inst.xi).weights[0] == \
                    pytest.approx(ref.w_td, rel=1e-10, abs=1e-14)
                assert solve_br(inst.mdp, inst.phi, inst.xi).weights[0] == \
                    pytest.approx(ref.w_br, rel=1e-10, abs=1e-14)

    def test_br_error_dominates_td_error_on_grid(self):
        # on this fixture BR is never worse than TD
        for gamma in GAMMA_GRID:
            for theta in THETA_GRID:
                inst = example1(gamma, theta)
                v = exact_value(inst.mdp)
                e_td = weighted_norm(v - inst.phi.matrix[:, 0] * inst.reference.w_td,
                                     inst.xi)
                e_br = weighted_norm(v - inst.phi.matrix[:, 0] * inst.reference.w_br,
                                     inst.xi)
                assert e_br <= e_td + 1e-12


class TestBlockTriangular:
    def test_transition_block_structure(self):
        inst = block_triangular(3, 4, SeedSpec(5))
        P = inst.mdp.transitions
        assert np.all(P[:3, 3:] == 0.0)
        assert validate(inst.mdp) == []

    def test_td_is_exact_on_first_block(self):
        for i in range(20):
            inst = block_triangular(3, 4, SeedSpec(100 + i))
            sol = solve_td(inst.mdp, inst.phi, inst.xi)
            if not sol.ok:
                continue
            v = exact_value(inst.mdp)
            np.testing.assert_allclose(sol.value_estimate[:3], v[:3], atol=1e-8)

    def test_br_is_generically_inexact_on_first_block(self):
        deviations = 0
        total = 20
        for i in range(total):
            inst = block_triangular(3, 4, SeedSpec(200 + i))
            sol = solve_br(inst.mdp, inst.phi, inst.xi)
            v = exact_value(inst.mdp)
            if np.max(np.abs(sol.value_estimate[:3] - v[:3])) > 1e-6:
                deviations += 1
        assert deviations >= total - 2

    def test_smallest_case_is_full_rank(self):
        inst = block_triangular(1, 1, SeedSpec(9))
        assert inst.phi.matrix.shape == (2, 2)
        sol = solve_br(inst.mdp, inst.phi, inst.xi)
        np.testing.assert_allclose(sol.value_estimate, exact_value(inst.mdp), atol=1e-8)

    @pytest.mark.parametrize("k, l", [(0, 2), (2, 0)])
    def test_empty_block_rejected(self, k, l):
        with pytest.raises(ValueError, match="^block sizes must be >= 1$"):
            block_triangular(k, l, SeedSpec(3))

    def test_deterministic(self):
        a = block_triangular(2, 3, SeedSpec(3))
        b = block_triangular(2, 3, SeedSpec(3))
        assert np.array_equal(a.mdp.transitions, b.mdp.transitions)
        assert np.array_equal(a.phi.matrix, b.phi.matrix)
        assert np.array_equal(a.xi.weights, b.xi.weights)


class TestRandomChain:
    def test_structure_and_validity(self):
        mdp = random_chain(6, 0.9, SeedSpec(1))
        assert validate(mdp) == []
        P = mdp.transitions
        # only diagonal and superdiagonal are populated; last state absorbs
        assert np.count_nonzero(np.triu(P, 2)) == 0
        assert np.count_nonzero(np.tril(P, -1)) == 0
        assert P[5, 5] == 1.0

    def test_deterministic(self):
        a = random_chain(5, 0.9, SeedSpec(42))
        b = random_chain(5, 0.9, SeedSpec(42))
        assert np.array_equal(a.transitions, b.transitions)
        assert np.array_equal(a.rewards, b.rewards)

    def test_smallest_case(self):
        mdp = random_chain(2, 0.5, SeedSpec(0))
        assert mdp.transitions.shape == (2, 2)
        assert mdp.transitions[1, 1] == 1.0

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_chain(1, 0.9, SeedSpec(0))


class TestRandomFeatures:
    def test_full_rank_square(self):
        phi = random_features(6, 6, SeedSpec(2))
        s = np.linalg.svd(phi.matrix, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]

    def test_deterministic(self):
        a = random_features(8, 3, SeedSpec(7))
        b = random_features(8, 3, SeedSpec(7))
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_one(self):
        phi = random_features(5, 1, SeedSpec(3))
        assert phi.matrix.shape == (5, 1)
        assert np.any(phi.matrix != 0.0)

    def test_entries_in_range(self):
        phi = random_features(10, 4, SeedSpec(4))
        assert np.all(np.abs(phi.matrix) <= 1.0)


class TestRandomWeights:
    def test_single_state(self):
        xi = random_weights(1, SeedSpec(0))
        np.testing.assert_allclose(xi.weights, [1.0])

    def test_positive_and_normalized(self):
        xi = random_weights(20, SeedSpec(5))
        assert np.min(xi.weights) > 0.0
        assert xi.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = random_weights(9, SeedSpec(11))
        b = random_weights(9, SeedSpec(11))
        assert np.array_equal(a.weights, b.weights)


class TestErgodicChain:
    def test_symmetric_two_state(self):
        from projeval import make_mdp

        mdp = make_mdp([[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0], 0.9)
        np.testing.assert_allclose(stationary_distribution(mdp), [0.5, 0.5],
                                   atol=1e-10)

    def test_stationary_distribution_is_positive(self):
        for i in range(10):
            mdp = ergodic_chain(7, 0.9, SeedSpec(300 + i))
            xi = stationary_distribution(mdp)
            assert xi is not None
            assert np.min(xi) > 0.0

    def test_single_state_rejected(self):
        with pytest.raises(ValueError, match="^chain needs at least 2 states$"):
            ergodic_chain(1, 0.9, SeedSpec(13))

    def test_deterministic(self):
        a = ergodic_chain(5, 0.9, SeedSpec(13))
        b = ergodic_chain(5, 0.9, SeedSpec(13))
        assert np.array_equal(a.transitions, b.transitions)


class TestSeedSpec:
    def test_derived_labels_give_distinct_streams(self):
        root = SeedSpec(1)
        a = root.derive(0).rng().uniform(size=4)
        b = root.derive(1).rng().uniform(size=4)
        assert not np.array_equal(a, b)

    def test_identical_spec_is_bit_identical(self):
        a = SeedSpec(9, (1, 2, 3)).rng().uniform(size=8)
        b = SeedSpec(9, (1, 2, 3)).rng().uniform(size=8)
        assert np.array_equal(a, b)


STACK_SEED = SeedSpec(17, (1, 0, 6, 3))


class TestStackedDraws:
    """A stacked draw is the stack of the single draws from seed.derive(p)."""

    @pytest.mark.parametrize("n, count", [(2, 1), (5, 4), (9, 20)])
    def test_chains_equal_single_draws(self, n, count):
        stack = random_chain(n, 0.95, STACK_SEED, count=count)
        singles = [random_chain(n, 0.95, STACK_SEED.derive(p)) for p in range(count)]
        assert stack.transitions.shape == (count, n, n) and stack.n_states == n
        np.testing.assert_array_equal(stack.transitions,
                                      np.stack([c.transitions for c in singles]), strict=True)
        np.testing.assert_array_equal(stack.rewards, np.stack([c.rewards for c in singles]),
                                      strict=True)
        assert validate(stack, stack=True) == []
        assert not stack.transitions.flags.writeable

    @pytest.mark.parametrize("n, count", [(1, 3), (6, 1), (9, 20)])
    def test_weights_equal_single_draws(self, n, count):
        stack = random_weights(n, STACK_SEED, count=count).weights
        singles = [random_weights(n, STACK_SEED.derive(p)).weights for p in range(count)]
        np.testing.assert_array_equal(stack, np.stack(singles), strict=True)
        assert not stack.flags.writeable

    @pytest.mark.parametrize("n, k, count", [(1, 1, 2), (6, 3, 1), (8, 8, 20)])
    def test_features_equal_single_draws(self, n, k, count):
        stack = random_features(n, k, STACK_SEED, count=count)
        singles = [random_features(n, k, STACK_SEED.derive(p)).matrix for p in range(count)]
        assert (stack.n_states, stack.dim) == (n, k)
        np.testing.assert_array_equal(stack.matrix, np.stack(singles), strict=True)

    @pytest.mark.parametrize("count", [None, 1, 4])
    def test_basis_that_always_fails_raises(self, monkeypatch, count):
        monkeypatch.setattr(projections, "INDEPENDENCE_SV_RATIO", 1.0)
        with pytest.raises(ValueError, match="^feature columns( 0)? are not linearly independent"):
            random_features(4, 2, STACK_SEED, count=count)
