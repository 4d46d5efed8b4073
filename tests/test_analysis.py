import numpy as np
import pytest

from projeval import (
    br_direction,
    error_bound,
    error_report,
    exact_value,
    make_feature_basis,
    make_mdp,
    make_state_weights,
    optimal_direction,
    solve_best,
    solve_br,
    solve_oblique,
    solve_td,
    td_direction,
    weighted_norm,
)
from projeval.instances import SeedSpec, example1
from projeval.mdp import l_matrix

from conftest import random_instance
from oracles import (
    SingularMatrixError,
    bound_matrices,
    br_guarantee,
    concentration_coefficient,
    ergodic_chain,
    exact_bound_test,
    oblique_coefficient_map,
    operator_norm_oracle,
    stationary_distribution,
    stationary_td_bound_check,
)


class TestErrorReport:
    def test_representable_value_gives_zero_errors(self, rng):
        mdp, phi, xi = random_instance(rng, n_max=10, m_max=5)
        w0 = rng.normal(size=phi.dim)
        r = l_matrix(mdp) @ phi.matrix @ w0
        m = make_mdp(mdp.transitions, r, mdp.discount)
        rep = error_report(m, phi, xi, w0)
        for value in (rep.approx_error, rep.td_error, rep.br_residual, rep.adequacy):
            assert value == pytest.approx(0.0, abs=1e-8)

    def test_td_solution_has_zero_td_error(self, rng):
        for _ in range(10):
            mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
            sol = solve_td(mdp, phi, xi)
            if not sol.ok:
                continue
            rep = error_report(mdp, phi, xi, sol.weights)
            assert rep.td_error <= 1e-8
            assert rep.br_residual == pytest.approx(rep.adequacy, abs=1e-8)

    def test_two_state_hand_value(self):
        inst = example1(0.5, 0.0)
        rep = error_report(inst.mdp, inst.phi, inst.xi, [0.2])
        assert rep.approx_error == pytest.approx(np.sqrt(0.4), rel=1e-12)

    def test_singular_projection_reported_as_status(self, rng):
        mdp, _, xi = random_instance(rng, n_max=6, m_max=1)
        a = rng.uniform(-1.0, 1.0, size=mdp.n_states)
        b = a + 1e-8 * rng.uniform(-1.0, 1.0, size=mdp.n_states)
        phi = make_feature_basis(np.column_stack([a, b]))
        rep = error_report(mdp, phi, xi, [1.0, -1.0])
        assert rep.status == "singular"
        assert rep.td_error is None and rep.adequacy is None
        assert rep.condition_estimate > 1e12
        assert np.isfinite(rep.approx_error) and np.isfinite(rep.br_residual)

    def test_pythagorean_identity(self, rng):
        for _ in range(200):
            mdp, phi, xi = random_instance(rng, n_max=20, m_max=10)
            rep = error_report(mdp, phi, xi, rng.normal(size=phi.dim))
            gap = rep.br_residual ** 2 - rep.td_error ** 2 - rep.adequacy ** 2
            assert abs(gap) <= 1e-8

    def test_br_residual_dominates_td_error(self, rng):
        for _ in range(50):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            rep = error_report(mdp, phi, xi, rng.normal(size=phi.dim))
            assert rep.td_error <= rep.br_residual + 1e-10


class TestErrorBound:
    def test_two_state_td_direction(self):
        inst = example1(0.5, 0.0)
        x = td_direction(inst.mdp, inst.phi, inst.xi)
        a, b, c = bound_matrices(inst.mdp, inst.phi, inst.xi, x)
        assert a[0, 0] == pytest.approx(2.5)
        assert b[0, 0] == pytest.approx(1.0)
        assert c[0, 0] == pytest.approx(0.625)
        rep = error_bound(inst.mdp, inst.phi, inst.xi, x)
        assert rep.bound == pytest.approx(1.25, abs=1e-12)

    def test_two_state_br_direction(self):
        inst = example1(0.5, 0.0)
        x = br_direction(inst.mdp, inst.phi, inst.xi)
        a, b, c = bound_matrices(inst.mdp, inst.phi, inst.xi, x)
        assert a[0, 0] == pytest.approx(2.5)
        assert b[0, 0] == pytest.approx(2.0)
        assert c[0, 0] == pytest.approx(0.125)
        rep = error_bound(inst.mdp, inst.phi, inst.xi, x)
        assert rep.bound == pytest.approx(np.sqrt(1.25), abs=1e-12)

    @pytest.mark.parametrize("x, b_squared", [("td", 1.5625), ("br", 1.25)])
    def test_exact_referee_on_two_state_values(self, x, b_squared):
        # t G - C is singular at t = b^2 exactly, so the strict test fails there
        inst = example1(0.5, 0.0)
        holds = exact_bound_test(inst.mdp, inst.phi, inst.xi, x)
        assert holds(b_squared * (1 + 1e-12)) and not holds(b_squared)

    def test_optimal_direction_has_bound_one(self, rng):
        for _ in range(10):
            mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
            rep = error_bound(mdp, phi, xi, optimal_direction(mdp, phi, xi))
            assert rep.bound == pytest.approx(1.0, abs=1e-8)

    def test_singular_direction_reported_as_status(self, rng):
        # X = Xi Phi at the analytic example's singular discount, and a
        # random direction made orthogonal to the single column of L Phi
        inst = example1(5.0 / 6.0, 0.0)
        mdp, phi, xi = random_instance(rng, n_max=8, m_max=1)
        lphi = (l_matrix(mdp) @ phi.matrix)[:, 0]
        x = rng.normal(size=phi.n_states)
        x -= (x @ lphi) / (lphi @ lphi) * lphi
        for mdp, phi, xi, x in ((inst.mdp, inst.phi, inst.xi,
                                 td_direction(inst.mdp, inst.phi, inst.xi)),
                                (mdp, phi, xi, x[:, None])):
            rep = error_bound(mdp, phi, xi, x)
            assert rep.status == "singular"
            assert rep.bound is None
            assert rep.condition_estimate > 1e12  # inf passes, NaN does not
            sol = solve_oblique(mdp, phi, x)
            assert sol.status == "singular" and sol.weights is None
            assert sol.condition_estimate > 1e12

    def test_bound_is_at_least_one(self, rng):
        for _ in range(30):
            mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
            x = rng.normal(size=phi.matrix.shape)
            rep = error_bound(mdp, phi, xi, x)
            if rep.ok:
                assert rep.bound >= 1.0 - 1e-8

    def test_bound_equals_operator_norm_oracle(self, rng):
        for _ in range(60):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            x = rng.normal(size=phi.matrix.shape)
            rep = error_bound(mdp, phi, xi, x)
            if not rep.ok:
                continue
            try:
                pi = oblique_coefficient_map(phi, l_matrix(mdp).T @ x)
            except SingularMatrixError:
                continue
            oracle = operator_norm_oracle(phi.matrix @ pi.matrix, xi)
            assert rep.bound == pytest.approx(oracle, rel=1e-8)

    def test_bound_dominates_actual_error(self, rng):
        for _ in range(50):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            x = rng.normal(size=phi.matrix.shape)
            rep = error_bound(mdp, phi, xi, x)
            sol = solve_oblique(mdp, phi, x)
            if not (rep.ok and sol.ok):
                continue
            v = exact_value(mdp)
            best = solve_best(mdp, phi, xi)
            lhs = weighted_norm(v - sol.value_estimate, xi)
            rhs = rep.bound * weighted_norm(v - best.value_estimate, xi)
            assert lhs <= rhs + 1e-8


class TestConcentrationCoefficient:
    def test_two_state_uniform(self):
        inst = example1(0.5, 0.0)
        assert concentration_coefficient(inst.mdp, inst.xi) == pytest.approx(2.0)

    def test_uniform_chain_is_minimal(self):
        n = 6
        mdp = make_mdp(np.full((n, n), 1.0 / n), np.zeros(n), 0.9)
        xi = make_state_weights(np.full(n, 1.0 / n))
        assert concentration_coefficient(mdp, xi) == pytest.approx(1.0)

    def test_deterministic_transition_is_maximal(self):
        n = 5
        P = np.zeros((n, n))
        P[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        mdp = make_mdp(P, np.zeros(n), 0.9)
        xi = make_state_weights(np.full(n, 1.0 / n))
        assert concentration_coefficient(mdp, xi) == pytest.approx(float(n))


class TestBrGuarantee:
    def test_zero_residual(self, rng):
        mdp, _, xi = random_instance(rng, n_max=8, m_max=1)
        phi = make_feature_basis(np.eye(mdp.n_states))
        sol = solve_br(mdp, phi, xi)
        lhs, rhs = br_guarantee(mdp, xi, sol.value_estimate)
        assert lhs == pytest.approx(0.0, abs=1e-8)
        assert rhs == pytest.approx(0.0, abs=1e-8)

    def test_two_state_hand_value(self):
        inst = example1(0.5, 0.0)
        sol = solve_br(inst.mdp, inst.phi, inst.xi)
        lhs, rhs = br_guarantee(inst.mdp, inst.xi, sol.value_estimate)
        assert lhs == pytest.approx(np.sqrt(0.5), rel=1e-10)
        assert lhs <= rhs + 1e-8

    def test_holds_on_random_chains(self, rng):
        from projeval.instances import random_chain, random_features, random_weights

        for i in range(50):
            seed = SeedSpec(int(rng.integers(1 << 32)))
            n = int(rng.integers(2, 15))
            mdp = random_chain(n, 0.9, seed)
            phi = random_features(n, int(rng.integers(1, n + 1)), seed.derive(1))
            xi = random_weights(n, seed.derive(2))
            sol = solve_br(mdp, phi, xi)
            lhs, rhs = br_guarantee(mdp, xi, sol.value_estimate)
            assert lhs <= rhs + 1e-8


class TestStationaryTdBound:
    def test_constant(self):
        assert 1.0 / np.sqrt(1.0 - 0.9 ** 2) == pytest.approx(2.2942, abs=1e-4)

    def test_exact_representation_gives_zero(self, rng):
        mdp = ergodic_chain(6, 0.9, SeedSpec(11))
        xi = make_state_weights(stationary_distribution(mdp))
        phi = make_feature_basis(np.eye(6))
        lhs, rhs = stationary_td_bound_check(mdp, phi, xi)
        assert lhs == pytest.approx(0.0, abs=1e-8)
        assert rhs == pytest.approx(0.0, abs=1e-8)

    def test_rejects_non_stationary_weights(self, rng):
        mdp = ergodic_chain(6, 0.9, SeedSpec(11))
        phi = make_feature_basis(rng.uniform(-1, 1, size=(6, 2)))
        with pytest.raises(ValueError, match="stationary"):
            stationary_td_bound_check(mdp, phi, make_state_weights(np.full(6, 1 / 6)))

    def test_holds_on_random_ergodic_fixtures(self, rng):
        for i in range(50):
            n = int(rng.integers(2, 15))
            mdp = ergodic_chain(n, 0.9, SeedSpec(1000 + i))
            xi = make_state_weights(stationary_distribution(mdp))
            phi = make_feature_basis(rng.uniform(-1, 1, size=(n, int(rng.integers(1, n + 1)))))
            lhs, rhs = stationary_td_bound_check(mdp, phi, xi)
            assert lhs <= rhs + 1e-8

    def test_td_bound_dominates_stationary_constant(self, rng):
        # with stationary weights the spectral bound is never worse than
        # 1/sqrt(1-gamma^2)
        for i in range(25):
            n = int(rng.integers(2, 12))
            mdp = ergodic_chain(n, 0.9, SeedSpec(2000 + i))
            xi = make_state_weights(stationary_distribution(mdp))
            phi = make_feature_basis(rng.uniform(-1, 1, size=(n, int(rng.integers(1, n + 1)))))
            rep = error_bound(mdp, phi, xi, td_direction(mdp, phi, xi))
            assert rep.ok
            assert rep.bound <= 1.0 / np.sqrt(1.0 - 0.9 ** 2) + 1e-8


class TestThetaInvariance:
    def test_error_ratios_do_not_depend_on_theta(self):
        thetas = [0.0, np.pi / 4, np.pi / 2, 2.0, 5.0]
        for gamma in (0.3, 0.5, 0.7, 0.9):
            ratios_td, ratios_br = [], []
            for theta in thetas:
                inst = example1(gamma, theta)
                v = exact_value(inst.mdp)

                def err(w):
                    return weighted_norm(v - inst.phi.matrix[:, 0] * w, inst.xi)

                e_best = err(inst.reference.w_best)
                if e_best < 1e-12:
                    continue
                ratios_td.append(err(inst.reference.w_td) / e_best)
                ratios_br.append(err(inst.reference.w_br) / e_best)
            for seq in (ratios_td, ratios_br):
                np.testing.assert_allclose(seq, seq[0], rtol=1e-8)
