import numpy as np
import pytest

from projeval import (
    br_direction,
    error_report,
    exact_value,
    make_feature_basis,
    make_mdp,
    make_state_weights,
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
    exact_report,
    oblique_coefficient_map,
    operator_norm_oracle,
    optimal_direction,
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
        for value in (rep.td_error, rep.br_residual, rep.adequacy):
            assert value == pytest.approx(0.0, abs=1e-8)
        for solve in (solve_best, solve_td, solve_br):
            assert solve(m, phi, xi).approx_error == pytest.approx(0.0, abs=1e-8)

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
        # v = (1, 0) and Phi = (1, 2): the best w is 0.2, T Phi w = (1.2, 0.2) and
        # Proj T Phi w = (0.32, 0.64); the error comes with the solve
        inst = example1(0.5, 0.0)
        best = solve_best(inst.mdp, inst.phi, inst.xi)
        assert best.weights == pytest.approx([0.2], rel=1e-12)
        assert best.approx_error == pytest.approx(np.sqrt(0.4), rel=1e-12)
        rep = error_report(inst.mdp, inst.phi, inst.xi, [0.2])
        assert (rep.td_error, rep.br_residual, rep.adequacy) == pytest.approx(
            np.sqrt([0.036, 0.52, 0.484]), rel=1e-12)

    def test_report_needs_no_exact_value(self):
        # past the value gate every solve raises, yet the report's three functionals
        # are functions of the candidate alone
        inst = example1(1.0 - 1e-13, 0.3)
        with pytest.raises(ArithmeticError, match="condition number 1.99938e"):
            solve_td(inst.mdp, inst.phi, inst.xi)
        rep = error_report(inst.mdp, inst.phi, inst.xi, [0.7])
        values = (rep.td_error, rep.br_residual, rep.adequacy)
        assert np.all(np.isfinite(values))
        assert rep.br_residual ** 2 == pytest.approx(rep.td_error ** 2 + rep.adequacy ** 2,
                                                     rel=1e-12)

    def test_near_dependent_columns_match_exact_report(self, rng):
        # columns 1e-8 apart: the Gram system Phi' Xi Phi is past the 1e12 limit,
        # the projection onto span(Phi) is not
        mdp, _, xi = random_instance(rng, n_max=6, m_max=1)
        a = rng.uniform(-1.0, 1.0, size=mdp.n_states)
        b = a + 1e-8 * rng.uniform(-1.0, 1.0, size=mdp.n_states)
        phi = make_feature_basis(np.column_stack([a, b]))
        rep = error_report(mdp, phi, xi, [1.0, -1.0])
        values = (rep.td_error, rep.br_residual, rep.adequacy)
        assert np.all(np.isfinite(values))
        assert abs(rep.br_residual ** 2 - rep.td_error ** 2 - rep.adequacy ** 2) <= 1e-12
        assert values == pytest.approx(exact_report(mdp, phi, xi, [1.0, -1.0])[1:], rel=1e-6)

    @pytest.mark.parametrize("w, message", [
        ([np.nan], "non-finite"),
        ([np.inf], "non-finite"),
        ([0.2, 0.2], r"shape \(2,\), expected \(1,\)"),
        ([[1.0]], r"shape \(1, 1\), expected \(1,\)"),
    ])
    def test_bad_coordinates_rejected(self, w, message):
        inst = example1(0.5, 0.0)
        with pytest.raises(ValueError, match=message):
            error_report(inst.mdp, inst.phi, inst.xi, w)

    @pytest.mark.parametrize("rewards, w", [([1.0, 0.0], 1e308), ([1e308, 0.0], 5e307)],
                             ids=["phi-w", "t-phi-w"])
    def test_overflowing_candidate_raises(self, rewards, w):
        # Phi w, or only T Phi w, is not finite: the solvers' ArithmeticError, with no
        # RuntimeWarning (an error under the test settings) and no NaN report
        inst = example1(0.5, 0.0)
        mdp = make_mdp(inst.mdp.transitions, rewards, 0.9)
        with pytest.raises(ArithmeticError, match="not finite"):
            error_report(mdp, inst.phi, inst.xi, [w])

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
        td = solve_td(inst.mdp, inst.phi, inst.xi)
        assert td.condition_estimate == pytest.approx(1.25, abs=1e-12)

    def test_two_state_br_direction(self):
        inst = example1(0.5, 0.0)
        x = br_direction(inst.mdp, inst.phi, inst.xi)
        a, b, c = bound_matrices(inst.mdp, inst.phi, inst.xi, x)
        assert a[0, 0] == pytest.approx(2.5)
        assert b[0, 0] == pytest.approx(2.0)
        assert c[0, 0] == pytest.approx(0.125)
        br = solve_br(inst.mdp, inst.phi, inst.xi)
        assert br.condition_estimate == pytest.approx(np.sqrt(1.25), abs=1e-12)

    @pytest.mark.parametrize("x, b_squared", [("td", 1.5625), ("br", 1.25)])
    def test_exact_referee_on_two_state_values(self, x, b_squared):
        # t G - C is singular at t = b^2 exactly, so the strict test fails there
        inst = example1(0.5, 0.0)
        holds = exact_bound_test(inst.mdp, inst.phi, inst.xi, x)
        assert holds(b_squared * (1 + 1e-12)) and not holds(b_squared)

    def test_optimal_direction_has_bound_one(self, rng):
        for _ in range(10):
            mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
            sol = solve_oblique(mdp, phi, xi, optimal_direction(mdp, phi, xi))
            assert sol.condition_estimate == pytest.approx(1.0, abs=1e-8)

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
            sol = solve_oblique(mdp, phi, xi, x)
            assert sol.status == "singular" and sol.weights is None
            assert sol.condition_estimate > 1e12  # inf passes, NaN does not

    def test_bound_is_at_least_one(self, rng):
        for _ in range(30):
            mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
            x = rng.normal(size=phi.matrix.shape)
            sol = solve_oblique(mdp, phi, xi, x)
            if sol.ok:
                assert sol.condition_estimate >= 1.0 - 1e-8

    def test_bound_equals_operator_norm_oracle(self, rng):
        for _ in range(60):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            x = rng.normal(size=phi.matrix.shape)
            sol = solve_oblique(mdp, phi, xi, x)
            if not sol.ok:
                continue
            try:
                pi = oblique_coefficient_map(phi, l_matrix(mdp).T @ x)
            except SingularMatrixError:
                continue
            oracle = operator_norm_oracle(phi.matrix @ pi.matrix, xi)
            assert sol.condition_estimate == pytest.approx(oracle, rel=1e-8)

    def test_bound_dominates_actual_error(self, rng):
        for _ in range(50):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            x = rng.normal(size=phi.matrix.shape)
            sol = solve_oblique(mdp, phi, xi, x)
            if not sol.ok:
                continue
            v = exact_value(mdp)
            best = solve_best(mdp, phi, xi)
            lhs = weighted_norm(v - sol.value_estimate, xi)
            rhs = sol.condition_estimate * weighted_norm(v - best.value_estimate, xi)
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
            td = solve_td(mdp, phi, xi)
            assert td.ok
            assert td.condition_estimate <= 1.0 / np.sqrt(1.0 - 0.9 ** 2) + 1e-8


class TestThetaInvariance:
    def test_error_ratios_do_not_depend_on_theta(self):
        thetas = [0.0, np.pi / 4, np.pi / 2, 2.0, 5.0]
        for gamma in (0.3, 0.5, 0.7, 0.9):
            ratios_td, ratios_br = [], []
            for theta in thetas:
                inst = example1(gamma, theta)
                v = exact_value(inst.mdp)
                e_best, e_td, e_br = (
                    weighted_norm(v - solve(inst.mdp, inst.phi, inst.xi).value_estimate, inst.xi)
                    for solve in (solve_best, solve_td, solve_br))
                if e_best < 1e-12:
                    continue
                ratios_td.append(e_td / e_best)
                ratios_br.append(e_br / e_best)
            for seq in (ratios_td, ratios_br):
                np.testing.assert_allclose(seq, seq[0], rtol=1e-8)
