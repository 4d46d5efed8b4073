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
from projeval.instances import example1
from projeval.mdp import l_matrix

from conftest import random_instance
from oracles import concentration_coefficient, orthogonal_coefficient_map


class TestExample1ClosedForms:
    def test_best(self):
        inst = example1(0.5, 0.0)
        sol = solve_best(inst.mdp, inst.phi, inst.xi)
        assert sol.weights[0] == pytest.approx(0.2, rel=1e-12)

    def test_td(self):
        inst = example1(0.5, 0.0)
        sol = solve_td(inst.mdp, inst.phi, inst.xi)
        assert sol.weights[0] == pytest.approx(0.5, rel=1e-12)

    def test_br(self):
        inst = example1(0.5, 0.0)
        sol = solve_br(inst.mdp, inst.phi, inst.xi)
        assert sol.weights[0] == pytest.approx(0.0, abs=1e-12)

    def test_td_singular_at_five_sixths(self):
        inst = example1(5.0 / 6.0, 1.0)
        sol = solve_td(inst.mdp, inst.phi, inst.xi)
        assert sol.status == "singular"
        assert sol.weights is None and sol.value_estimate is None
        assert sol.condition_estimate > 1e12

    @pytest.mark.parametrize("solve", [solve_td, solve_br])
    def test_overflowing_solution_raises(self, solve):
        # X' r overflows: w (or Phi w) would be inf behind an "ok" status
        inst = example1(0.5, 0.0)
        mdp = make_mdp(inst.mdp.transitions, [1e308, 1e308], 0.5)
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="not finite"):
            solve(mdp, inst.phi, inst.xi)


class TestExactnessCorollary:
    def test_value_in_span_recovered_by_all_methods(self, rng):
        for _ in range(20):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=6)
            w0 = rng.normal(size=phi.dim)
            r = l_matrix(mdp) @ phi.matrix @ w0
            m = make_mdp(mdp.transitions, r, mdp.discount)
            for solver in (solve_best, solve_td, solve_br):
                sol = solver(m, phi, xi)
                if not sol.ok:
                    continue
                np.testing.assert_allclose(sol.weights, w0, atol=1e-8)

    def test_full_basis_reproduces_exact_value(self, rng):
        mdp, _, xi = random_instance(rng, n_max=10, m_max=1)
        from projeval import make_feature_basis

        phi = make_feature_basis(np.eye(mdp.n_states))
        sol = solve_best(mdp, phi, xi)
        np.testing.assert_allclose(sol.value_estimate, exact_value(mdp), atol=1e-10)


class TestObliqueUnification:
    def test_td_and_br_are_oblique_solves(self, rng):
        for _ in range(100):
            mdp, phi, xi = random_instance(rng, n_max=20, m_max=10)
            td = solve_td(mdp, phi, xi)
            obl_td = solve_oblique(mdp, phi, td_direction(mdp, phi, xi))
            assert td.status == obl_td.status
            if td.ok:
                np.testing.assert_allclose(obl_td.weights, td.weights, atol=1e-8)
            br = solve_br(mdp, phi, xi)
            obl_br = solve_oblique(mdp, phi, br_direction(mdp, phi, xi))
            np.testing.assert_allclose(obl_br.weights, br.weights, atol=1e-8)

    def test_solution_is_oblique_projection_of_value(self, rng):
        # v_hat_X = Phi (X'L Phi)^-1 X' L v for any regular direction X
        for _ in range(50):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            x = rng.normal(size=phi.matrix.shape)
            sol = solve_oblique(mdp, phi, x)
            if not sol.ok:
                continue
            lv = l_matrix(mdp) @ exact_value(mdp)
            w = np.linalg.solve(x.T @ l_matrix(mdp) @ phi.matrix, x.T @ lv)
            np.testing.assert_allclose(sol.value_estimate, phi.matrix @ w, atol=1e-8)

    def test_vector_direction_is_one_column(self, rng):
        mdp, phi, xi = random_instance(rng, n_max=6, m_max=1)
        x = rng.normal(size=mdp.n_states)
        assert (solve_oblique(mdp, phi, x).weights.tolist()
                == solve_oblique(mdp, phi, x[:, None]).weights.tolist())
        assert error_bound(mdp, phi, xi, x).bound == error_bound(mdp, phi, xi, x[:, None]).bound

    def test_dimension_mismatch(self, rng):
        mdp, phi, xi = random_instance(rng, n_max=6, m_max=3)
        wide = np.ones((phi.n_states, phi.dim + 1))
        with pytest.raises(ValueError):
            solve_oblique(mdp, phi, wide)
        with pytest.raises(ValueError, match="direction matrix is"):
            error_bound(mdp, phi, xi, wide)
        short = make_state_weights([1.0])
        for call in (solve_best, solve_td, solve_br, td_direction, br_direction,
                     optimal_direction):
            with pytest.raises(ValueError, match="weights have length 1"):
                call(mdp, phi, short)
        # a zero direction makes X' L Phi singular; the weights are checked all the same
        for x in (td_direction(mdp, phi, xi), np.zeros(phi.matrix.shape)):
            with pytest.raises(ValueError, match="weights have length 1"):
                error_bound(mdp, phi, short, x)
        with pytest.raises(ValueError, match="weights have length 1"):
            error_report(mdp, phi, short, np.zeros(phi.dim))
        with pytest.raises(ValueError, match="weights have length 1"):
            concentration_coefficient(mdp, short)


    @pytest.mark.parametrize("name, call", [
        ("solve_best", lambda mdp, phi, xi: solve_best(mdp, phi, xi)),
        ("solve_td", lambda mdp, phi, xi: solve_td(mdp, phi, xi)),
        ("solve_br", lambda mdp, phi, xi: solve_br(mdp, phi, xi)),
        ("solve_oblique", lambda mdp, phi, xi: solve_oblique(mdp, phi, np.ones((3, 1)))),
        ("error_bound", lambda mdp, phi, xi: error_bound(mdp, phi, xi, np.ones((3, 1)))),
        ("error_report", lambda mdp, phi, xi: error_report(mdp, phi, xi, np.zeros(1))),
        ("td_direction", lambda mdp, phi, xi: td_direction(mdp, phi, xi)),
        ("br_direction", lambda mdp, phi, xi: br_direction(mdp, phi, xi)),
        ("optimal_direction", lambda mdp, phi, xi: optimal_direction(mdp, phi, xi)),
    ])
    def test_feature_rows_checked_against_chain(self, name, call):
        # a 3-state chain, 3 weights and a 3-row direction: only Phi is wrong
        mdp = make_mdp(np.full((3, 3), 1.0 / 3.0), [1.0, 0.0, -1.0], 0.9)
        phi = make_feature_basis([[1.0], [2.0]])
        xi = make_state_weights([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=r"^features have 2 rows, expected 3$"):
            call(mdp, phi, xi)


class TestTdFixedPoint:
    def test_projected_fixed_point_residual(self, rng):
        from projeval import bellman_apply

        for _ in range(25):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            sol = solve_td(mdp, phi, xi)
            if not sol.ok:
                continue
            pi = orthogonal_coefficient_map(phi, xi)
            projected_t = phi.matrix @ (pi.matrix @ bellman_apply(mdp, sol.value_estimate))
            assert weighted_norm(sol.value_estimate - projected_t, xi) <= 1e-8


class TestBrMinimizer:
    def test_first_order_optimality(self, rng):
        for _ in range(20):
            mdp, phi, xi = random_instance(rng, n_max=15, m_max=8)
            sol = solve_br(mdp, phi, xi)
            psi = l_matrix(mdp) @ phi.matrix
            grad = psi.T @ (xi.weights * (psi @ sol.weights - mdp.rewards))
            assert np.max(np.abs(grad)) <= 1e-8

    def test_local_minimality_probe(self, rng):
        mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
        sol = solve_br(mdp, phi, xi)
        report = error_report(mdp, phi, xi, sol.weights)
        for _ in range(100):
            u = rng.normal(size=phi.dim)
            u /= np.linalg.norm(u)
            perturbed = sol.weights + 1e-3 * u
            assert error_report(mdp, phi, xi, perturbed).br_residual >= report.br_residual

    def test_projection_in_residual_metric(self, rng):
        # the BR solution is the orthogonal projection of v in the norm
        # induced by Q = L' Xi L
        for _ in range(20):
            mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
            L = l_matrix(mdp)
            q = L.T @ (xi.weights[:, None] * L)
            w = np.linalg.solve(phi.matrix.T @ q @ phi.matrix,
                                phi.matrix.T @ q @ exact_value(mdp))
            sol = solve_br(mdp, phi, xi)
            np.testing.assert_allclose(phi.matrix @ w, sol.value_estimate, atol=1e-8)


class TestOptimalDirection:
    def test_reproduces_best_projection(self, rng):
        for _ in range(100):
            mdp, phi, xi = random_instance(rng, n_max=20, m_max=10)
            x_star = optimal_direction(mdp, phi, xi)
            obl = solve_oblique(mdp, phi, x_star)
            best = solve_best(mdp, phi, xi)
            np.testing.assert_allclose(obl.weights, best.weights, atol=1e-8)

    def test_small_discount_limit(self, rng):
        mdp, phi, xi = random_instance(rng, n_max=10, m_max=5, gamma=1e-6)
        x_star = optimal_direction(mdp, phi, xi)
        xiphi = phi.matrix * xi.weights[:, None]
        np.testing.assert_allclose(x_star, xiphi, rtol=1e-4, atol=1e-9)

    def test_defining_equation_residual(self):
        inst = example1(0.5, 0.0)
        x_star = optimal_direction(inst.mdp, inst.phi, inst.xi)
        xiphi = inst.phi.matrix * inst.xi.weights[:, None]
        resid = l_matrix(inst.mdp).T @ x_star - xiphi
        assert np.max(np.abs(resid)) <= 1e-12


class TestScalingCovariance:
    def test_weights_scale_with_reward(self, rng):
        mdp, phi, xi = random_instance(rng, n_max=12, m_max=6)
        scaled = make_mdp(mdp.transitions, 3.5 * mdp.rewards, mdp.discount)
        for solver in (solve_best, solve_td, solve_br):
            a, b = solver(mdp, phi, xi), solver(scaled, phi, xi)
            if not (a.ok and b.ok):
                continue
            np.testing.assert_allclose(b.weights, 3.5 * a.weights, atol=1e-10)

    def test_value_estimate_consistency(self, rng):
        mdp, phi, xi = random_instance(rng, n_max=10, m_max=5)
        sol = solve_td(mdp, phi, xi)
        if sol.ok:
            np.testing.assert_allclose(sol.value_estimate,
                                       phi.matrix @ sol.weights, atol=1e-12)
