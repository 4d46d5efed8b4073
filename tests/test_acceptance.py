"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them). Expected values are frozen from closed forms or independent oracles;
tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from projeval import (
    SweepConfig,
    aggregate,
    br_direction,
    br_guarantee,
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
    stationary_td_bound_check,
    sweep,
    td_direction,
    weighted_norm,
)
from projeval.instances import (
    SeedSpec,
    block_triangular,
    ergodic_chain,
    example1,
    random_chain,
    random_features,
    random_weights,
)
from projeval.matio import write_cell_csv, write_trial_csv
from projeval.mdp import l_matrix, stationary_distribution

from oracles import SingularMatrixError, oblique_coefficient_map, operator_norm_oracle

GAMMA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
THETA_GRID = (0.0, 1.0, 2.0, 4.0)

REDUCED_SWEEP = SweepConfig(gammas=(0.9, 0.99), n_min=2, n_max=15,
                            feature_trials=10, mdp_trials=10)


def report(number, name, passed=True):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


def sample_instances(count, n_max=20, m_max=10, seed=0, gamma=None):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        k = int(rng.integers(1, min(m_max, n) + 1))
        g = gamma if gamma is not None else float(rng.uniform(0.2, 0.98))
        spec = SeedSpec(int(rng.integers(1 << 32)))
        mdp = random_chain(n, g, spec)
        phi = random_features(n, k, spec.derive(1))
        xi = random_weights(n, spec.derive(2))
        out.append((mdp, phi, xi, rng))
    return out


@pytest.fixture(scope="module")
def instances_200():
    return sample_instances(200)


@pytest.fixture(scope="module")
def reduced_sweep_records():
    start = time.monotonic()
    records = sweep(REDUCED_SWEEP)
    return records, time.monotonic() - start


def test_criterion_01_example1_closed_forms():
    start = time.monotonic()
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
    singular = example1(5.0 / 6.0, 1.0)
    assert solve_td(singular.mdp, singular.phi, singular.xi).status == "singular"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "analytic 2-state closed forms + singular discount")


def test_criterion_02_pythagorean_identity(instances_200):
    start = time.monotonic()
    for mdp, phi, xi, rng in instances_200:
        rep = error_report(mdp, phi, xi, rng.normal(size=phi.dim))
        assert abs(rep.br_residual ** 2 - rep.td_error ** 2
                   - rep.adequacy ** 2) <= 1e-8
    assert time.monotonic() - start < 5.0
    report(2, "residual splits into TD error plus adequacy (200 instances)")


def test_criterion_03_oblique_unification(instances_200):
    start = time.monotonic()
    for mdp, phi, xi, rng in instances_200:
        td = solve_td(mdp, phi, xi)
        obl_td = solve_oblique(mdp, phi, td_direction(mdp, phi, xi))
        assert td.status == obl_td.status
        if td.ok:
            np.testing.assert_allclose(obl_td.weights, td.weights, atol=1e-8)
        br = solve_br(mdp, phi, xi)
        obl_br = solve_oblique(mdp, phi, br_direction(mdp, phi, xi))
        np.testing.assert_allclose(obl_br.weights, br.weights, atol=1e-8)
        # general direction: the solution is the oblique projection of v
        x = rng.normal(size=phi.matrix.shape)
        sol = solve_oblique(mdp, phi, x)
        if not sol.ok:
            continue
        try:
            pi = oblique_coefficient_map(phi, l_matrix(mdp).T @ x)
        except SingularMatrixError:
            continue
        projected = phi.matrix @ (pi.matrix @ exact_value(mdp))
        np.testing.assert_allclose(sol.value_estimate, projected, atol=1e-8)
    assert time.monotonic() - start < 10.0
    report(3, "TD and BR are oblique solves; solution projects the value")


def test_criterion_04_bound_correctness(instances_200):
    for mdp, phi, xi, rng in instances_200[:100]:
        x = rng.normal(size=phi.matrix.shape)
        rep = error_bound(mdp, phi, xi, x)
        sol = solve_oblique(mdp, phi, x)
        if not (rep.ok and sol.ok):
            continue
        try:
            pi = oblique_coefficient_map(phi, l_matrix(mdp).T @ x)
        except SingularMatrixError:
            continue
        oracle = operator_norm_oracle(phi.matrix @ pi.matrix, xi)
        assert rep.bound == pytest.approx(oracle, rel=1e-8)
        v = exact_value(mdp)
        best = solve_best(mdp, phi, xi)
        lhs = weighted_norm(v - sol.value_estimate, xi)
        assert lhs <= rep.bound * weighted_norm(v - best.value_estimate, xi) + 1e-8

    inst = example1(0.5, 0.0)
    b_td = error_bound(inst.mdp, inst.phi, inst.xi,
                       td_direction(inst.mdp, inst.phi, inst.xi)).bound
    b_br = error_bound(inst.mdp, inst.phi, inst.xi,
                       br_direction(inst.mdp, inst.phi, inst.xi)).bound
    assert b_td == pytest.approx(1.25, abs=1e-12)
    assert b_br == pytest.approx(math.sqrt(1.25), abs=1e-12)
    v = exact_value(inst.mdp)

    def err(w):
        return weighted_norm(v - inst.phi.matrix[:, 0] * w, inst.xi)

    e_best = err(inst.reference.w_best)
    assert err(inst.reference.w_td) / e_best == pytest.approx(b_td, abs=1e-10)
    assert err(inst.reference.w_br) / e_best == pytest.approx(b_br, abs=1e-10)
    report(4, "spectral bound equals norm oracle; analytic values 1.25, sqrt(1.25)")


def test_criterion_05_optimal_direction():
    for mdp, phi, xi, _ in sample_instances(100, seed=5):
        obl = solve_oblique(mdp, phi, optimal_direction(mdp, phi, xi))
        best = solve_best(mdp, phi, xi)
        np.testing.assert_allclose(obl.weights, best.weights, atol=1e-8)
    report(5, "optimal direction reproduces the best projection (100 instances)")


def test_criterion_06_exactness_corollary():
    for mdp, phi, xi, rng in sample_instances(50, seed=6):
        w0 = rng.normal(size=phi.dim)
        m = make_mdp(mdp.transitions, l_matrix(mdp) @ phi.matrix @ w0,
                     mdp.discount)
        for solver in (solve_best, solve_td, solve_br):
            sol = solver(m, phi, xi)
            if sol.ok:
                np.testing.assert_allclose(sol.weights, w0, atol=1e-8)
        sol = solve_oblique(m, phi, optimal_direction(m, phi, xi))
        np.testing.assert_allclose(sol.weights, w0, atol=1e-8)
    report(6, "representable values recovered by every method (50 instances)")


def test_criterion_07_performance_guarantees():
    for mdp, phi, xi, _ in sample_instances(50, seed=7, gamma=0.9):
        sol = solve_br(mdp, phi, xi)
        lhs, rhs = br_guarantee(mdp, xi, sol.value_estimate)
        assert lhs <= rhs + 1e-8
    rng = np.random.default_rng(70)
    constant = 1.0 / math.sqrt(1.0 - 0.9 ** 2)
    for i in range(50):
        n = int(rng.integers(2, 15))
        mdp = ergodic_chain(n, 0.9, SeedSpec(7000 + i))
        xi = make_state_weights(stationary_distribution(mdp))
        phi = make_feature_basis(
            rng.uniform(-1, 1, size=(n, int(rng.integers(1, n + 1)))))
        lhs, rhs = stationary_td_bound_check(mdp, phi, xi)
        assert lhs <= rhs + 1e-8
        b_td = error_bound(mdp, phi, xi, td_direction(mdp, phi, xi)).bound
        assert b_td <= constant + 1e-8
    report(7, "residual guarantee and stationary-distribution TD bound")


def test_criterion_08_block_triangular():
    td_checked = 0
    br_deviations = 0
    total = 50
    for i in range(total):
        inst = block_triangular(3, 4, SeedSpec(800 + i))
        v = exact_value(inst.mdp)
        td = solve_td(inst.mdp, inst.phi, inst.xi)
        if td.ok:
            np.testing.assert_allclose(td.value_estimate[:3], v[:3], atol=1e-8)
            td_checked += 1
        br = solve_br(inst.mdp, inst.phi, inst.xi)
        if np.max(np.abs(br.value_estimate[:3] - v[:3])) > 1e-6:
            br_deviations += 1
    assert td_checked >= 45
    assert br_deviations >= 45
    report(8, "first block: TD exact, BR generically inexact (50 instances)")


def test_criterion_09_sweep_reproduction(reduced_sweep_records):
    records, elapsed = reduced_sweep_records
    assert elapsed < 300.0
    cells = aggregate(records, expected_cell_size=100)
    for gamma in REDUCED_SWEEP.gammas:
        sub = [c for c in cells if c.gamma == gamma]
        assert float(np.mean([c.td_win_ratio for c in sub])) > 0.5
    sub = [c for c in cells if c.gamma == 0.99]
    ratios = [c.mean_td_over_br for c in sub if not math.isnan(c.mean_td_over_br)]
    assert float(np.mean(ratios)) > 1.0
    rel_br = [c.mean_rel_br for c in cells if not math.isnan(c.mean_rel_br)]
    rel_td = [c.mean_rel_td for c in cells if not math.isnan(c.mean_rel_td)]
    assert all(math.isfinite(x) for x in rel_br)
    assert max(rel_br) < max(rel_td)
    report(9, "reduced sweep: TD wins majority, BR better on average, BR smooth")


def test_criterion_10_determinism(reduced_sweep_records, tmp_path):
    records, _ = reduced_sweep_records
    rerun = sweep(REDUCED_SWEEP, workers=2)
    paths = []
    for tag, recs in (("a", records), ("b", rerun)):
        trial = tmp_path / f"trials_{tag}.csv"
        cell = tmp_path / f"cells_{tag}.csv"
        write_trial_csv(str(trial), recs)
        write_cell_csv(str(cell), aggregate(recs))
        paths.append((trial, cell))
    (ta, ca), (tb, cb) = paths
    assert ta.read_bytes() == tb.read_bytes()
    assert ca.read_bytes() == cb.read_bytes()
    report(10, "byte-identical CSVs across runs and worker counts")
