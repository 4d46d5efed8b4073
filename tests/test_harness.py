import hashlib
from collections import Counter

import numpy as np
import pytest

from projeval import (
    SeedSpec,
    SweepConfig,
    aggregate,
    harness,
    kernels,
    matio,
    random_chain,
    random_features,
    random_weights,
    run_column,
    solve_best,
    solve_br,
    solve_td,
    sweep,
    weighted_norm,
)
from projeval.mdp import exact_value

from oracles import aggregate_loop, exact_bound_test, exact_errors

SMALL = SweepConfig(gammas=(0.9, 0.99), n_min=2, n_max=5,
                    feature_trials=2, mdp_trials=2, master_seed=123)
UNEVEN = SweepConfig(gammas=(0.95,), n_min=2, n_max=6,
                     feature_trials=3, mdp_trials=2, master_seed=7)
# `projeval sweep --gammas 0.99 --n-max 8 --trials 1`: stacks of one and F = M = 1
# cells, the edge cases of the stacked seeding and of the TD gate's SVD-free certificate
ONE_TRIAL = SweepConfig(gammas=(0.99,), n_max=8, feature_trials=1, mdp_trials=1)

# sha256 of the trials.csv / cells.csv these grids write; SMALL and UNEVEN were
# recorded before the sweep ran a cell as one stacked kernel call with one draw per
# chain and basis
CSV_DIGESTS = {
    "SMALL": ("d1983732a5d5826c0523777d2be572c122d2c4164c8e91a906e683d710c1cb36",
              "5cc6b8a2e374add080fb78ef2da815766cba6b3f75aa937073d5e2533d956645"),
    "UNEVEN": ("7884a7712c383483b7af24628f9d4e15901d7235835b8b91cc59ec52e2b09f7a",
               "6ecfc37f9afe2b5cd2dd08cd52ac15ad2f03bbfa3a9ca10e1174b4278b6e89dc"),
    "ONE_TRIAL": ("b7c352756b0ce14797793354225a57d95f1a3ff4a1341a3adcf462e67382fbbb",
                  "a2e13d1ee12605a58e5c9da1d93e0f6f2500c0d02b6e6bacdef2d567eb17e6fb"),
}


def trials(*rows):
    """A record array of hand-built trials, each with ||v||_xi = 1."""
    return np.rec.array([row + (1.0,) for row in rows], dtype=harness.TRIAL_DTYPE)


def assert_records_equal(a, b):
    """Trial or cell records, field by field, NaN equal to NaN."""
    assert a.dtype == b.dtype and a.dtype in (harness.TRIAL_DTYPE, harness.CELL_DTYPE)
    for field in a.dtype.names:
        np.testing.assert_array_equal(a[field], b[field], err_msg=field, strict=True)


def run_trial(config, gamma_index, n, k, phi_trial, mdp_trial):
    """One trial's record, as run_column computes it within its column."""
    index = ((k - 1) * config.feature_trials + phi_trial) * config.mdp_trials + mdp_trial
    rec = run_column(config, gamma_index, n)[index]
    assert (rec.k, rec.phi_trial, rec.mdp_trial) == (k, phi_trial, mdp_trial)
    return rec


def trial_instance(config, gamma_index, n, k, phi_trial, mdp_trial):
    """The (mdp, phi, xi) of one trial, drawn from the documented seed labels:
    role 0 (chain) labelled (gamma_index, n, mdp_trial), roles 1 and 2
    (features, weights) labelled (gamma_index, n, k, phi_trial)."""
    root = SeedSpec(config.master_seed)
    gamma = config.gammas[gamma_index]
    return (random_chain(n, gamma, root.derive(0, gamma_index, n, mdp_trial)),
            random_features(n, k, root.derive(1, gamma_index, n, k, phi_trial)),
            random_weights(n, root.derive(2, gamma_index, n, k, phi_trial)))


# gamma 0.999, n = 10 trials (k, phi_trial, mdp_trial) of the default grid
REFEREE_TRIALS = [(9, 18, 5), (9, 12, 6), (9, 0, 5)]


def assert_passes_referee(x, trial, b, source):
    """A bound b of direction x on a REFEREE_TRIALS trial passes the exact referee when
    b (1 - 1e-7) < exact < b (1 + 1e-7)."""
    holds = exact_bound_test(*trial_instance(SweepConfig(), 3, 10, *trial), x)
    assert holds((b * (1 + 1e-7)) ** 2), f"{source}'s b_{x} {b:.10g} is below the exact bound"
    assert not holds((b * (1 - 1e-7)) ** 2), f"{source}'s b_{x} {b:.10g} is above the exact bound"


class TestRunTrial:
    def test_matches_reference_solvers(self):
        config = SweepConfig(gammas=(0.95,), n_min=2, n_max=8,
                             feature_trials=3, mdp_trials=3)
        for n in (3, 6, 8):
            for k in (1, 2):
                rec = run_trial(config, 0, n, k, 1, 2)
                mdp, phi, xi = trial_instance(config, 0, n, k, 1, 2)
                v = exact_value(mdp)
                best = solve_best(mdp, phi, xi)
                assert rec.e == pytest.approx(
                    weighted_norm(v - best.value_estimate, xi), rel=1e-6, abs=1e-9)
                br = solve_br(mdp, phi, xi)
                assert rec.e_br == pytest.approx(
                    weighted_norm(v - br.value_estimate, xi), rel=1e-6, abs=1e-9)
                td = solve_td(mdp, phi, xi)
                assert rec.td_singular == (not td.ok)
                if td.ok:
                    assert rec.e_td == pytest.approx(
                        weighted_norm(v - td.value_estimate, xi), rel=1e-6, abs=1e-9)
                    assert rec.b_td == pytest.approx(td.condition_estimate, rel=1e-6)
                assert rec.b_br == pytest.approx(br.condition_estimate, rel=1e-6)

    def test_best_error_is_minimal(self):
        config = SMALL
        for n in range(2, 6):
            for k in range(1, n + 1):
                rec = run_trial(config, 0, n, k, 0, 0)
                if not rec.td_singular:
                    assert rec.e <= rec.e_td + 1e-10
                assert rec.e <= rec.e_br + 1e-10

    def test_full_basis_cell_is_exact(self):
        rec = run_trial(SMALL, 0, 4, 4, 1, 1)
        assert rec.e <= 1e-8
        assert rec.e_br <= 1e-8
        if not rec.td_singular:
            assert rec.e_td <= 1e-8

    def test_deterministic(self):
        a = run_trial(SMALL, 1, 5, 3, 1, 0)
        b = run_trial(SMALL, 1, 5, 3, 1, 0)
        assert_records_equal(a, b)

    def test_worst_td_over_br_trials_match_exact_arithmetic(self):
        # the tail of e_td / e_br carries the sweep's mean, so its digits are checked
        # against exact rational values of the same float instances
        config = SweepConfig(gammas=(0.9, 0.99, 0.999), n_max=12,
                             feature_trials=4, mdp_trials=4)
        rec = sweep(config)
        tail = rec[(rec.k < rec.n) & ~rec.td_singular]
        assert len(tail) == 3 * 66 * 16
        for t in tail[np.argsort(tail.e_td / tail.e_br)[-8:]]:
            instance = trial_instance(config, config.gammas.index(t.gamma), t.n, t.k,
                                      t.phi_trial, t.mdp_trial)
            np.testing.assert_allclose([t.e, t.e_td, t.e_br], exact_errors(*instance),
                                       rtol=1e-9, err_msg=str(t))

    @pytest.mark.parametrize("x", ["td", pytest.param("br", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 11: BR bound formed from squared Gram factors"))])
    def test_errors_within_their_bounds(self, x):
        # e_x <= b_x e holds exactly for every direction (||I - Pi|| = ||Pi||); gamma 0.999,
        # n = 10 holds the trial k = 9, phi_trial 18, mdp_trial 5, whose b_br is 4.1% low
        rec = run_column(SweepConfig(), 3, 10)
        rec = rec[rec.e > 1e-9]  # a singular TD trial's NaN e_td and b_td compare False
        over = rec[rec[f"e_{x}"] > rec[f"b_{x}"] * rec.e * (1 + 1e-6)]
        assert len(over) == 0, f"{len(over)} trials above their bound, k in {set(over.k.tolist())}"

    @pytest.mark.parametrize("x", ["td", pytest.param("br", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 11: BR bound formed from squared Gram factors"))])
    @pytest.mark.parametrize("k, phi_trial, mdp_trial", REFEREE_TRIALS)
    def test_bounds_pass_exact_referee(self, x, k, phi_trial, mdp_trial):
        # gamma 0.999, n = 10: the kernel's b_br is low at (9, 18, 5) and (9, 0, 5) and
        # high at (9, 12, 6)
        rec = run_trial(SweepConfig(), 3, 10, k, phi_trial, mdp_trial)
        assert_passes_referee(x, (k, phi_trial, mdp_trial), rec[f"b_{x}"], "kernel")

    @pytest.mark.parametrize("x", ["td", "br"])
    @pytest.mark.parametrize("k, phi_trial, mdp_trial", REFEREE_TRIALS)
    def test_error_bound_passes_exact_referee(self, x, k, phi_trial, mdp_trial):
        mdp, phi, xi = trial_instance(SweepConfig(), 3, 10, k, phi_trial, mdp_trial)
        b = {"td": solve_td, "br": solve_br}[x](mdp, phi, xi).condition_estimate
        assert_passes_referee(x, (k, phi_trial, mdp_trial), b, f"solve_{x}")

    @pytest.mark.parametrize("gamma, n, k, phi_trial, mdp_trial, exact", [
        (0.99, 30, 29, 14, 5, 2.7042),
        (0.999, 22, 21, 15, 19, 4.9245),
        (0.999, 28, 27, 2, 2, 8.7948),
        (0.999, 27, 26, 14, 7, 2.3168),
    ])
    def test_error_bound_br_matches_exact_table(self, gamma, n, k, phi_trial, mdp_trial, exact):
        # ROADMAP item 11's trials, whose 60-digit exact BR bounds the Gram-factor
        # bound overstated by up to +559%
        config = SweepConfig()
        mdp, phi, xi = trial_instance(config, config.gammas.index(gamma), n, k,
                                      phi_trial, mdp_trial)
        assert solve_br(mdp, phi, xi).condition_estimate == pytest.approx(exact, rel=1e-4)


class TestSweep:
    def test_grid_shape(self):
        records = sweep(SMALL)
        # cells per gamma: sum_{n=2..5} n = 14; 4 records per cell; 2 gammas
        assert len(records) == 14 * 4 * 2
        cells = {(r.gamma, r.n, r.k) for r in records}
        assert len(cells) == 28

    def test_result_is_one_record_array(self):
        records = sweep(SMALL)
        assert isinstance(records, np.recarray)
        assert len(records) == 14 * 4 * 2
        rec = records[1]
        assert (rec.gamma, rec.n, rec.k, rec.phi_trial, rec.mdp_trial) == (0.9, 2, 1, 0, 1)
        assert rec.e <= rec.e_br and isinstance(rec.td_singular, np.bool_)

    def test_repeat_runs_identical(self):
        assert_records_equal(sweep(SMALL), sweep(SMALL))

    @pytest.mark.parametrize("name", ["SMALL", "UNEVEN"])
    def test_parallel_matches_serial(self, name):
        # the pool hands the columns back in canonical order, one at a time
        config = {"SMALL": SMALL, "UNEVEN": UNEVEN, "ONE_TRIAL": ONE_TRIAL}[name]
        assert_records_equal(sweep(config, workers=2), sweep(config))

    def test_chains_drawn_once_per_column(self, monkeypatch):
        # every generator the sweep seeds, counted by its labels: one per chain
        # of a column and one per basis and weight vector of a cell, redraws included.
        # A single draw seeds through rng; member p of a stack is seeded as derive(p)
        drawn = Counter()

        def counted_rng(seed, _rng=SeedSpec.rng):
            drawn[seed.labels] += 1
            return _rng(seed)

        def counted_rngs(seed, count, _rngs=SeedSpec.rngs):
            if count is not None:
                drawn.update(seed.labels + (p,) for p in range(count))
            return _rngs(seed, count)

        monkeypatch.setattr(SeedSpec, "rng", counted_rng)
        monkeypatch.setattr(SeedSpec, "rngs", counted_rngs)
        records = sweep(SMALL)
        expected = Counter()
        for r in records:
            gamma_index = SMALL.gammas.index(r.gamma)
            expected[0, gamma_index, r.n, r.mdp_trial] = 1
            expected[1, gamma_index, r.n, r.k, r.phi_trial] = 1
            expected[2, gamma_index, r.n, r.k, r.phi_trial] = 1
        assert drawn == expected

    def test_default_trial_counts_pinned(self, tmp_path):
        # one default-grid column, 20x20 trials a cell: gamma 0.99, n = 12
        records = run_column(SweepConfig(), 2, 12)
        assert len(records) == 4800
        matio.write_trial_csv(tmp_path / "trials.csv", records)
        assert hashlib.sha256((tmp_path / "trials.csv").read_bytes()).hexdigest() == \
            "a3ad9f164de794983290f2796a66004fd8fa47f82f162dc9fde7ae31a48382b0"

    @pytest.mark.parametrize("gamma, gamma_index, n, phi_trial, mdp_trials", [
        (0.95, 1, 21, 18, [0, 2, 6, 7, 10, 15, 16, 18]),
        (0.999, 3, 25, 14, [0]),
    ])
    def test_default_grid_singular_trials_pinned(self, gamma, gamma_index, n, phi_trial,
                                                 mdp_trials):
        # the default grid's only TD-singular trials, all in these two k = n cells, drawn
        # from the documented seed labels as run_column draws a cell; no smaller pinned grid
        # has one. ROADMAP item 7 removes the k = n cells, and these trials with them
        config = SweepConfig()
        assert config.gammas[gamma_index] == gamma
        F, M = config.feature_trials, config.mdp_trials
        root = SeedSpec(config.master_seed)
        out = np.zeros((F, M), dtype=harness.TRIAL_DTYPE)
        kernels.cell_stats(random_chain(n, gamma, root.derive(0, gamma_index, n), count=M),
                           random_features(n, n, root.derive(1, gamma_index, n, n), count=F),
                           random_weights(n, root.derive(2, gamma_index, n, n), count=F), out)
        singular = np.zeros((F, M), dtype=bool)
        singular[phi_trial, mdp_trials] = True
        np.testing.assert_array_equal(out[kernels.TD_SINGULAR], singular)
        for field in ("e_td", "b_td"):
            np.testing.assert_array_equal(np.isnan(out[field]), singular, err_msg=field)

    @pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
    def test_csv_bytes_pinned(self, name, tmp_path):
        config = {"SMALL": SMALL, "UNEVEN": UNEVEN, "ONE_TRIAL": ONE_TRIAL}[name]
        records = sweep(config)
        cells = aggregate(records, singular_policy=config.singular_policy,
                          expected_cell_size=config.feature_trials * config.mdp_trials)
        matio.write_trial_csv(tmp_path / "trials.csv", records)
        matio.write_cell_csv(tmp_path / "cells.csv", cells)
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("trials.csv", "cells.csv"))
        assert got == CSV_DIGESTS[name]


class TestAggregate:
    def test_hand_built_cell(self):
        recs = trials(
            (0.9, 4, 2, 0, 0, 0.5, 1.0, 2.0, 1.5, 2.5, False),
            (0.9, 4, 2, 0, 1, 0.5, 3.0, 1.0, 3.5, 1.5, False),
        )
        (cell,) = aggregate(recs)
        assert cell.td_win_ratio == pytest.approx(0.5)
        assert cell.mean_td_over_br == pytest.approx(1.75)
        # both bound orderings match the error orderings here
        assert cell.bound_prediction_ratio == pytest.approx(1.0)
        assert cell.mean_rel_td == pytest.approx((2.0 + 6.0) / 2)
        assert cell.mean_rel_br == pytest.approx((4.0 + 2.0) / 2)

    def test_singular_policies(self):
        recs = trials(
            (0.9, 4, 2, 0, 0, 0.5, np.nan, 2.0, np.nan, 2.5, True),
            (0.9, 4, 2, 0, 1, 0.5, 1.0, 2.0, 1.5, 2.5, False),
        )
        (worst,) = aggregate(recs, singular_policy="worst")
        assert worst.td_win_ratio == pytest.approx(0.5)
        assert worst.singular_count == 1
        (excl,) = aggregate(recs, singular_policy="exclude")
        assert excl.td_win_ratio == pytest.approx(1.0)
        assert excl.singular_count == 1
        # ratio means never include the singular record
        assert worst.mean_td_over_br == excl.mean_td_over_br == pytest.approx(0.5)

    def test_degenerate_records_excluded_from_ratios(self):
        recs = trials(
            (0.9, 3, 3, 0, 0, 1e-15, 1e-15, 1e-15, 1.0, 1.0, False),
        )
        (cell,) = aggregate(recs)
        assert cell.excluded_count == 1
        assert np.isnan(cell.mean_td_over_br)
        assert np.isnan(cell.mean_rel_td)
        assert np.isnan(cell.mean_rel_br)

    def test_unknown_policy_raises(self):
        recs = trials((0.9, 4, 2, 0, 0, 0.5, 1.0, 2.0, 1.5, 2.5, False))
        with pytest.raises(ValueError, match="^singular_policy must be one of"):
            aggregate(recs, singular_policy="bogus")

    def test_incomplete_cell_raises(self):
        recs = trials((0.9, 4, 2, 0, 0, 0.5, 1.0, 2.0, 1.5, 2.5, False))
        with pytest.raises(ValueError, match="gamma=0.9"):
            aggregate(recs, expected_cell_size=4)

    def test_cells_come_back_in_input_order(self):
        # whole cells shuffled, each cell's records kept in their order
        records = sweep(UNEVEN)
        size = UNEVEN.feature_trials * UNEVEN.mdp_trials
        cells = np.split(records, len(records) // size)
        order = np.random.default_rng(0).permutation(len(cells))
        shuffled = np.concatenate([cells[i] for i in order])
        expected = aggregate(records, expected_cell_size=size)[order]
        got = aggregate(shuffled, expected_cell_size=size)
        assert_records_equal(got, expected)
        assert not np.array_equal(shuffled["k"], records["k"])

    def test_split_cell_raises(self):
        # the cell (0.95, 2, 1) in two runs, the cell (0.95, 2, 2) between them
        records = sweep(UNEVEN)
        split = np.concatenate([records[:3], records[6:12], records[3:6], records[12:]])
        with pytest.raises(ValueError, match=r"^cell \(gamma=0.95, n=2, k=1\) is split"):
            aggregate(split, expected_cell_size=UNEVEN.feature_trials * UNEVEN.mdp_trials)

    @pytest.mark.parametrize("policy", harness.SINGULAR_POLICIES)
    def test_matches_record_loop_bit_for_bit(self, policy):
        records = np.concatenate([sweep(SMALL), sweep(UNEVEN)]).view(np.recarray)
        # every 7th trial made singular, as the kernel writes one, and every 11th
        # degenerate, its best error on the cutoff, so that k < n cells exclude trials
        records.td_singular[::7] = True
        records.e_td[::7] = records.b_td[::7] = np.nan
        records.e[::11] = np.fmax(harness.DEGENERATE_ERROR,
                                  harness.DEGENERATE_RELATIVE_ERROR * records.v_norm[::11])
        assert_records_equal(aggregate(records, singular_policy=policy),
                             aggregate_loop(records, policy))
        cells = aggregate(records)
        assert cells.excluded_count[cells.k < cells.n].sum() > 0

    def test_relative_means_at_least_one(self):
        records = sweep(SMALL)
        for cell in aggregate(records):
            if not np.isnan(cell.mean_rel_td):
                assert cell.mean_rel_td >= 1.0 - 1e-8
            if not np.isnan(cell.mean_rel_br):
                assert cell.mean_rel_br >= 1.0 - 1e-8


class TestConfigValidation:
    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            SweepConfig(gammas=(1.5,))

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            SweepConfig(feature_trials=0)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            SweepConfig(singular_policy="ignore")

    @pytest.mark.parametrize("fields, message", [
        (dict(gammas=()), "gammas must be nonempty and distinct"),
        (dict(gammas=(0.9, 0.99, 0.9)), "gammas must be nonempty and distinct"),
        (dict(n_min=1), "need 2 <= n_min <= n_max, got 1 and 30"),
        (dict(n_min=5, n_max=4), "need 2 <= n_min <= n_max, got 5 and 4"),
    ])
    def test_grids_that_run_nothing_or_wrongly(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(**fields)

    @pytest.mark.parametrize("fields", [dict(n_max=3.5), dict(n_min=2.0), dict(feature_trials=2.5),
                                        dict(mdp_trials=True), dict(n_max="5")])
    def test_sizes_must_be_integers(self, fields):
        [(name, value)] = fields.items()
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            SweepConfig(**fields)

    def test_numpy_integer_sizes_pass(self):
        config = SweepConfig(n_max=np.int64(3), feature_trials=np.int32(2), mdp_trials=np.uint8(1))
        assert (config.n_max, config.feature_trials, config.mdp_trials) == (3, 2, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, np.float64(3), "7", None])
    def test_bad_master_seed(self, seed):
        with pytest.raises(ValueError, match=r"^master_seed must be an integer >= 0, got "):
            SweepConfig(master_seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7), np.uint32(7), True, 2 ** 70])
    def test_integer_master_seeds_pass(self, seed):
        assert SweepConfig(master_seed=seed).master_seed == seed
