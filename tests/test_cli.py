import concurrent.futures
import csv
import hashlib
import io
import math
import os
import re
import tempfile
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projeval import (SweepConfig, aggregate, cli, harness, make_feature_basis, make_mdp,
                      make_state_weights, sweep)
from projeval.cli import build_parser, main
from projeval.heatmap import render_heatmap
from projeval.matio import (MatrixParseError, parse_matrix, parse_vector, read_csv,
                            write_cell_csv)

from oracles import exact_best_weights, write_matrix
from test_harness import CSV_DIGESTS


@pytest.fixture
def example1_files(tmp_path):
    paths = {}
    for name, content in {
        "P": "0 1\n0 1\n",
        "r": "1\n0\n",
        "phi": "1\n2\n",
        "xi": "0.5\n0.5\n",
    }.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(content)
        paths[name] = str(p)
    return paths


def usable_cpus(monkeypatch, count):
    """Make the process's CPU affinity set hold `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def near_dependent_files(tmp_path, seed):
    """A 4-state instance whose two feature columns differ by about 1e-6.

    The normal equations of its TD, BR and Gram systems, which no solve forms,
    have cancellation-aware condition estimates near the 1e12 singularity
    limit, on one side or the other depending on the seed; the TD and BR
    bounds 1 / sigma_min(K) the solves gate on are all below 3.
    """
    rng = np.random.default_rng(seed)
    P = rng.uniform(size=(4, 4))
    P /= P.sum(axis=1, keepdims=True)
    r = rng.uniform(-1.0, 1.0, 4)
    a = rng.uniform(-1.0, 1.0, 4)
    b = a + 1e-6 * rng.uniform(-1.0, 1.0, 4)
    paths = {}
    for name, array in (("P", P), ("r", r), ("phi", np.column_stack([a, b])),
                        ("xi", np.ones(4))):
        paths[name] = str(tmp_path / f"{name}.txt")
        np.savetxt(paths[name], array, fmt="%.17g")
    return paths


def random_files(tmp_path, seed, n=6, k=2):
    """Files of a dense random instance with n states, k features and a
    random n x k direction ("x")."""
    rng = np.random.default_rng(seed)
    P = rng.uniform(size=(n, n))
    paths = {}
    for name, array in (("P", P / P.sum(axis=1, keepdims=True)),
                        ("r", rng.uniform(-1.0, 1.0, n)),
                        ("phi", rng.uniform(-1.0, 1.0, (n, k))),
                        ("xi", rng.uniform(0.1, 1.0, n)),
                        ("x", rng.uniform(-1.0, 1.0, (n, k)))):
        paths[name] = str(tmp_path / f"{name}.txt")
        np.savetxt(paths[name], array, fmt="%.17g")
    return paths


# 1 - 2**-53 passes the 0 < gamma < 1 check, but L = I - gamma P is numerically
# singular: its condition number ||L||_inf / (1 - gamma) is about 1e16
NEXT_TO_ONE = 1.0 - 2.0 ** -53

# L's condition number is at most (1 + gamma) / (1 - gamma): about 2e7 and 2e11 at
# the first two, below the 1e12 limit although v is of size 1 / (1 - gamma); above
# it at the third
NEAR_ONE = (0.9999999, 0.99999999999)
PAST_THE_LIMIT = 0.999999999999


def assert_one_line(err, prefix):
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


def direction(method, paths):
    """The `--direction` option for `method`: only oblique reads one."""
    return ("--direction", paths["x"]) if method == "oblique" else ()


def run_solve(paths, gamma, method="td", extra=()):
    return main(["solve",
                 "--transitions", paths["P"], "--rewards", paths["r"],
                 "--gamma", str(gamma), "--features", paths["phi"],
                 "--weights", paths["xi"], "--method", method, *extra])


# sha256 of `projeval solve`'s stdout per (instance, method): example 1's files at
# gamma 0.5, with direction 1 -1 for oblique, and random_files(seed 40, n=40, k=8) at
# gamma 0.9. A change that means to move a printed digit re-records them
SOLVE_DIGESTS = {
    ("example1", "td"): "83f97c3c2f0a6f1ea085a7a7460f90774dfc70953f2c5089bbf5809abaa7441b",
    ("example1", "br"): "70d4cd2582c367e133c409c95ae78b731bed840ef3d7fd8b4c4e421195ea692e",
    ("example1", "best"): "ef2000d2c12e04875c244b182f85742b9fec65b195fa2c42654f049448e25fbb",
    ("example1", "oblique"): "e672996fecad098ce397a1d9b16ba37202df46bff8c73f9f4f8d04dd671c4cad",
    ("chain", "td"): "49605a033538336dd3e961ec1a8fec2b42de701a2bd9620b0a2a0e4ecc1d0d56",
    ("chain", "br"): "6bc91693d9d3a7a7cd387c367fca002a54a8aadfc1f8eaa196321aad4cc3fc78",
    ("chain", "best"): "c94e666c1084f6f5b91ebca49b24667e3c443ed2abb86cec7d9245613da48fb1",
    ("chain", "oblique"): "daf68dbf6a748e95ef542f823044c5544c9784ec924af59e0948f8706a7ac2c9",
}


class TestSolve:
    @pytest.mark.parametrize("instance, method", SOLVE_DIGESTS)
    def test_stdout_pinned(self, example1_files, tmp_path, capsys, instance, method):
        if instance == "example1":
            (tmp_path / "x.txt").write_text("1\n-1\n")
            paths, gamma = dict(example1_files, x=str(tmp_path / "x.txt")), 0.5
        else:
            (tmp_path / "chain").mkdir()
            paths, gamma = random_files(tmp_path / "chain", 40, n=40, k=8), 0.9
        assert run_solve(paths, gamma, method, direction(method, paths)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SOLVE_DIGESTS[instance, method]

    def test_td_weight(self, example1_files, capsys):
        assert run_solve(example1_files, 0.5, "td") == 0
        out = capsys.readouterr().out
        assert "w: 0.5" in out
        assert "condition_estimate:" in out

    def test_singular_exit_code(self, example1_files, capsys):
        assert run_solve(example1_files, 5.0 / 6.0, "td") == 2
        assert "singular" in capsys.readouterr().err

    def test_oblique_direction(self, example1_files, tmp_path, capsys):
        d = tmp_path / "x.txt"
        d.write_text("0.5\n1\n")  # Xi Phi, so the oblique solve equals TD
        assert run_solve(example1_files, 0.5, "oblique",
                         ("--direction", str(d))) == 0
        assert "w: 0.5" in capsys.readouterr().out

    def test_malformed_matrix_reports_line(self, example1_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n0 oops\n")
        example1_files["P"] = str(bad)
        assert run_solve(example1_files, 0.5) == 1
        assert ":2:" in capsys.readouterr().err

    @pytest.mark.parametrize("content, line", [
        (b"0 1\n0 \xff1\n", 2),
        (b"# \xc3(\n0 1\n0 1\n", 1),  # a comment is read too
    ], ids=["row", "comment"])
    def test_matrix_not_utf8_reports_line(self, content, line, example1_files, tmp_path,
                                          capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        example1_files["P"] = str(bad)
        assert run_solve(example1_files, 0.5) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: not UTF-8: ") and err.count("\n") == 1

    def test_report_of_near_dependent_features(self, tmp_path, capsys):
        # the Gram system Phi' Xi Phi would be past the 1e12 limit (2.0e12),
        # but the report's projection forms none
        assert run_solve(near_dependent_files(tmp_path, 74), 0.9, "td") == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        td, br, ad = (float(fields[f]) for f in ("td_error", "br_residual", "adequacy"))
        assert br ** 2 == pytest.approx(td ** 2 + ad ** 2, rel=1e-9)

    def test_ill_conditioned_solution_is_reported(self, tmp_path, capsys):
        # the report does not re-check that Phi w lies in span(Phi)
        assert run_solve(near_dependent_files(tmp_path, 24), 0.9, "best") == 0
        assert "adequacy:" in capsys.readouterr().out

    def test_best_of_near_dependent_features_is_exact(self, tmp_path, capsys):
        # its Gram system is past the 1e12 limit (2.0e12), but best forms none
        paths = near_dependent_files(tmp_path, 74)
        assert run_solve(paths, 0.9, "best") == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        w = [float(x) for x in fields["w"].split()]
        mdp = make_mdp(parse_matrix(paths["P"]), parse_vector(paths["r"]), 0.9)
        exact = exact_best_weights(mdp, make_feature_basis(parse_matrix(paths["phi"])),
                                   make_state_weights(parse_vector(paths["xi"])))
        np.testing.assert_allclose(w, exact, rtol=1e-8)

    def test_best_does_not_depend_on_feature_scale(self, example1_files, tmp_path, capsys):
        # scaling a feature column leaves its span, and so the projection, unchanged
        assert run_solve(example1_files, 0.5, "best") == 0
        small = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        big = tmp_path / "big.txt"
        big.write_text("1e200\n2e200\n")
        assert run_solve(dict(example1_files, phi=str(big)), 0.5, "best") == 0
        large = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        for field in ("v_hat", "approx_error", "td_error", "br_residual", "adequacy"):
            np.testing.assert_allclose([float(x) for x in large[field].split()],
                                       [float(x) for x in small[field].split()], rtol=1e-12)

    @pytest.mark.parametrize("seed", [74, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("method", ["td", "br"])
    def test_near_dependent_features_are_not_singular(self, tmp_path, capsys, seed, method):
        # TD and BR depend on span(Phi) only: their normal equations' estimates (4.9e12
        # to 7.2e13 on seeds 1-8) were past the limit, their bounds are below 3
        assert run_solve(near_dependent_files(tmp_path, seed), 0.9, method) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert 1.0 <= float(fields["condition_estimate"]) < 3.0
        if (method, seed) == ("td", 74):  # a TD fixed point has no TD error; 3.5e-6 on
            # the normal equations, whose estimate (8.9e11) passed the limit
            assert float(fields["td_error"]) <= 1e-9 * float(fields["br_residual"])

    @pytest.mark.parametrize("name, content, method", [
        ("phi", "1e200\n2e200\n", "td"),
        ("phi", "1e200\n2e200\n", "br"),
        ("x", "0.5e300\n1e300\n", "oblique"),
    ], ids=["features-td", "features-br", "direction-oblique"])
    def test_scaled_input_gives_the_same_v_hat(self, example1_files, tmp_path, capsys,
                                              name, content, method):
        # every method depends on span(Phi) and span(X) only, so a scaled feature or
        # direction matrix changes no value; features 1 2 and direction Xi Phi (TD)
        d = tmp_path / "x.txt"
        d.write_text("0.5\n1\n")
        paths = dict(example1_files, x=str(d))
        assert run_solve(paths, 0.5, method, direction(method, paths)) == 0
        small = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        big = tmp_path / "big.txt"
        big.write_text(content)
        paths[name] = str(big)
        assert run_solve(paths, 0.5, method, direction(method, paths)) == 0
        large = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        for field in ("v_hat", "approx_error", "td_error", "br_residual", "adequacy"):
            np.testing.assert_allclose([float(x) for x in large[field].split()],
                                       [float(x) for x in small[field].split()],
                                       rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("method", ["td", "br", "best"])
    def test_norms_of_large_rewards_do_not_overflow(self, example1_files, tmp_path, capsys,
                                                    method):
        # w is about 5e155, finite, but the squares of the norms' terms are not
        assert run_solve(example1_files, 0.5, method) == 0
        unit = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        big = tmp_path / "big.txt"
        big.write_text("1e156\n0\n")
        assert run_solve(dict(example1_files, r=str(big)), 0.5, method) == 0
        captured = capsys.readouterr()
        large = dict(line.split(": ", 1) for line in captured.out.splitlines())
        assert captured.err == ""
        for field in ("w", "approx_error", "td_error", "br_residual", "adequacy"):
            np.testing.assert_allclose([float(x) for x in large[field].split()],
                                       [1e156 * float(x) for x in unit[field].split()],
                                       rtol=1e-12, atol=1e141)

    def test_dependent_direction_rejected(self, tmp_path, capsys):
        # X' L Phi is singular, yet an orthonormal basis of L' X exists: X's columns
        # are checked as Phi's are
        paths = random_files(tmp_path, 7)
        x = parse_matrix(paths["x"])
        np.savetxt(paths["x"], np.column_stack([x[:, 0], x[:, 0]]), fmt="%.17g")
        assert run_solve(paths, 0.9, "oblique", direction("oblique", paths)) == 1
        assert capsys.readouterr().err.startswith(
            "error: direction columns are not linearly independent")

    @pytest.mark.parametrize("name, content, expected", [
        ("P", "0 1\nnan 1\n", "non-finite probability"),
        ("r", "1\ninf\n", "non-finite reward"),
        ("phi", "1\nnan\n", "non-finite"),
        ("xi", "0.5\n", "weights have length 1, expected 2"),
        ("phi", "1\n2\n3\n", "features have 3 rows, expected 2"),
        # float() reads these two, the C reader does not
        ("xi", "0.5\n1_0\n", "bad.txt:2: bad value: could not convert string '1_0' to float64 "
                             "at column 1.\n"),
        ("xi", "0.5\n٣\n", "bad.txt:2: bad value: could not convert string '٣' to float64 "
                           "at column 1.\n"),
        # errors of the whole file name no line
        ("xi", "0.5 1\n1 0\n", "bad.txt: expected a vector, got shape (2, 2)\n"),
        ("P", "# no rows\n", "bad.txt: file contains no matrix rows\n"),
    ])
    def test_bad_input_exit_code(self, example1_files, tmp_path, capsys,
                                 name, content, expected):
        bad = tmp_path / "bad.txt"
        bad.write_text(content)
        example1_files[name] = str(bad)
        assert run_solve(example1_files, 0.5) == 1
        assert expected in capsys.readouterr().err

    def test_oblique_without_direction_rejected(self, example1_files, capsys):
        assert run_solve(example1_files, 0.5, "oblique") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --direction is required for method oblique\n"
        assert captured.out == ""

    def test_direction_shape_rejected(self, example1_files, tmp_path, capsys):
        d = tmp_path / "x.txt"
        d.write_text("0.5 1\n1 0\n")
        assert run_solve(example1_files, 0.5, "oblique", ("--direction", str(d))) == 1
        assert "direction matrix is (2, 2)" in capsys.readouterr().err

    def test_invalid_mdp_rejected(self, example1_files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.3 0.3\n0 1\n")
        example1_files["P"] = str(bad)
        assert run_solve(example1_files, 0.5) == 1
        assert "row 0" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["td", "br", "best", "oblique"])
    def test_discount_next_to_one_is_singular(self, tmp_path, capsys, method):
        paths = random_files(tmp_path, 7)
        for gamma in (NEXT_TO_ONE, PAST_THE_LIMIT):
            assert run_solve(paths, gamma, method, direction(method, paths)) == 2
            captured = capsys.readouterr()
            assert_one_line(captured.err, "singular: value system has condition number ")
            assert captured.err.endswith(f" at discount {gamma!r}\n")
            assert captured.out == ""

    @pytest.mark.parametrize("gamma", NEAR_ONE)
    @pytest.mark.parametrize("method", ["td", "br", "best", "oblique"])
    def test_discount_near_one_solves(self, tmp_path, capsys, method, gamma):
        paths = random_files(tmp_path, 7)
        assert run_solve(paths, gamma, method, direction(method, paths)) == 0
        captured = capsys.readouterr()
        # every line after "method: ..." holds numbers
        numbers = [float(x) for line in captured.out.splitlines()[1:]
                   for x in line.split(":")[1].split()]
        assert len(numbers) == 2 + 6 + 5 and np.all(np.isfinite(numbers))
        assert captured.err == ""

    @pytest.mark.parametrize("name, content, method", [
        ("r", "1e308\n1e308\n", "td"),
        ("r", "1e308\n1e308\n", "best"),
    ], ids=["rewards-td", "rewards-best"])
    def test_overflow_is_one_singular_line(self, example1_files, tmp_path, capsys,
                                           name, content, method):
        # finite files whose products overflow: one line, not numpy's warnings
        big = tmp_path / "big.txt"
        big.write_text(content)
        example1_files[name] = str(big)
        assert run_solve(example1_files, 0.5, method, direction(method, example1_files)) == 2
        captured = capsys.readouterr()
        assert_one_line(captured.err, "singular: ")
        assert captured.out == ""

    @pytest.mark.parametrize("method", ["td", "br", "best", "oblique"])
    def test_one_l_and_one_value_per_request(self, tmp_path, monkeypatch, capsys, method):
        n = 6
        paths = random_files(tmp_path, 7, n)
        formed, solved = [], []
        eye, solve = np.eye, np.linalg.solve

        def counting_eye(N, *args, **kwargs):
            formed.append(N)
            return eye(N, *args, **kwargs)

        def counting_solve(a, b):
            solved.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np, "eye", counting_eye)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        assert run_solve(paths, 0.9, method, direction(method, paths)) == 0
        # L = I - gamma P once; L v = r once, for the oblique solve and its error
        assert formed.count(n) == 1
        assert solved.count((n, n)) == 1
        assert "approx_error" in capsys.readouterr().out


@st.composite
def solve_inputs(draw):
    """Files for `projeval solve`: a valid instance, then possibly
    near-dependent feature columns, one file of the wrong size and one file
    with a non-finite entry; returns them with the names of the bad files."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = rng.uniform(size=(n, n))
    arrays = {"P": P / P.sum(axis=1, keepdims=True), "r": rng.uniform(-1.0, 1.0, n),
              "phi": rng.uniform(-1.0, 1.0, (n, m)), "xi": rng.uniform(0.1, 1.0, n),
              "x": rng.uniform(-1.0, 1.0, (n, m))}
    gap = draw(st.sampled_from([None, 1e-3, 1e-6, 1e-9, 0.0]))
    if gap is not None and m >= 2:
        arrays["phi"][:, 1] = arrays["phi"][:, 0] + gap * rng.uniform(-1.0, 1.0, n)
    resized = draw(st.sampled_from([None, *arrays]))
    if resized is not None:
        a = arrays[resized]
        shrink = len(a) > 1 and draw(st.booleans())
        arrays[resized] = a[:-1] if shrink else np.concatenate([a, a[-1:]])
    non_finite = draw(st.sampled_from([None, *arrays]))
    if non_finite is not None:
        a = arrays[non_finite]
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    method = draw(st.sampled_from(["td", "br", "best", "oblique"]))
    gamma = draw(st.sampled_from([0.5, 0.9, 0.99, *NEAR_ONE, NEXT_TO_ONE]))
    return arrays, method, gamma, {resized, non_finite} - {None}


NAN_DIRECTION = ({"P": np.array([[0.0, 1.0], [0.0, 1.0]]), "r": np.array([1.0, 0.0]),
                  "phi": np.array([1.0, 2.0]), "xi": np.array([0.5, 0.5]),
                  "x": np.array([0.5, np.nan])}, "oblique", 0.5, {"x"})


# valid files whose L is numerically singular at this discount
DENSE_NEXT_TO_ONE = ({"P": np.array([[0.3, 0.7], [0.6, 0.4]]), "r": np.array([1.0, -1.0]),
                      "phi": np.array([1.0, 2.0]), "xi": np.array([0.5, 0.5]),
                      "x": np.array([0.5, 1.0])}, "td", NEXT_TO_ONE, set())


@settings(max_examples=50, deadline=None)
@example(NAN_DIRECTION)
@example(DENSE_NEXT_TO_ONE)
@given(solve_inputs())
def test_solve_exit_code_property(inputs):
    # bad input exits 1 and a singular system exits 2, naming the bound it is over;
    # nothing may escape main
    arrays, method, gamma, bad = inputs
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        paths = {}
        for name, array in arrays.items():
            paths[name] = os.path.join(tmp, f"{name}.txt")
            np.savetxt(paths[name], array, fmt="%.17g")
        code = run_solve(paths, gamma, method, direction(method, paths))
    read = {"P", "r", "phi", "xi", "x"} if method == "oblique" else {"P", "r", "phi", "xi"}
    assert code == 1 if bad & read else code in (0, 1, 2)
    if code == 2 and not bad & read:
        assert re.match(r"singular: (\w+ system has error bound|value system has condition "
                        r"number) \S+", err.getvalue())


class TestExample1Command:
    def test_ratio_table(self, tmp_path):
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", "0.5",
                     "--theta-grid", "0 0.7853981633974483 2.0",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert float(row["ratio_td"]) == pytest.approx(1.5625, rel=1e-10)
            assert float(row["ratio_br"]) == pytest.approx(1.25, rel=1e-10)

    def test_singular_gamma_marked(self, tmp_path):
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", str(5.0 / 6.0),
                     "--theta-grid", "1.0", "--out", str(out)]) == 0
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["ratio_td"] == "singular"

    def test_td_ratio_blows_up_near_singularity(self, tmp_path):
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", "0.8332 0.8334",
                     "--theta-grid", "0.3", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["ratio_td"]) > 1e4
            # the squared BR ratio tends to 13.25 at the singular discount
            assert float(row["ratio_br"]) < 20.0

    @pytest.mark.parametrize("gamma", [
        5 / 6, 5 / 6 - 1e-13, 5 / 6 + 1e-13, 5 / 6 - 1e-12, 5 / 6 + 1e-12,
        5 / 6 - 1e-10, 5 / 6 + 1e-10, 0.8332, 0.8334])
    def test_singular_exactly_where_solve_exits_2(self, gamma, example1_files, tmp_path,
                                                   capsys):
        # both commands gate on the oblique solve's bound, about (5/12) / |gamma - 5/6|,
        # so they agree next to 5/6: singular within about 4.2e-13 of it
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", repr(gamma), "--theta-grid", "0",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        code = run_solve(example1_files, gamma, "td")  # theta 0: rewards (1, 0)
        assert code in (0, 2)
        assert (row["ratio_td"] == "singular") == (code == 2)

    def test_sign_flip_of_reward_gives_same_ratios(self, tmp_path):
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", "0.6",
                     "--theta-grid", f"0 {np.pi}", "--out", str(out)]) == 0
        with open(out) as fh:
            a, b = list(csv.DictReader(fh))
        assert float(a["ratio_td"]) == pytest.approx(float(b["ratio_td"]), rel=1e-8)

    def test_bad_gamma_rejected(self, tmp_path, capsys):
        assert main(["example1", "--gamma-grid", "1.5", "--theta-grid", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: invalid MDP: discount not in (0,1)\n"

    def test_discount_next_to_one_is_singular_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        for gamma in (NEXT_TO_ONE, PAST_THE_LIMIT):
            assert main(["example1", "--gamma-grid", f"0.5 {gamma!r}",
                         "--theta-grid", "0.3", "--out", str(out)]) == 2
            # example 1's ||L||_inf is 1 + gamma
            cond = (1 + gamma) / (1 - gamma)
            assert capsys.readouterr().err == (f"singular: value system has condition number "
                                               f"{cond:.6g} at discount {gamma!r}\n")
            assert not out.exists()

    @pytest.mark.parametrize("gamma", NEAR_ONE)
    def test_discount_near_one_computes(self, gamma, tmp_path, capsys):
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", repr(gamma), "--theta-grid", "0.3",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        # best is the optimal projection, so each finite ratio is at least 1
        for field in ("ratio_td", "ratio_br"):
            assert math.isfinite(float(row[field])) and float(row[field]) >= 1.0
        assert capsys.readouterr().err == ""

    def test_csv_bytes_pinned(self, tmp_path):
        # 5/6 is singular for TD; at gamma 0.25 and theta = atan(3), v lies in span(Phi)
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", f"0.1 0.25 0.5 {5 / 6!r} 0.9",
                     "--theta-grid", "0 0.3 1.2490457723982544 2 -1",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cf9ad434aa2d2ef91669ceca8fa92a4001e0ac85a00c80ce934a539ef986d0e8")
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {row["gamma"] for row in rows} == {"0.1", "0.25", "0.5", "0.8333333333333334",
                                                  "0.9"}
        assert {row["theta"] for row in rows} == {"0", "0.3", "1.2490457723982544", "2", "-1"}
        (row,) = [row for row in rows
                  if row["gamma"] == "0.25" and row["theta"] == "1.2490457723982544"]
        # its errors are rounding noise, so its ratios are not numbers
        assert (row["ratio_td"], row["ratio_br"]) == ("nan", "nan")

    def test_keys_name_their_discount_exactly(self, tmp_path):
        # two discounts 6e-13 apart, one of them the TD-singular 5/6 at 13 digits
        out = tmp_path / "ratios.csv"
        assert main(["example1", "--gamma-grid", "0.8333333333327 0.8333333333333",
                     "--theta-grid", "0.3", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["gamma"], row["theta"], row["ratio_td"]) for row in rows] == [
            ("0.8333333333327", "0.3", "4.3272439655e+23"),
            ("0.8333333333333", "0.3", "singular")]

    @pytest.mark.parametrize("theta", ["nan", "inf", "0 -inf"])
    def test_non_finite_theta_rejected_before_writing(self, theta, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["example1", "--gamma-grid", "0.5", "--theta-grid", theta,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: every theta must be finite\n"
        assert not out.exists()


class TestSweepCommand:
    def test_smoke_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--gammas", "0.9 0.99", "--n-max", "5",
                     "--trials", "3", "--out-dir", str(out)]) == 0
        # sum_{n=2..5} n = 14 cells per gamma
        assert len(read_csv(out / "cells.csv")) == 28
        assert len(read_csv(out / "trials.csv")) == 28 * 9
        assert "td_win_share" in capsys.readouterr().out

    def test_single_gamma(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--gammas", "0.9", "--n-max", "3",
                     "--trials", "2", "--out-dir", str(out)]) == 0
        assert set(read_csv(out / "cells.csv").gamma.tolist()) == {0.9}

    def test_byte_identical_reruns(self, monkeypatch, tmp_path):
        args = ["sweep", "--gammas", "0.9", "--n-max", "4", "--trials", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        usable_cpus(monkeypatch, 1)
        assert main(args + ["--out-dir", str(a)]) == 0
        usable_cpus(monkeypatch, 2)
        assert main(args + ["--out-dir", str(b)]) == 0
        for name in ("trials.csv", "cells.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_csv_bytes_pinned(self, cpus, monkeypatch, tmp_path):
        out = tmp_path / "out"
        usable_cpus(monkeypatch, cpus)
        assert main(["sweep", "--gammas", "0.9 0.99", "--n-max", "5", "--trials", "2",
                     "--seed", "123", "--out-dir", str(out)]) == 0
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("trials.csv", "cells.csv"))
        assert got == CSV_DIGESTS["SMALL"]

    def test_cells_follow_gammas_order(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--gammas", "0.99 0.9", "--n-max", "4", "--trials", "2",
                     "--out-dir", str(out)]) == 0

        def keys(name):
            rows = read_csv(out / name)
            return list(zip(rows.gamma.tolist(), rows.n.tolist(), rows.k.tolist()))

        assert keys("cells.csv") == list(dict.fromkeys(keys("trials.csv")))
        assert keys("cells.csv")[0] == (0.99, 2, 1)

    def test_tail_summary_recomputed_from_trials_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        # 28 * 36 = 1008 trials with k < n per gamma, so the top 0.1% is 2 trials
        assert main(["sweep", "--gammas", "0.9 0.99", "--n-max", "8", "--trials", "6",
                     "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        trials = read_csv(out / "trials.csv")
        cells = read_csv(out / "cells.csv")
        assert len(lines) == 4
        for gamma, line in zip(("0.9", "0.99"), lines[::2]):
            kept = trials[(trials.gamma == float(gamma)) & (trials.k < trials.n)
                          & ~trials.td_singular]
            e_td, e_br = kept.e_td, kept.e_br
            ratios = np.sort(e_td / e_br)
            top = int(np.ceil(0.001 * len(ratios)))
            assert line.startswith(f"gamma={gamma} k<n: trials=1008 ") and len(kept) == 1008
            assert top == 2
            printed = dict(tok.split("=") for tok in line.split() if "=" in tok)
            expected = {"td_win_share": np.mean(e_td < e_br), "median": np.median(ratios),
                        "mean": np.mean(ratios), "p99": np.percentile(ratios, 99),
                        f"top{top}_share": ratios[-top:].sum() / ratios.sum()}
            assert set(printed) == {"gamma", "trials"} | set(expected)
            for key, value in expected.items():
                # printed to 4 decimals; the CSV's 12 digits move a ratio by ~1e-11
                assert abs(float(printed[key]) - value) <= 0.5e-4 + 1e-9 * abs(value), key
            # no k < n trial here is singular or degenerate, so the k < n cells' means
            # hold nothing the printed line lacks
            sub = cells[(cells["gamma"] == float(gamma)) & (cells["k"] < cells["n"])]
            for stat, key in (("td_win_ratio", "td_win_share"), ("mean_td_over_br", "mean")):
                assert abs(np.mean(sub[stat]) - float(printed[key])) <= 0.5e-4, stat
        # the report recomputed from the file's 12-digit floats is the printed one exactly
        recomputed = [harness.report(g, [harness.tail(trials[trials.gamma == g])])
                      for g in (0.9, 0.99)]
        assert stdout == "\n".join(recomputed) + "\n"

    def test_breaks_recomputed_from_trials_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        # 21,600 trials, 18,000 of them with k < n; 32 of those break the BR bound
        assert main(["sweep", "--gammas", "0.999", "--n-max", "10", "--trials", "20",
                     "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        tail, line = stdout.splitlines()
        assert tail.startswith("gamma=0.999 k<n: trials=18000 ")
        trials = read_csv(out / "trials.csv")
        assert len(trials) == 21600
        kept = trials[(trials.k < trials.n) & ~trials.td_singular]
        e, e_td, e_br, b_td, b_br = (kept[f] for f in ("e", "e_td", "e_br", "b_td", "b_br"))
        expected = {"e>e_td": e > e_td * (1 + 1e-9), "e>e_br": e > e_br * (1 + 1e-9),
                    "b_td<1": b_td < 1 - 1e-9, "b_br<1": b_br < 1 - 1e-9,
                    "e_td>b_td*e": e_td > b_td * e * (1 + 1e-6),
                    "e_br>b_br*e": e_br > b_br * e * (1 + 1e-6)}
        assert line == "  k<n breaks: " + " ".join(
            f"{name}={np.count_nonzero(broken)}" for name, broken in expected.items())
        assert np.count_nonzero(expected["e_br>b_br*e"]) > 0  # == 0 once ROADMAP item 14 is done
        assert stdout == harness.report(0.999, [harness.tail(trials)]) + "\n"

    def test_pool_capped_at_columns(self, monkeypatch, tmp_path):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        usable_cpus(monkeypatch, 64)
        assert main(["sweep", "--gammas", "0.9", "--n-max", "3", "--trials", "2",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert pools == [2]

    def test_one_cpu_starts_no_pool(self, monkeypatch, tmp_path):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        usable_cpus(monkeypatch, 1)
        assert main(["sweep", "--gammas", "0.9", "--n-max", "3", "--trials", "2",
                     "--out-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("cpu_count, expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, cpu_count, expected, monkeypatch, tmp_path):
        counts = []

        def recorded(config, workers):
            counts.append(workers)
            raise OSError("stop before the first column")

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(cli, "sweep_columns", recorded)
        assert main(["sweep", "--out-dir", str(tmp_path / "out")]) == 1
        assert counts == [expected]

    def test_unwritable_trials_fails_before_computing(self, monkeypatch, tmp_path, capsys):
        calls = []

        def counted(*args, _run=harness.run_column):
            calls.append(args[1:])
            return _run(*args)

        monkeypatch.setattr(harness, "run_column", counted)
        # a pool's children would call run_column where `calls` cannot see it
        usable_cpus(monkeypatch, 1)
        out = tmp_path / "out"
        (out / "trials.csv").mkdir(parents=True)
        assert main(["sweep", "--gammas", "0.9", "--n-max", "3", "--trials", "2",
                     "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""
        assert calls == []

    def test_unwritable_cells_fails_before_computing(self, monkeypatch, tmp_path, capsys):
        calls = []

        def counted(*args, _run=harness.run_column):
            calls.append(args[1:])
            return _run(*args)

        monkeypatch.setattr(harness, "run_column", counted)
        # a pool's children would call run_column where `calls` cannot see it
        usable_cpus(monkeypatch, 1)
        out = tmp_path / "out"
        (out / "cells.csv").mkdir(parents=True)
        assert main(["sweep", "--gammas", "0.9", "--n-max", "3", "--trials", "2",
                     "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""
        assert calls == []

    def test_discount_next_to_one_is_singular(self, tmp_path, capsys):
        # past the value gate's limit, as in `solve` and `example1`; the sweep names
        # the first chain at fault
        out = tmp_path / "out"
        assert main(["sweep", "--gammas", "0.999999999999", "--n-max", "3",
                     "--trials", "2", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        # mdp_trial 1 of the first column, n = 2
        assert_one_line(captured.err, "singular: value system of chain 1 (n=2) has condition "
                        "number 1.52254e+12 at discount 0.999999999999")
        assert captured.out == ""
        assert not (out / "trials.csv").exists() and not (out / "cells.csv").exists()

    def test_discount_closest_to_one_is_singular(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--gammas", repr(NEXT_TO_ONE), "--n-max", "3",
                     "--trials", "2", "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert_one_line(captured.err, "singular: value system of chain 0 (n=2) has condition "
                        f"number 6.68961e+15 at discount {NEXT_TO_ONE!r}")
        assert captured.out == ""
        assert not (out / "trials.csv").exists() and not (out / "cells.csv").exists()

    def test_gammas_apart_in_the_13th_digit_read_back_distinct(self, tmp_path, capsys):
        out = tmp_path / "out"
        gammas = (0.1, 0.1000000000001)
        assert main(["sweep", "--gammas", " ".join(map(repr, gammas)), "--n-max", "3",
                     "--trials", "2", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        cells = read_csv(out / "cells.csv")
        assert list(dict.fromkeys(cells.gamma.tolist())) == list(gammas)
        for gamma in gammas:
            svg = out / f"{gamma!r}.svg"
            assert main(["heatmap", "--cells", str(out / "cells.csv"), "--stat",
                         "td_win_ratio", "--gamma", repr(gamma), "--out", str(svg)]) == 0
            assert f"td_win_ratio (gamma={gamma!r})" in svg.read_text()
        assert capsys.readouterr().err == ""

    def test_exactly_singular_member_is_one_singular_line(self, tmp_path, capsys):
        # the kernel's ungated BR solve meets an exactly singular member here (ROADMAP
        # item 7): numpy's LinAlgError, a ValueError, exits 2 like any singular system
        out = tmp_path / "out"
        assert main(["sweep", "--gammas", "0.999998", "--n-max", "21", "--trials", "4",
                     "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert_one_line(captured.err, "singular: ")
        assert captured.out == ""
        assert not (out / "trials.csv").exists() and not (out / "cells.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--gammas", "", "gammas must be nonempty and distinct"),
        ("--gammas", "0.9 0.9", "gammas must be nonempty and distinct"),
        ("--n-max", "1", "need 2 <= n_min <= n_max"),
        ("--n-max", "-4", "need 2 <= n_min <= n_max"),
        ("--seed", "-1", "master_seed must be an integer >= 0, got -1"),
    ])
    def test_grid_that_runs_nothing_or_wrongly_rejected(self, flag, value, message,
                                                        tmp_path, capsys):
        out = tmp_path / "out"
        # the last occurrence of a flag wins
        assert main(["sweep", "--gammas", "0.9", "--n-max", "3", "--trials", "2",
                     "--out-dir", str(out), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == "" and not out.exists()

    def test_defaults_are_the_config_defaults(self, monkeypatch, tmp_path, capsys):
        configs = []

        def recorded(config, workers):
            configs.append(config)
            raise OSError("stop before the first column")

        monkeypatch.setattr(cli, "sweep_columns", recorded)
        assert main(["sweep", "--out-dir", str(tmp_path / "out")]) == 1
        assert configs == [SweepConfig()]
        assert capsys.readouterr().err == "error: stop before the first column\n"


# a hand-built cell table, so that no BLAS bit enters the SVGs: cells of 4
# trials (the k = n cells exclude all 4); at gamma 0.9, NaN cells, n=3 k=2 with
# 3 of its 4 trials singular or excluded, n=3 k=1 and n=4 k=2 with 1 and 2,
# zeros outside mean_rel_td's log domain and two constant columns,
# bound_prediction_ratio (unit scale) and mean_rel_br
PINNED_CELLS = np.array([
    (0.9, 2, 1, 1.0, 0.75, 1.25, 0.0, 2.5, 0, 0),
    (0.9, 2, 2, 0.0, 0.75, np.nan, 0.0, 2.5, 0, 4),
    (0.9, 3, 1, 0.5, 0.75, 0.8, 3e-4, 2.5, 1, 0),
    (0.9, 3, 2, 0.25, 0.75, 12.5, 0.02, 2.5, 2, 1),
    (0.9, 3, 3, 0.0, 0.75, np.nan, 0.0, 2.5, 0, 4),
    (0.9, 4, 1, 0.75, 0.75, 0.97, 1.5, 2.5, 0, 0),
    (0.9, 4, 2, 0.5, 0.75, 1.1e3, 7.25, 2.5, 1, 1),
    (0.9, 4, 3, 1.0, 0.75, 0.003, 0.0, 2.5, 0, 0),
    (0.9, 4, 4, 0.0, 0.75, np.nan, 0.0, 2.5, 0, 4),
    (0.5, 2, 1, 0.1, 0.2, 0.3, 0.4, 0.5, 0, 0),
    (0.5, 2, 2, 0.0, 0.0, np.nan, 0.0, 0.0, 0, 4),
], dtype=harness.CELL_DTYPE)

# sha256 of render_heatmap(PINNED_CELLS, stat, 0.9) per stat, and whether the
# statistic's map is log-scaled: the shares are linear, the ratio means log
SVG_DIGESTS = {
    ("td_win_ratio", False): "15a48e4243a42f6f7eda09b4784b4c22f1e941c214e15c385129645194593c1c",
    ("bound_prediction_ratio", False):
        "e318c05f65be41e61ce1a0043c26688a420f306f7ba062b0dac7acaf906b597a",
    ("mean_td_over_br", True): "6ff04fb862a9db34375d2b0690ee7b4f1f580f9833f9e061210d01729ba28ddb",
    ("mean_rel_td", True): "3a5bef4007fbafffc93bb31a1320b705bd1909abdbbd793de1cd932a491f2932",
    ("mean_rel_br", True): "97d0ba50f09c0cf21a8dc525ad94951d30ac3ff17008506e81bc8e39929a2a28",
}


def _fills(svg: str) -> dict:
    """Each cell's fill in a heatmap, by (n, k)."""
    return {(int(n), int(k)): fill
            for fill, n, k in re.findall(r'fill="([^"]+)"[^>]*><title>n=(\d+) k=(\d+) ', svg)}


def _range(svg: str) -> str:
    return re.search(r">(range \[.*\])</text>", svg).group(1)


class TestHeatmapCommand:
    @pytest.fixture(scope="class")
    def cells_csv(self, tmp_path_factory):
        # one sweep for the class: the tests read the file and write elsewhere
        out = tmp_path_factory.mktemp("sweep")
        main(["sweep", "--gammas", "0.9", "--n-max", "5", "--trials", "3",
              "--out-dir", str(out)])
        return str(out / "cells.csv")

    def test_valid_svg_one_rect_per_cell(self, cells_csv, tmp_path):
        svg = tmp_path / "map.svg"
        assert main(["heatmap", "--cells", cells_csv, "--stat", "td_win_ratio",
                     "--gamma", "0.9", "--out", str(svg)]) == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f".//{ns}rect")
        # 14 cells + background + pattern rect
        assert len(rects) == 14 + 2

    def test_log_scale_flag(self, cells_csv, tmp_path, capsys):
        # the statistic picks the scale, so there is no flag to choose it
        svg = tmp_path / "map.svg"
        assert main(["heatmap", "--cells", cells_csv, "--stat", "mean_rel_td",
                     "--gamma", "0.9", "--log", "--out", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not svg.exists()

    def test_missing_gamma_lists_available(self, cells_csv, tmp_path, capsys):
        assert main(["heatmap", "--cells", cells_csv, "--stat", "td_win_ratio",
                     "--gamma", "0.42", "--out", str(tmp_path / "x.svg")]) == 1
        assert "0.9" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("0.9,2,1,0.5,0.5,1.1,1.2", "row has 7 fields, expected 10"),
        ("0.9,2,1,0.5,0.5,1.1,1.2,1.3,0,0,7", "row has 11 fields, expected 10"),
        ("0.9,2,1,0.5,0.5,1.1,1.2,1.3,0,zero", "bad value"),
        ("0.9,2.5,1,0.5,0.5,1.1,1.2,1.3,0,0", "bad value"),
        ("0.9,2,1,0.5,0.5,1.1,1.2,1.3,0,0", "duplicate cell gamma=0.9 n=2 k=1, first on line 2"),
        ("nan,2,1,0.5,0.5,1.1,1.2,1.3,0,0", "gamma is nan, expected in (0, 1)"),
        ("7,2,1,0.5,0.5,1.1,1.2,1.3,0,0", "gamma is 7.0, expected in (0, 1)"),
        ("0,2,1,0.5,0.5,1.1,1.2,1.3,0,0", "gamma is 0.0, expected in (0, 1)"),
        ("0.9,1,1,0.5,0.5,1.1,1.2,1.3,0,0", "n is 1, expected at least 2"),
        ("0.9,-3,-7,0.5,0.5,1.1,1.2,1.3,-4,0", "n is -3, expected at least 2"),
        ("0.9,3,4,0.5,0.5,1.1,1.2,1.3,0,0", "k is 4, expected 1..3"),
        ("0.9,3,0,0.5,0.5,1.1,1.2,1.3,0,0", "k is 0, expected 1..3"),
        ("0.9,6,1,0.5,0.5,1.1,1.2,1.3,-4,0", "singular_count is -4, expected at least 0"),
        ("0.9,6,1,0.5,0.5,1.1,1.2,1.3,0,-1", "excluded_count is -1, expected at least 0"),
        ("0.9,2,1,0.5,\udcff,1.1,1.2,1.3,0,0", "not UTF-8: "),  # written as the byte 0xff
        ("trials.csv|0.9,5,1,2,2,0.5,0.6,0.7,1.5,1.6,2", "td_singular is 2, expected 0 or 1"),
        ("trials.csv|0.9,2,1,0,0,0.5,0.6,0.7,1.5,1.6,0",
         "duplicate trial gamma=0.9 n=2 k=1 phi_trial=0 mdp_trial=0, first on line 2"),
        ("trials.csv|0.9,5,1,2,-1,0.5,0.6,0.7,1.5,1.6,0", "mdp_trial is -1, expected at least 0"),
        ("trials.csv|0.9,5,1,0.5,2,0.5,0.6,0.7,1.5,1.6,0", "bad value"),
        ("trials.csv|0.9,5,1,2,2,0.5,0.6,0.7,1.5,1.6", "row has 10 fields, expected 11"),
    ])
    def test_malformed_row_reports_line(self, row, message, cells_csv, tmp_path, capsys):
        # a row after "trials.csv|" goes into the sweep's trials.csv, which the heatmap turns
        # down from its header alone, so the one reader reads it; every other row goes into
        # cells.csv, which the heatmap reads
        name, _, row = row.rpartition("|")
        good = Path(cells_csv).with_name(name or "cells.csv")
        lines = good.read_text().splitlines()
        lines.insert(3, row)
        bad = tmp_path / good.name
        bad.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", errors="surrogateescape")
        if name:
            with pytest.raises(MatrixParseError) as info:
                read_csv(bad)
            assert str(info.value).startswith(f"{bad}:4: {message}")
            return
        svg = tmp_path / "x.svg"
        assert main(["heatmap", "--cells", str(bad), "--stat", "td_win_ratio",
                     "--gamma", "0.9", "--out", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:4: {message}") and err.count("\n") == 1
        assert not svg.exists()

    def test_trials_csv_rejected(self, cells_csv, tmp_path, capsys):
        trials_csv = Path(cells_csv).with_name("trials.csv")
        svg = tmp_path / "x.svg"
        assert main(["heatmap", "--cells", str(trials_csv), "--stat", "td_win_ratio",
                     "--gamma", "0.9", "--out", str(svg)]) == 1
        assert_one_line(capsys.readouterr().err,
                        f"error: {trials_csv}: a trials.csv, expected a cells.csv")
        assert not svg.exists()

    def test_trials_csv_rejected_from_its_header(self, cells_csv, tmp_path, capsys):
        # line 3 is malformed, but the header alone turns the file down
        lines = Path(cells_csv).with_name("trials.csv").read_text().splitlines()
        lines[2] = "0.9,zero"
        bad = tmp_path / "trials.csv"
        bad.write_text("\r\n".join(lines) + "\r\n")
        svg = tmp_path / "x.svg"
        assert main(["heatmap", "--cells", str(bad), "--stat", "td_win_ratio",
                     "--gamma", "0.9", "--out", str(svg)]) == 1
        assert_one_line(capsys.readouterr().err,
                        f"error: {bad}: a trials.csv, expected a cells.csv")
        assert not svg.exists()

    def test_wrong_header_reports_line_1(self, cells_csv, tmp_path, capsys):
        text = Path(cells_csv).read_text()
        bad = tmp_path / "cells.csv"
        bad.write_text(text.replace("td_win_ratio", "td_wins", 1))
        svg = tmp_path / "x.svg"
        assert main(["heatmap", "--cells", str(bad), "--stat", "td_win_ratio",
                     "--gamma", "0.9", "--out", str(svg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:1: unexpected header ") and err.count("\n") == 1
        assert not svg.exists()

    def test_unknown_statistic_raises(self, cells_csv):
        with pytest.raises(ValueError, match="^unknown statistic 'bogus'"):
            render_heatmap(read_csv(cells_csv), "bogus", 0.9)

    def test_statistic_nan_in_every_cell_is_all_hatched(self, cells_csv):
        cells = read_csv(cells_csv)
        cells.mean_td_over_br = np.nan
        svg = render_heatmap(cells, "mean_td_over_br", 0.9)
        assert "range [0, 1]" in svg
        ns = "{http://www.w3.org/2000/svg}"
        fills = [rect.get("fill") for rect in ET.fromstring(svg).iter(f"{ns}rect")
                 if rect.find(f"{ns}title") is not None]
        assert fills == ["url(#hatch)"] * 14

    @pytest.mark.parametrize("stat, log", SVG_DIGESTS)
    def test_svg_bytes_pinned(self, stat, log):
        svg = render_heatmap(PINNED_CELLS, stat, 0.9)
        assert hashlib.sha256(svg.encode()).hexdigest() == SVG_DIGESTS[stat, log]
        assert f">{stat} (gamma=0.9{', log scale' if log else ''})</text>" in svg

    @pytest.mark.parametrize("stat, text", [("mean_td_over_br", "range [0.003, 1.25]"),
                                            ("mean_rel_td", "range [1.5, 1.5]")])
    def test_range_comes_from_colored_cells(self, stat, text):
        # the hatched (4, 2) holds the largest values, 1.1e3 and 7.25; it is drawn in
        # no color, so it stretches neither scale
        assert f">{text}</text>" in render_heatmap(PINNED_CELLS, stat, 0.9)

    def test_zero_ratio_is_hatched(self):
        # 0 lies outside the log scale's domain: (2, 1) and (4, 3) hold it and are
        # hatched, and the scale is placed by (4, 1)'s 1.5 alone
        fills = _fills(render_heatmap(PINNED_CELLS, "mean_rel_td", 0.9))
        assert fills[2, 1] == fills[4, 3] == "url(#hatch)"
        assert fills[4, 1] == "rgb(33,145,140)"

    @pytest.mark.parametrize("stat, bad", [
        ("mean_td_over_br", {(2, 1): np.inf}),
        ("mean_td_over_br", {(2, 1): -1.0}),
        ("td_win_ratio", {(2, 1): 1.7, (4, 3): -0.3}),
    ], ids=["ratio-inf", "ratio-negative", "share-above-and-below"])
    def test_value_outside_the_domain_is_hatched(self, stat, bad):
        # a value its scale cannot place is hatched and stretches no scale: the other
        # cells keep the colors and range of the same map without the bad cells
        cells = PINNED_CELLS[PINNED_CELLS["gamma"] == 0.9]
        at = np.zeros(cells.size, dtype=bool)
        for (n, k), value in bad.items():
            cell = (cells["n"] == n) & (cells["k"] == k)
            cells[stat][cell] = value
            at |= cell
        svg, clean = (render_heatmap(c, stat, 0.9) for c in (cells, cells[~at]))
        fills = _fills(svg)
        assert [fills.pop(key) for key in bad] == ["url(#hatch)"] * len(bad)
        assert fills == _fills(clean) and _range(svg) == _range(clean)

    def test_any_broken_trial_hatches_its_cell(self):
        # without the k = n cells, whose counts say nothing of the others: each
        # cell is read alone, and (3, 2) has 3 of its 4 trials singular or excluded
        svg = render_heatmap(PINNED_CELLS[PINNED_CELLS["k"] < PINNED_CELLS["n"]],
                             "td_win_ratio", 0.9)
        ns = "{http://www.w3.org/2000/svg}"
        hatched = [rect.find(f"{ns}title").text.split()[:2]
                   for rect in ET.fromstring(svg).iter(f"{ns}rect") if rect.get("fill") == "url(#hatch)"]
        assert hatched == [["n=3", "k=1"], ["n=3", "k=2"], ["n=4", "k=2"]]

    def test_title_names_gamma_exactly(self):
        cells = PINNED_CELLS.copy()
        cells["gamma"][cells["gamma"] == 0.9] = 0.9999999
        svg = render_heatmap(cells, "td_win_ratio", 0.9999999)
        assert ">td_win_ratio (gamma=0.9999999)</text>" in svg

    def test_read_back_equals_aggregate(self, tmp_path):
        records = sweep(SweepConfig(gammas=(0.9,), n_max=4, feature_trials=2, mdp_trials=2))
        cells = aggregate(records)
        path = tmp_path / "cells.csv"
        write_cell_csv(path, cells)
        back = read_csv(path)
        assert isinstance(back, np.recarray) and back.dtype == cells.dtype
        for field in cells.dtype.names:
            np.testing.assert_allclose(back[field], cells[field], rtol=1e-11, err_msg=field)


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (["solve", "--gamma", "0.5"], "projeval solve: the following arguments are required"),
        (["solve", "--transitions", "P", "--rewards", "r", "--gamma", "0.5",
          "--features", "phi", "--weights", "xi", "--method", "lstd"],
         "projeval solve: argument --method: invalid choice: 'lstd'"),
        (["sweep", "--trials", "two", "--out-dir", "out"],
         "projeval sweep: argument --trials: invalid int value: 'two'"),
        (["lstd"], "projeval: argument command: invalid choice: 'lstd'"),
        (["example1", "--gamma-grid", ",", "--theta-grid", "0", "--out", "out"],
         "grids must be nonempty"),
        # checked before any file is read, so files that do not exist go unnamed
        (["solve", "--transitions", "P", "--rewards", "r", "--gamma", "0.5",
          "--features", "phi", "--weights", "xi", "--method", "td", "--direction", "X"],
         "--direction is only read by method oblique"),
        (["solve", "--transitions", "P", "--rewards", "r", "--gamma", "0.5",
          "--features", "phi", "--weights", "xi", "--method", "oblique"],
         "--direction is required for method oblique"),
        # the pool's size is the usable CPU count, not an option
        (["sweep", "--workers", "2", "--out-dir", "out"],
         "projeval: unrecognized arguments: --workers 2"),
    ])
    def test_usage_error_exits_1(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert_one_line(captured.err, f"error: {message}")
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--transitions" in capsys.readouterr().out


class TestParserReuse:
    """`main` builds its parser once per process; the commands are looked up per call."""

    def run(self, argv, monkeypatch, capsys, fresh):
        if fresh:
            monkeypatch.setattr(cli, "_parser", None, raising=False)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_built_once(self, example1_files, monkeypatch, capsys):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None, raising=False)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        for _ in range(5):
            assert run_solve(example1_files, 0.5) == 0
            assert main(["solve", "--gamma", "0.5"]) == 1
        capsys.readouterr()
        assert len(built) == 1

    def test_mixed_sequence_matches_fresh_parser_per_call(self, example1_files, tmp_path,
                                                          monkeypatch, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n0 x\n")
        solve = ["solve", "--transitions", example1_files["P"],
                 "--rewards", example1_files["r"], "--features", example1_files["phi"],
                 "--weights", example1_files["xi"], "--method", "td"]

        def sequence(out_dir):
            return [["solve", "--gamma", "0.5"],
                    solve + ["--gamma", "0.5"],
                    solve + ["--gamma", repr(5 / 6)],
                    [*solve, "--gamma", "0.5", "--transitions", str(bad)],
                    ["solve", "--help"],
                    ["sweep", "--gammas", "0.9", "--n-max", "3", "--trials", "2",
                     "--out-dir", str(out_dir)]]

        reused = [self.run(argv, monkeypatch, capsys, fresh=False)
                  for argv in sequence(tmp_path / "reused")]
        fresh = [self.run(argv, monkeypatch, capsys, fresh=True)
                 for argv in sequence(tmp_path / "fresh")]
        assert [code for code, _, _ in reused] == [1, 0, 2, 1, ("exit", 0), 0]
        assert reused == fresh
        for name in ("trials.csv", "cells.csv"):
            assert ((tmp_path / "reused" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_wrapper_installed_after_first_call_runs(self, example1_files, monkeypatch,
                                                     capsys):
        assert run_solve(example1_files, 0.5) == 0
        calls = []
        original = cli.cmd_solve

        def wrapper(args):
            calls.append(args.method)
            return original(args)

        monkeypatch.setattr(cli, "cmd_solve", wrapper)
        assert run_solve(example1_files, 0.5, method="br") == 0
        assert calls == ["br"]
        assert "w: 0" in capsys.readouterr().out


class TestMatrixRoundTrip:
    def test_seventeen_digit_round_trip(self, tmp_path, rng):
        mat = rng.normal(size=(6, 4))
        path = tmp_path / "m.txt"
        write_matrix(str(path), mat)
        assert np.array_equal(parse_matrix(str(path)), mat)
        special = np.array([[np.nan, np.inf, -np.inf],
                            [-0.0, 5e-324, 1.7976931348623157e308]])
        for mat in (special, special.reshape(1, 6), special.reshape(6, 1)):
            write_matrix(str(path), mat)
            back = parse_matrix(str(path))
            assert back.shape == mat.shape
            assert np.array_equal(back.view(np.uint64), mat.view(np.uint64))

    def test_comma_and_whitespace_mix(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1, 2 3\n4,5,6\n")
        np.testing.assert_array_equal(parse_matrix(str(path)),
                                      [[1, 2, 3], [4, 5, 6]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ValueError, match=":2:"):
            parse_matrix(str(path))
