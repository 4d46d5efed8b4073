"""Property tests of the constructors: a valid object or a ValueError, nothing else.

Each strategy starts from a valid input and may then break it: a
non-finite or out-of-range entry, a wrong size or number of dimensions,
rows summing to one only up to rounding, near-dependent feature columns,
or entries scaled toward underflow or overflow.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projeval import (
    SeedSpec,
    make_feature_basis,
    make_mdp,
    make_state_weights,
    random_chain,
    random_features,
    random_weights,
    validate,
)
from projeval.mdp import ROW_SUM_TOL
from projeval.projections import INDEPENDENCE_SV_RATIO

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
SCALES = st.sampled_from([1.0, 1.0, 1e-300, 5e-324, 1e300, -1.0])
SETTINGS = settings(max_examples=150, deadline=None)


def valid_or_value_error(build, check):
    try:
        obj = build()
    except ValueError as exc:
        assert str(exc)
        return
    check(obj)


def check_mdp(mdp):
    P, r, n = mdp.transitions, mdp.rewards, mdp.n_states
    assert n >= 1 and P.shape == (n, n) and r.shape == (n,)
    assert np.all(np.isfinite(P)) and np.all(np.isfinite(r))
    assert np.all(P >= 0.0) and np.all(P <= 1.0)
    assert np.all(np.abs(P.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
    assert 0.0 < mdp.discount < 1.0
    assert validate(mdp) == []


def check_basis(phi):
    n, m = phi.matrix.shape
    assert 1 <= m <= n
    assert np.all(np.isfinite(phi.matrix))
    s = np.linalg.svd(phi.matrix, compute_uv=False)
    assert s[-1] > INDEPENDENCE_SV_RATIO * s[0]


def check_weights(xi):
    w = xi.weights
    assert w.ndim == 1 and w.size >= 1
    assert np.all(np.isfinite(w)) and np.all(w > 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12


def break_array(draw, a):
    """a, possibly with one entry replaced, scaled, resized or reshaped."""
    a = a * draw(SCALES)
    if a.size and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(ANY_FLOAT)
    change = draw(st.sampled_from([None, "grow", "shrink", "flatten", "add_axis"]))
    if change == "grow":
        a = np.concatenate([a, a[:1]]) if a.size else np.ones((1,) + a.shape[1:])
    elif change == "shrink":
        a = a[1:]
    elif change == "flatten":
        a = a.ravel()
    elif change == "add_axis":
        a = a[None]
    return a


def rng_from(draw):
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


@SETTINGS
@given(st.data())
def test_make_mdp(data):
    draw = data.draw
    n = draw(st.integers(0, 5))
    rng = rng_from(draw)
    P = rng.uniform(size=(n, n))
    P /= np.maximum(P.sum(axis=1, keepdims=True), 1e-300)
    if n and draw(st.booleans()):  # rows summing to one only up to rounding
        P[draw(st.integers(0, n - 1))] *= 1.0 + draw(st.sampled_from([1e-16, 1e-13, 1e-11]))
    r = rng.uniform(-1.0, 1.0, n)
    if draw(st.booleans()):
        P = break_array(draw, P)
    else:
        r = break_array(draw, r)
    gamma = draw(st.floats(0.01, 0.99) | ANY_FLOAT)
    valid_or_value_error(lambda: make_mdp(P, r, gamma), check_mdp)


@SETTINGS
@given(st.data())
def test_make_feature_basis(data):
    draw = data.draw
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    rng = rng_from(draw)
    phi = rng.uniform(-1.0, 1.0, (n, m))
    gap = draw(st.sampled_from([None, 1e-3, 1e-8, 1e-10, 1e-12, 0.0]))
    if gap is not None and m >= 2:  # near-dependent columns
        phi[:, 1] = phi[:, 0] + gap * rng.uniform(-1.0, 1.0, n)
    valid_or_value_error(lambda: make_feature_basis(break_array(draw, phi)), check_basis)


@SETTINGS
@given(st.data())
def test_make_state_weights(data):
    draw = data.draw
    xi = rng_from(draw).uniform(1e-3, 1.0, draw(st.integers(0, 5)))
    xi = break_array(draw, xi)
    valid_or_value_error(lambda: make_state_weights(xi), check_weights)


@SETTINGS
@given(n=st.integers(-1, 6), k=st.integers(-1, 7), gamma=st.floats(0.01, 0.99) | ANY_FLOAT,
       master=st.integers(0, 2 ** 32 - 1), labels=st.lists(st.integers(0, 50), max_size=4))
def test_random_generators(n, k, gamma, master, labels):
    seed = SeedSpec(master, tuple(labels))
    valid_or_value_error(lambda: random_chain(n, gamma, seed), check_mdp)
    valid_or_value_error(lambda: random_features(n, k, seed), check_basis)
    valid_or_value_error(lambda: random_weights(n, seed), check_weights)
