"""The analytic fixture and the seeded random generators of the sweep.

`example1` carries closed-form reference weights; the random generators
(chains, features, weights) are pure functions of a SeedSpec, so any trial
of a sweep can be regenerated bit-identically in isolation: member p of a
stack, checked at once, is the single draw from seed.derive(p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, make_mdp
from .projections import (FeatureBasis, MemberCheckError, StateWeights, make_feature_basis,
                          make_state_weights)

_RESAMPLE_LIMIT = 100
_WEIGHT_FLOOR = 1e-3


@dataclass(frozen=True)
class ReferenceWeights:
    """Closed-form solver weights, when analytically known."""

    w_best: float
    w_td: float | None  # None when the TD system is singular
    w_br: float


@dataclass(frozen=True)
class Instance:
    mdp: Mdp
    phi: FeatureBasis
    xi: StateWeights
    reference: ReferenceWeights | None = None


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seed: a master seed plus integer derivation labels.

    Identical (master_seed, labels) always yields bit-identical draws;
    distinct labels yield independent streams.
    """

    master_seed: int
    labels: tuple[int, ...] = ()

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.labels)
        return np.random.default_rng(seq)

    def derive(self, *labels: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.labels + tuple(labels))

    def rngs(self, count: int | None) -> list[np.random.Generator]:
        """[rng()] for a single draw; for a stack of `count`, member p's is derive(p).rng()."""
        return [self.rng()] if count is None else [self.derive(p).rng() for p in range(count)]


def example1(gamma: float, theta: float) -> Instance:
    """Two-state chain with one feature (1, 2)' and uniform weights.

    State 1 jumps to state 2, state 2 is absorbing; rewards are
    (cos theta, sin theta). Reference weights:

      w_best = r1/5 + (2+gamma) r2 / (5(1-gamma))
      w_td   = (r1 + 2 r2) / (5 - 6 gamma)        (absent at gamma = 5/6)
      w_br   = ((1-2g) r1 + (2-2g) r2) / ((1-2g)^2 + (2-2g)^2)

    The TD system is singular exactly at gamma = 5/6.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0,1)")
    r1, r2 = np.cos(theta), np.sin(theta)
    mdp = make_mdp([[0.0, 1.0], [0.0, 1.0]], [r1, r2], gamma)
    phi = make_feature_basis([[1.0], [2.0]])
    xi = make_state_weights([0.5, 0.5])
    w_best = r1 / 5.0 + (2.0 + gamma) * r2 / (5.0 * (1.0 - gamma))
    den_td = 5.0 - 6.0 * gamma
    w_td = None if den_td == 0.0 else (r1 + 2.0 * r2) / den_td
    g1, g2 = 1.0 - 2.0 * gamma, 2.0 - 2.0 * gamma
    w_br = (g1 * r1 + g2 * r2) / (g1 * g1 + g2 * g2)
    return Instance(mdp, phi, xi, ReferenceWeights(w_best, w_td, w_br))


def random_chain(n: int, gamma: float, seed: SeedSpec, count: int | None = None) -> Mdp:
    """Random forward chain: state i advances with probability p_i, else stays.

    The last state is absorbing; p_i are uniform on (0,1) and rewards uniform
    on [-1,1]. With a count, one Mdp holding a stack of `count` chains.
    """
    if n < 2:
        raise ValueError("chain needs at least 2 states")
    rngs, stack = seed.rngs(count), count is not None
    p = np.array([rng.uniform(size=n - 1) for rng in rngs])
    r = np.array([rng.uniform(-1.0, 1.0, size=n) for rng in rngs])
    P = np.zeros((len(rngs), n, n))
    idx = np.arange(n - 1)
    P[:, idx, idx + 1] = p
    P[:, idx, idx] = 1.0 - p
    P[:, n - 1, n - 1] = 1.0
    return make_mdp(P if stack else P[0], r if stack else r[0], gamma, stack=stack)


def random_features(n: int, k: int, seed: SeedSpec, count: int | None = None) -> FeatureBasis:
    """Random basis with entries uniform on [-1,1], resampled until independent;
    with a count, a stack of `count` bases in which only the failing ones are redrawn."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rngs, stack = seed.rngs(count), count is not None
    phi = np.array([rng.uniform(-1.0, 1.0, size=(n, k)) for rng in rngs])
    for _ in range(_RESAMPLE_LIMIT):
        try:
            return make_feature_basis(phi if stack else phi[0], stack=stack)
        except MemberCheckError as exc:
            for p in exc.members:
                phi[p] = rngs[p].uniform(-1.0, 1.0, size=(n, k))
    raise RuntimeError(f"could not draw an independent {n}x{k} basis")


def random_weights(n: int, seed: SeedSpec, count: int | None = None) -> StateWeights:
    """Random strictly positive distribution: uniform on [floor, 1], normalized;
    with a count, a stack of `count` of them."""
    if n < 1:
        raise ValueError("need n >= 1")
    rngs, stack = seed.rngs(count), count is not None
    xi = np.array([rng.uniform(_WEIGHT_FLOOR, 1.0, size=n) for rng in rngs])
    return make_state_weights(xi if stack else xi[0], stack=stack)
