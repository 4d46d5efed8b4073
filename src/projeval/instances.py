"""The paper's example 1 and the seeded random generators of the sweep.

`example1` builds the analytic two-state instance; the random generators
(chains, features, weights) are pure functions of a SeedSpec, so any trial
of a sweep can be regenerated bit-identically in isolation: member p of a
stack, checked at once, is the single draw from seed.derive(p). A stack's
generators are seeded together, by numpy's SeedSequence hash applied to all
member indices at once, each bit-equal to derive(p).rng(). Each draw is made
once: a basis that fails its independence check raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, make_mdp
from .projections import FeatureBasis, StateWeights, make_feature_basis, make_state_weights

_WEIGHT_FLOOR = 1e-3

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the pool's size and the
# multipliers of its entropy hash (A), of generate_state (B) and of its mixing step
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# generate_state(4, np.uint64) hashes the pool's words in turn, twice over, each word
# xored with one constant and multiplied by the next
_STATE_WORDS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE
_STATE_CONSTANTS = np.array([_INIT_B * pow(_MULT_B, i, 2**32) % 2**32
                             for i in range(2 * _POOL_SIZE + 1)], dtype=np.uint32)[:, None]


@dataclass(frozen=True)
class Instance:
    mdp: Mdp
    phi: FeatureBasis
    xi: StateWeights


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
        """[rng()] for a single draw; for a stack of `count`, member p's is derive(p).rng().

        derive(p)'s SeedSequence pool is this seed's pool with one more entropy word, p,
        mixed in, so the stack hashes one pool and mixes every p into it at once; member
        p's generator is seeded with its row of the resulting generate_state words.
        """
        if count is None:
            return [self.rng()]
        pool = np.random.SeedSequence(self.master_seed, spawn_key=self.labels).pool[:, None]
        words = max(_word_count(self.master_seed), _POOL_SIZE) + sum(map(_word_count, self.labels))
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashed_indices(words, count)  # (4, count)
        mixed ^= mixed >> 16
        state = mixed[_STATE_WORDS] ^ _STATE_CONSTANTS[:-1]                     # (8, count)
        state *= _STATE_CONSTANTS[1:]
        state ^= state >> 16
        seeds = (state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << 32).T
        # PCG64 reads each row's raw buffer, and a row of the transpose is strided
        return [np.random.Generator(np.random.PCG64(_SeedState(seed)))
                for seed in np.ascontiguousarray(seeds)]


def _word_count(value: int) -> int:
    """The 32-bit words numpy splits a seed integer into; 0 is one word."""
    return max(1, -(-int(value).bit_length() // 32))


@functools.lru_cache(maxsize=64)
def _hashed_indices(words: int, count: int) -> np.ndarray:
    """(4, count) hashes of the indices p < count, each as SeedSequence mixes an entropy
    word after `words` others into the pool's four words: by then its hash constant has
    stepped 4 * words times, whatever the words were."""
    h = _INIT_A * pow(_MULT_A, 4 * words, 2**32) % 2**32
    hashed = np.empty((_POOL_SIZE, count), dtype=np.uint32)
    for row in hashed:
        row[:] = np.arange(count, dtype=np.uint32) ^ h
        h = h * _MULT_A % 2**32
        row *= h
        row ^= row >> 16
    hashed.flags.writeable = False
    return hashed


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose only state, generate_state(4, np.uint64), is given."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (len(self.state), self.state.dtype):
            raise ValueError(f"this seed holds {len(self.state)} {self.state.dtype} words")
        return self.state


def example1(gamma: float, theta: float) -> Instance:
    """Two-state chain with one feature (1, 2)' and uniform weights.

    State 1 jumps to state 2, state 2 is absorbing; rewards are
    (cos theta, sin theta). The TD system is singular exactly at gamma = 5/6.
    """
    mdp = make_mdp([[0.0, 1.0], [0.0, 1.0]], [np.cos(theta), np.sin(theta)], gamma)
    return Instance(mdp, make_feature_basis([[1.0], [2.0]]), make_state_weights([0.5, 0.5]))


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
    """Random basis with entries uniform on [-1,1], drawn once; with a count, a stack of
    `count` bases. A draw whose columns fail the independence check raises its ValueError."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rngs, stack = seed.rngs(count), count is not None
    phi = np.array([rng.uniform(-1.0, 1.0, size=(n, k)) for rng in rngs])
    return make_feature_basis(phi if stack else phi[0], stack=stack)


def random_weights(n: int, seed: SeedSpec, count: int | None = None) -> StateWeights:
    """Random strictly positive distribution: uniform on [floor, 1], normalized;
    with a count, a stack of `count` of them."""
    if n < 1:
        raise ValueError("need n >= 1")
    rngs, stack = seed.rngs(count), count is not None
    xi = np.array([rng.uniform(_WEIGHT_FLOOR, 1.0, size=n) for rng in rngs])
    return make_state_weights(xi if stack else xi[0], stack=stack)
