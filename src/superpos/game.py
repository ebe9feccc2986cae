"""Channel-discrimination game: free selective operation plus unambiguous
state discrimination.

Alice's informative outcomes n = 1..d use the Fourier-phased free operators
``sqrt(p/d) sum_j exp(2 pi i j n / d) |c_j><c_j^perp|`` at the largest
feasible p, built in one broadcast product; the restart outcome is their free
completion. Free inputs leave the outcomes uniform and uninformative; on the
uniform superposition input the d post-measurement states are linearly
independent, so zero-error discrimination wins every conclusive round.
``simulate`` tabulates once per call, from one product of the stacked
operators with the input columns, the input's outcome CDFs and Bob's answer
CDF after each informative outcome: a uniform forced guess on free inputs,
the zero-error verdict on the superposed input, whose rows come from one
inverse of the post-measurement states (their reciprocal frame; Chefles,
Phys. Lett. A 239, 1998). It then plays the turns in blocks with no Python
code per turn: a block of n turns draws n input rows, then 2n uniforms (n for
the outcomes followed by n for the answers), and array operations turn them
into outcomes, answers and wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import FreeBasis, _sigma_min, filter_probability
from .errors import DimensionMismatch
from .kraus import complete_free
from .linalg import _Record, dagger
from .sampling import make_rng
from .states import PureState

# turns per block of simulate: bounds its arrays for any number of turns
_BLOCK_TURNS = 1 << 16


@dataclass(frozen=True, eq=False)
class GameSpec(_Record):
    """Alice's operation on ``basis``, derived from it and read-only (``build_game`` is its
    call form): d informative free operators at p = the basis's filter probability, which
    saturates ``sum_n K_n'K_n = p sum_j |c_j^perp><c_j^perp| <= 1``, plus their completion."""

    basis: FreeBasis
    p: float = field(init=False)
    informative: tuple = field(init=False)   # Kraus operators for outcomes 1..d
    restart: tuple = field(init=False)       # free completion, outcome 0

    def __post_init__(self):
        basis, d = self.basis, self.basis.d
        p = filter_probability(basis)
        j = np.arange(1, d + 1)
        phase = np.exp(2j * np.pi * j * j[:, None] / d)[:, None, :]  # [n - 1, :, j - 1]
        ops = tuple((np.sqrt(p / d) * (basis.vectors * phase)) @ dagger(basis.reciprocal))
        self._store(p=p, informative=ops, restart=tuple(complete_free(ops, basis)))


@dataclass(frozen=True)
class GameStats:
    """Counters of one simulated game."""

    turns: int
    conclusive_turns: int
    wins: int
    losses: int

    @property
    def win_rate(self) -> float:
        answered = self.wins + self.losses
        return self.wins / answered if answered else 0.0


def build_game(basis: FreeBasis) -> GameSpec:
    """``GameSpec(basis)``: the selective operation at the maximum feasible p."""
    return GameSpec(basis)


def uniform_superposition(basis: FreeBasis) -> PureState:
    """The equal-weight superposition of all free states, normalized."""
    return PureState.normalized(basis.vectors.sum(axis=1))


def outcome_states(spec: GameSpec, state: PureState) -> list[tuple[float, PureState]]:
    """Informative-outcome probabilities and normalized post-measurement states."""
    if state.dim != spec.basis.d:
        raise DimensionMismatch(f"state dimension {state.dim} != game dimension {spec.basis.d}")
    vecs = np.array(spec.informative) @ state.amp
    norms = np.linalg.norm(vecs, axis=1)
    return [(float(n ** 2), PureState(v / n)) for n, v in zip(norms, vecs)]


def _cdf(weights) -> np.ndarray:
    """Normalized cumulative tables along the last axis: the number of a row's
    entries <= ``rng.random()`` (``_count_bisect``) is the index that
    ``rng.choice(len(p), p=p)`` draws from the same stream."""
    p = np.clip(weights, 0.0, None)
    p /= p.sum(axis=-1, keepdims=True)
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _usd_cdfs(states: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Verdict CDFs of unambiguous discrimination among the unit columns of
    ``states``, row k for column k of ``received``: index i names state i,
    index d is inconclusive. The POVM is the states' reciprocal frame scaled
    by sigma_min^2, so the verdict amplitudes are ``inv(states) @ received``.
    The columns are checked as a free basis's are, by ``basis._sigma_min``."""
    smin = _sigma_min(states)
    if len(received) != len(states):
        raise DimensionMismatch(f"received dimension {len(received)} != ensemble dimension {len(states)}")
    probs = smin ** 2 * np.abs(np.linalg.inv(states) @ received).T ** 2
    return _cdf(np.concatenate([probs, np.maximum(0.0, 1.0 - probs.sum(axis=1, keepdims=True))], axis=1))


def discriminate(states: list[PureState], received: PureState,
                 rng_seed: int) -> int | None:
    """Unambiguous discrimination among linearly independent pure states.

    A conclusive result identifies the received state with zero error; None
    signals the inconclusive outcome. Deterministic for a given seed.
    """
    if len(states) == 0:
        raise DimensionMismatch("need at least one state to discriminate among")
    dims = sorted({s.dim for s in states})
    if len(dims) > 1:
        raise DimensionMismatch(f"ensemble states differ in dimension: {dims}")
    cdfs = _usd_cdfs(np.column_stack([s.amp for s in states]), received.amp[:, None])
    outcome = int(_count_bisect(cdfs, make_rng(rng_seed).random(1))[0])
    return None if outcome == len(states) else outcome


def _count_bisect(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise ``bisect_right(table[k], u[k])``: entries of a sorted row <= u,
    counted down the columns of a transposed copy, which numpy reduces faster."""
    return np.count_nonzero(np.ascontiguousarray(table.T) <= u, axis=0)


def _play(cdfs: np.ndarray, answers: np.ndarray, rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Conclusive turns and wins of n turns on uniformly drawn rows of ``cdfs``.

    Row k of ``answers`` is Bob's answer CDF after informative outcome k; its
    index d is the inconclusive answer.
    """
    d = len(answers)
    inputs = rng.integers(len(cdfs), size=n)
    u = rng.random(2 * n)
    outcome = _count_bisect(cdfs[inputs], u[:n])
    asked = np.flatnonzero(outcome < d)  # restart outcomes ask nothing
    answer = _count_bisect(answers[outcome[asked]], u[n + asked])
    conclusive = answer < d
    wins = conclusive & (answer == outcome[asked])
    return int(np.count_nonzero(conclusive)), int(np.count_nonzero(wins))


def simulate(spec: GameSpec, input_kind: str, turns: int, rng_seed: int) -> GameStats:
    """Play the game for a number of turns.

    ``superposed``: Bob hands in the uniform superposition each turn and
    answers only on conclusive discrimination of the post-measurement state.
    ``free``: Bob hands in a uniformly random pure free state and is forced
    to guess the outcome whenever the turn is informative.

    Turns run in blocks of ``_BLOCK_TURNS``, which bounds memory for any
    number of turns. A block of n turns draws ``rng.integers(k, size=n)``
    inputs (k = d free states, or k = 1 superposed input, which draws no
    bits), then ``rng.random(2 * n)``: n outcome uniforms followed by n
    answer uniforms. Raises ``ValueError`` unless turns is an integer >= 1
    (a Python or numpy one, not a bool), and ``LinearlyDependent`` before the
    first turn when the superposed input's post-measurement states are
    linearly dependent.
    """
    if isinstance(turns, bool) or not isinstance(turns, (int, np.integer)) or turns < 1:
        raise ValueError(f"turns must be an integer >= 1, got {turns!r}")
    if input_kind not in ("free", "superposed"):
        raise ValueError(f"input_kind must be 'free' or 'superposed', got {input_kind!r}")
    d = spec.basis.d
    free = input_kind == "free"
    amps = spec.basis.vectors if free else uniform_superposition(spec.basis).amp[:, None]
    vecs = np.array(spec.informative + spec.restart) @ amps  # [outcome, :, input]
    # row k: the outcome CDF of input column k, informative outcomes first;
    # contiguous rows make each row sum add in the order of a 1-D sum
    cdfs = _cdf(np.ascontiguousarray((np.abs(vecs) ** 2).sum(axis=1).T))
    if free:
        answers = _cdf(np.append(np.ones(d), 0.0))[None].repeat(d, axis=0)  # uniform guess
    else:
        posts = vecs[:d, :, 0].T  # column n: the state after outcome n
        posts = posts / np.linalg.norm(posts, axis=0)
        answers = _usd_cdfs(posts, posts)  # row n: its verdict CDF
    rng = make_rng(rng_seed)
    conclusive = wins = 0
    for done in range(0, turns, _BLOCK_TURNS):
        c, w = _play(cdfs, answers, rng, min(_BLOCK_TURNS, turns - done))
        conclusive, wins = conclusive + c, wins + w
    return GameStats(turns=turns, conclusive_turns=conclusive, wins=wins, losses=conclusive - wins)
