"""Channel-discrimination game: free selective operation plus unambiguous
state discrimination.

Alice's informative outcomes n = 1..d use the Fourier-phased free operators
``sqrt(p/d) sum_j exp(2 pi i j n / d) |c_j><c_j^perp|`` at the largest
feasible p; the restart outcome is their free completion. On free inputs the
outcome distribution is uniform and the post-measurement states carry no
information; on the uniform superposition input the d post-measurement
states are linearly independent, so a zero-error discrimination strategy
wins every conclusive round. The simulator tabulates two tables per input
once per call: its outcome CDFs, and Bob's answer CDF after each informative
outcome (the zero-error verdict on the superposed input, a uniform forced
guess on free inputs). It then plays the turns in blocks with no Python code
per turn: a block of n turns draws n input rows, then 2n uniforms (n for the
outcomes followed by n for the answers), and array operations turn them into
outcomes, answers and wins.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis, filter_probability, new_free_basis
from .errors import DimensionMismatch, LinearlyDependent, LinearlyDependentEnsemble
from .kraus import Channel, complete_free
from .sampling import make_rng
from .states import PureState

# turns per block of simulate: bounds its arrays for any number of turns
_BLOCK_TURNS = 1 << 16


@dataclass(frozen=True)
class GameSpec:
    """Alice's operation: d informative free operators plus their completion."""

    basis: FreeBasis
    p: float
    informative: tuple   # Kraus operators for outcomes 1..d
    restart: tuple       # free completion, outcome 0

    @property
    def channel(self) -> Channel:
        return Channel(self.informative + self.restart)


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
    """Assemble the selective operation at the maximum feasible p.

    p is the filter probability of the basis, which saturates
    ``sum_n K_n'K_n = p sum_j |c_j^perp><c_j^perp| <= 1``.
    """
    d = basis.d
    p = filter_probability(basis)
    w_dag = basis.reciprocal.conj().T
    v = basis.vectors
    j = np.arange(1, d + 1)
    ops = [np.sqrt(p / d) * (v * np.exp(2j * np.pi * j * n / d)) @ w_dag for n in j]
    restart = complete_free(ops, basis)
    return GameSpec(basis=basis, p=p, informative=tuple(ops), restart=tuple(restart))


def uniform_superposition(basis: FreeBasis) -> PureState:
    """The equal-weight superposition of all free states, normalized."""
    return PureState.normalized(basis.vectors.sum(axis=1))


def outcome_states(spec: GameSpec, state: PureState) -> list[tuple[float, PureState]]:
    """Informative-outcome probabilities and normalized post-measurement states."""
    out = []
    for k in spec.informative:
        vec = k @ state.amp
        p = float(np.linalg.norm(vec) ** 2)
        out.append((p, PureState.normalized(vec)))
    return out


def _usd_povm(states: list[PureState]) -> tuple[np.ndarray, float]:
    """Reciprocal-frame vectors and the largest uniform scaling keeping the POVM valid."""
    try:
        frame = new_free_basis([s.amp for s in states])
    except LinearlyDependent as exc:
        raise LinearlyDependentEnsemble(f"ensemble: {exc}") from exc
    return frame.reciprocal, filter_probability(frame)


def _cdf(weights) -> list[float]:
    """Normalized cumulative table: ``bisect_right(table, rng.random())`` draws
    the same index from the same stream as ``rng.choice(len(p), p=p)``."""
    p = np.clip(weights, 0.0, None)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _verdict_cdf(reciprocal: np.ndarray, scaling: float, received: np.ndarray) -> list[float]:
    """USD outcome table: index i names state i, index len(reciprocal) is inconclusive."""
    probs = np.clip(scaling * np.abs(reciprocal.conj().T @ received) ** 2, 0.0, None)
    return _cdf(np.append(probs, max(0.0, 1.0 - probs.sum())))


def discriminate(states: list[PureState], received: PureState,
                 rng_seed: int) -> int | None:
    """Unambiguous discrimination among linearly independent pure states.

    A conclusive result identifies the received state with zero error; None
    signals the inconclusive outcome. Deterministic for a given seed.
    """
    reciprocal, scaling = _usd_povm(states)
    if received.dim != len(reciprocal):
        raise DimensionMismatch(f"received dimension {received.dim} != ensemble dimension {len(reciprocal)}")
    cdf = _verdict_cdf(reciprocal, scaling, received.amp)
    outcome = bisect_right(cdf, make_rng(rng_seed).random())
    return None if outcome == len(states) else outcome


def _outcome_cdfs(spec: GameSpec, amps: np.ndarray) -> np.ndarray:
    """Row k: the outcome CDF of input column k of ``amps``, over informative
    outcomes 0..d-1 and then the restart operators."""
    ops = np.stack(spec.informative + spec.restart)
    probs = (np.abs(ops @ amps) ** 2).sum(axis=1).T
    return np.array([_cdf(row) for row in probs])


def _count_bisect(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise ``bisect_right(table[k], u[k])``: entries of a sorted row <= u."""
    return np.count_nonzero(table <= u[:, None], axis=1)


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
    answer uniforms. Raises ``LinearlyDependentEnsemble`` before the first
    turn when the superposed input's post-measurement states are linearly
    dependent.
    """
    if turns < 1:
        raise ValueError(f"turns must be >= 1, got {turns}")
    if input_kind not in ("free", "superposed"):
        raise ValueError(f"input_kind must be 'free' or 'superposed', got {input_kind!r}")
    if input_kind == "free":
        d = spec.basis.d
        cdfs = _outcome_cdfs(spec, spec.basis.vectors)  # row i: free state i
        answers = np.tile(_cdf(np.append(np.ones(d), 0.0)), (d, 1))  # uniform guess
    else:
        superposed = uniform_superposition(spec.basis)
        posts = [s for _, s in outcome_states(spec, superposed)]
        povm = _usd_povm(posts)
        cdfs = _outcome_cdfs(spec, superposed.amp[:, None])
        # row n: the verdict CDF of the state after outcome n
        answers = np.array([_verdict_cdf(*povm, s.amp) for s in posts])
    rng = make_rng(rng_seed)
    conclusive = wins = 0
    for done in range(0, turns, _BLOCK_TURNS):
        c, w = _play(cdfs, answers, rng, min(_BLOCK_TURNS, turns - done))
        conclusive, wins = conclusive + c, wins + w
    return GameStats(turns=turns, conclusive_turns=conclusive, wins=wins, losses=conclusive - wins)
