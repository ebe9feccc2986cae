"""Channel-discrimination game: free selective operation plus unambiguous
state discrimination.

Alice's informative outcomes n = 1..d use the Fourier-phased free operators
``sqrt(p/d) sum_j exp(2 pi i j n / d) |c_j><c_j^perp|`` at the largest
feasible p; the restart outcome is their free completion. On free inputs the
outcome distribution is uniform and the post-measurement states carry no
information; on the uniform superposition input the d post-measurement
states are linearly independent, so a zero-error discrimination strategy
wins every conclusive round. The simulator tabulates each input's outcome and
verdict distributions once per call, then samples each turn by inverse CDF
from the draws ``Generator.choice`` would make: the RNG stream is unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis, filter_probability, new_free_basis
from .errors import LinearlyDependent, LinearlyDependentEnsemble
from .kraus import Channel, complete_free
from .sampling import make_rng
from .states import PureState


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
    cdf = _verdict_cdf(*_usd_povm(states), received.amp)
    outcome = bisect_right(cdf, make_rng(rng_seed).random())
    return None if outcome == len(states) else outcome


def simulate(spec: GameSpec, input_kind: str, turns: int, rng_seed: int) -> GameStats:
    """Play the game for a number of turns.

    ``superposed``: Bob hands in the uniform superposition each turn and
    answers only on conclusive discrimination of the post-measurement state.
    ``free``: Bob hands in a uniformly random pure free state and is forced
    to guess the outcome whenever the turn is informative.

    Raises ``LinearlyDependentEnsemble`` before the first turn when the
    superposed input's post-measurement states are linearly dependent.
    """
    if turns < 1:
        raise ValueError(f"turns must be >= 1, got {turns}")
    if input_kind not in ("free", "superposed"):
        raise ValueError(f"input_kind must be 'free' or 'superposed', got {input_kind!r}")
    rng = make_rng(rng_seed)
    d = spec.basis.d
    all_ops = spec.informative + spec.restart

    def outcome_cdf(amp: np.ndarray) -> list[float]:
        return _cdf([np.linalg.norm(k @ amp) ** 2 for k in all_ops])

    conclusive = wins = 0
    if input_kind == "free":
        cdfs = [outcome_cdf(spec.basis.state(i)) for i in range(d)]
        for _ in range(turns):
            outcome = bisect_right(cdfs[int(rng.integers(d))], rng.random())
            if outcome < d:  # informative: Bob must guess; restart asks nothing
                conclusive += 1
                wins += int(rng.integers(d)) == outcome
    else:
        superposed = uniform_superposition(spec.basis)
        posts = [s for _, s in outcome_states(spec, superposed)]
        povm = _usd_povm(posts)
        cdf = outcome_cdf(superposed.amp)
        verdicts = [_verdict_cdf(*povm, s.amp) for s in posts]  # row n: state after outcome n
        for _ in range(turns):
            outcome = bisect_right(cdf, rng.random())
            if outcome < d:
                verdict = bisect_right(verdicts[outcome], rng.random())
                if verdict < d:  # conclusive; index d is the inconclusive outcome
                    conclusive += 1
                    wins += verdict == outcome
    return GameStats(turns=turns, conclusive_turns=conclusive, wins=wins, losses=conclusive - wins)
