"""Channel-discrimination game: free selective operation plus unambiguous
state discrimination.

Alice's informative outcomes n = 1..d use the Fourier-phased free operators
``sqrt(p/d) sum_j exp(2 pi i j n / d) |c_j><c_j^perp|`` at the largest
feasible p; the restart outcome is their free completion. On free inputs the
outcome distribution is uniform and the post-measurement states carry no
information; on the uniform superposition input the d post-measurement
states are linearly independent, so a zero-error discrimination strategy
wins every conclusive round. The simulator tabulates each input's outcome and
verdict distributions once per call, then plays the turns in blocks with no
Python code per turn: one to three Generator calls draw a block's randomness,
and array operations turn it into outcomes, verdicts and wins. On the
superposed input every turn reads the doubles ``Generator.choice`` would draw,
so the stream and the counts equal those of a per-turn ``rng.choice`` loop; on
the free input a block of n turns draws n inputs, then n uniforms, then n
guesses.
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
    cdf = _verdict_cdf(*_usd_povm(states), received.amp)
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


def _play_free(cdfs: np.ndarray, rng: np.random.Generator, n: int) -> tuple[int, int]:
    """Conclusive turns and wins of n free-input turns."""
    d = len(cdfs)
    inputs = rng.integers(d, size=n)
    outcome = _count_bisect(cdfs[inputs], rng.random(n))
    informative = outcome < d  # Bob must guess; restart asks nothing
    wins = informative & (rng.integers(d, size=n) == outcome)
    return int(np.count_nonzero(informative)), int(np.count_nonzero(wins))


def _play_superposed(cdf: np.ndarray, verdicts: np.ndarray, u: np.ndarray,
                     n: int) -> tuple[int, int, int]:
    """Conclusive turns, wins and draws consumed by n superposed turns read
    from ``u``, which begins at a turn and holds at least 2n draws.

    A turn reads one draw, and one more (its verdict) after an informative
    outcome. Position i starts a turn iff the run of draws before it that
    would be informative as turn starts has even length: the position after
    a non-informative draw always starts a turn, and from there informative
    starts and their verdicts alternate.
    """
    d = len(verdicts)
    outcome = np.searchsorted(cdf, u, side="right")
    informative = outcome < d
    pos = np.arange(len(u))
    last_plain = np.maximum.accumulate(np.where(informative, -1, pos))
    run = pos - 1 - np.concatenate(([-1], last_plain[:-1]))
    starts = np.flatnonzero(run % 2 == 0)[:n]
    asked = starts[informative[starts]]
    verdict = _count_bisect(verdicts[outcome[asked]], u[asked + 1])
    conclusive = verdict < d  # index d is the inconclusive outcome
    wins = conclusive & (verdict == outcome[asked])
    used = int(starts[-1]) + 1 + int(informative[starts[-1]])
    return int(np.count_nonzero(conclusive)), int(np.count_nonzero(wins)), used


def simulate(spec: GameSpec, input_kind: str, turns: int, rng_seed: int) -> GameStats:
    """Play the game for a number of turns.

    ``superposed``: Bob hands in the uniform superposition each turn and
    answers only on conclusive discrimination of the post-measurement state.
    Each turn consumes the one or two doubles a per-turn ``rng.choice`` of
    the outcome and then of the verdict would draw, so the counts equal that
    loop's for every seed.
    ``free``: Bob hands in a uniformly random pure free state and is forced
    to guess the outcome whenever the turn is informative. Each block of n
    turns draws ``rng.integers(d, size=n)`` inputs, ``rng.random(n)``
    uniforms and ``rng.integers(d, size=n)`` guesses, in that order.

    Turns run in blocks of ``_BLOCK_TURNS``, which bounds memory for any
    number of turns. Raises ``LinearlyDependentEnsemble`` before the first
    turn when the superposed input's post-measurement states are linearly
    dependent.
    """
    if turns < 1:
        raise ValueError(f"turns must be >= 1, got {turns}")
    if input_kind not in ("free", "superposed"):
        raise ValueError(f"input_kind must be 'free' or 'superposed', got {input_kind!r}")
    rng = make_rng(rng_seed)
    blocks = [min(_BLOCK_TURNS, turns - done) for done in range(0, turns, _BLOCK_TURNS)]
    conclusive = wins = 0
    if input_kind == "free":
        cdfs = _outcome_cdfs(spec, spec.basis.vectors)  # row i: free state i
        for n in blocks:
            c, w = _play_free(cdfs, rng, n)
            conclusive, wins = conclusive + c, wins + w
    else:
        superposed = uniform_superposition(spec.basis)
        posts = [s for _, s in outcome_states(spec, superposed)]
        povm = _usd_povm(posts)
        cdf = _outcome_cdfs(spec, superposed.amp[:, None])[0]
        # row n: the verdict CDF of the state after outcome n
        verdicts = np.array([_verdict_cdf(*povm, s.amp) for s in posts])
        carry = np.empty(0)  # drawn, not yet read: the next block starts there
        for n in blocks:
            u = np.concatenate((carry, rng.random(max(0, 2 * n - len(carry)))))
            c, w, used = _play_superposed(cdf, verdicts, u, n)
            conclusive, wins, carry = conclusive + c, wins + w, u[used:]
    return GameStats(turns=turns, conclusive_turns=conclusive, wins=wins, losses=conclusive - wins)
