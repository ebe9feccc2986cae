from bisect import bisect_right
from dataclasses import fields

import numpy as np
import pytest

from superpos import game
from superpos.basis import orthonormal_basis, symmetric_basis_d3
from superpos.errors import LinearlyDependentEnsemble
from superpos.game import (
    GameStats,
    _cdf,
    _usd_povm,
    build_game,
    discriminate,
    outcome_states,
    simulate,
    uniform_superposition,
)
from superpos.kraus import is_free_kraus
from superpos.linalg import dagger
from superpos.sampling import make_rng, random_basis
from superpos.states import PureState


def test_build_game_orthonormal_saturates():
    b = orthonormal_basis(3)
    spec = build_game(b)
    assert abs(spec.p - 1.0) < 1e-12
    total = sum(dagger(k) @ k for k in spec.informative)
    assert np.abs(total - np.eye(3)).max() < 1e-10
    assert sum(np.linalg.norm(k) for k in spec.restart) < 1e-6


def test_build_game_symmetric_d3():
    b = symmetric_basis_d3()
    spec = build_game(b)
    assert abs(spec.p - 0.5) < 1e-12
    assert all(is_free_kraus(k, b) is not None for k in spec.informative)
    assert spec.channel.is_trace_preserving


def test_informative_sum_matches_reciprocal_frame():
    rng = make_rng(901)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        spec = build_game(b)
        total = sum(dagger(k) @ k for k in spec.informative)
        w = b.reciprocal
        assert np.abs(total - spec.p * w @ dagger(w)).max() < 1e-9
        assert np.linalg.eigvalsh(np.eye(d) - total)[0] > -1e-9


def test_outcome_states_free_input():
    b = symmetric_basis_d3()
    spec = build_game(b)
    for i in range(3):
        outs = outcome_states(spec, PureState(b.state(i)))
        for p, post in outs:
            assert abs(p - spec.p / 3) < 1e-12
            overlap = abs(np.vdot(post.amp, b.state(i)))
            assert abs(overlap - 1.0) < 1e-10  # same state up to phase


def test_outcome_states_fourier_structure():
    b = symmetric_basis_d3()
    spec = build_game(b)
    phi = uniform_superposition(b)
    outs = outcome_states(spec, phi)
    assert len(outs) == 3
    # the free coefficients of outcome n are proportional to the Fourier
    # vector exp(2 pi i l n / 3), hence the family is linearly independent
    coeff_mat = np.column_stack([b.to_free_frame(s.amp) for _, s in outs])
    for n in range(1, 4):
        fourier = np.exp(2j * np.pi * np.arange(1, 4) * n / 3)
        col = coeff_mat[:, n - 1]
        overlap = abs(np.vdot(fourier, col)) / (np.linalg.norm(fourier) * np.linalg.norm(col))
        assert abs(overlap - 1.0) < 1e-10
    assert np.linalg.svd(np.column_stack([s.amp for _, s in outs]), compute_uv=False)[-1] > 1e-3


def test_fourier_vectors_orthogonal():
    for d in (2, 3, 5):
        u = np.exp(2j * np.pi * np.outer(np.arange(1, d + 1), np.arange(1, d + 1)) / d)
        g = u.conj().T @ u
        assert np.abs(g - d * np.eye(d)).max() < 1e-9


def test_post_measurement_family_independent_all_dims():
    rng = make_rng(903)
    for d in (2, 3, 4, 5):
        for _ in range(10):
            b = random_basis(d, rng)
            spec = build_game(b)
            outs = outcome_states(spec, uniform_superposition(b))
            mat = np.column_stack([s.amp for _, s in outs])
            assert np.linalg.svd(mat, compute_uv=False)[-1] > 1e-8


def test_discriminate_orthonormal_always_conclusive():
    b = orthonormal_basis(3)
    states = [PureState(b.state(i)) for i in range(3)]
    for seed in range(20):
        idx = seed % 3
        assert discriminate(states, states[idx], rng_seed=seed) == idx


def test_discriminate_zero_error_on_game_ensemble():
    b = symmetric_basis_d3()
    spec = build_game(b)
    candidates = [s for _, s in outcome_states(spec, uniform_superposition(b))]
    rng = make_rng(902)
    conclusive = 0
    for trial in range(10_000):
        true = int(rng.integers(3))
        verdict = discriminate(candidates, candidates[true], rng_seed=trial)
        if verdict is not None:
            conclusive += 1
            assert verdict == true
    assert conclusive > 1000  # the inconclusive rate is bounded away from 1


def test_discriminate_rejects_dependent_ensemble():
    b = orthonormal_basis(2)
    s = PureState(b.state(0))
    with pytest.raises(LinearlyDependentEnsemble):
        discriminate([s, s], s, rng_seed=0)


def test_simulate_superposed_never_loses():
    spec = build_game(symmetric_basis_d3())
    stats = simulate(spec, "superposed", turns=4000, rng_seed=5)
    assert stats.losses == 0
    assert stats.wins == stats.conclusive_turns
    assert 0 < stats.conclusive_turns <= stats.turns


def test_simulate_free_forced_guess_rate():
    spec = build_game(symmetric_basis_d3())
    stats = simulate(spec, "free", turns=10_000, rng_seed=6)
    answered = stats.wins + stats.losses
    sigma = np.sqrt((1 / 3) * (2 / 3) / answered)
    assert abs(stats.win_rate - 1 / 3) <= 3 * sigma


def test_simulate_rejects_bad_arguments():
    spec = build_game(symmetric_basis_d3())
    with pytest.raises(ValueError):
        simulate(spec, "superposed", turns=0, rng_seed=1)
    with pytest.raises(ValueError):
        simulate(spec, "mixed", turns=10, rng_seed=1)


def test_simulate_deterministic_for_seed():
    spec = build_game(symmetric_basis_d3())
    a = simulate(spec, "superposed", turns=500, rng_seed=42)
    b = simulate(spec, "superposed", turns=500, rng_seed=42)
    assert a == b


def _discriminate_per_turn(states, received, rng):
    reciprocal, scaling = _usd_povm(states)
    amps = reciprocal.conj().T @ received.amp
    probs = np.clip(scaling * np.abs(amps) ** 2, 0.0, None)
    inconclusive = max(0.0, 1.0 - probs.sum())
    full = np.append(probs, inconclusive)
    full /= full.sum()
    outcome = int(rng.choice(len(full), p=full))
    return None if outcome == len(states) else outcome


def _simulate_per_turn(spec, turns, rng_seed):
    """Reference superposed simulator: rng.choice and a fresh USD POVM on every turn."""
    rng = make_rng(rng_seed)
    d = spec.basis.d
    all_ops = list(spec.informative) + list(spec.restart)
    superposed = uniform_superposition(spec.basis)
    candidates = [s for _, s in outcome_states(spec, superposed)]

    conclusive = wins = losses = 0
    for _ in range(turns):
        vecs = [k @ superposed.amp for k in all_ops]
        probs = np.array([np.linalg.norm(v) ** 2 for v in vecs])
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        outcome = int(rng.choice(len(all_ops), p=probs))
        if outcome >= d:
            continue  # restart outcome: new turn, no answer
        post = PureState.normalized(vecs[outcome])
        verdict = _discriminate_per_turn(candidates, post, rng)
        if verdict is None:
            continue
        conclusive += 1
        if verdict == outcome:
            wins += 1
        else:
            losses += 1
    return GameStats(turns=turns, conclusive_turns=conclusive, wins=wins, losses=losses)


def _simulate_free_per_turn(spec, turns, rng_seed):
    """Reference free-input simulator: the announced block layout (n inputs, n
    uniforms, n guesses), then each turn's outcome probabilities recomputed
    from the Kraus operators and walked until their running sum passes the
    uniform."""
    rng = make_rng(rng_seed)
    d = spec.basis.d
    all_ops = list(spec.informative) + list(spec.restart)

    conclusive = wins = 0
    for done in range(0, turns, game._BLOCK_TURNS):
        n = min(game._BLOCK_TURNS, turns - done)
        inputs, uniforms, guesses = rng.integers(d, size=n), rng.random(n), rng.integers(d, size=n)
        for i, u, guess in zip(inputs, uniforms, guesses):
            state = spec.basis.state(int(i))
            probs = [np.linalg.norm(k @ state) ** 2 for k in all_ops]
            total = sum(probs)
            outcome, running = len(probs) - 1, 0.0
            for index, p in enumerate(probs):
                running += p / total
                if u < running:
                    outcome = index
                    break
            if outcome < d:  # restart outcomes ask nothing
                conclusive += 1
                wins += int(guess == outcome)
    return GameStats(turns=turns, conclusive_turns=conclusive, wins=wins, losses=conclusive - wins)


def test_simulate_matches_per_turn_reference():
    rng = make_rng(904)
    bases = [symmetric_basis_d3(), orthonormal_basis(3), orthonormal_basis(2)]
    bases += [random_basis(d, rng) for d in range(2, 9)]
    for b in bases:
        spec = build_game(b)
        for seed in (1, 22, 333):
            for turns in (1, 2, 3, 2000):
                assert simulate(spec, "superposed", turns, seed) == _simulate_per_turn(spec, turns, seed)
                assert simulate(spec, "free", turns, seed) == _simulate_free_per_turn(spec, turns, seed)


def test_simulate_block_boundaries(monkeypatch):
    # seven-turn blocks put block ends inside the runs of informative draws
    # that decide where the superposed turns start
    monkeypatch.setattr(game, "_BLOCK_TURNS", 7)
    rng = make_rng(908)
    for b in (symmetric_basis_d3(), orthonormal_basis(2), random_basis(4, rng), random_basis(6, rng)):
        spec = build_game(b)
        for seed in (1, 22, 333):
            for turns in range(6, 16):
                assert simulate(spec, "superposed", turns, seed) == _simulate_per_turn(spec, turns, seed)
                assert simulate(spec, "free", turns, seed) == _simulate_free_per_turn(spec, turns, seed)


class _CountingRng:
    """Generator proxy recording how many values each call returns."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append(int(np.size(out)))
            return out
        return counted


def test_simulate_draws_at_most_two_blocks_per_call(monkeypatch):
    proxies = []

    def counting_rng(seed):
        proxies.append(_CountingRng(make_rng(seed)))
        return proxies[-1]

    monkeypatch.setattr(game, "make_rng", counting_rng)
    spec = build_game(symmetric_basis_d3())
    turns = 2 * game._BLOCK_TURNS + 5
    for kind, calls_per_block in (("superposed", 1), ("free", 3)):
        stats = simulate(spec, kind, turns, 7)
        assert stats.turns == turns
        draws = proxies[-1].draws
        assert len(draws) == 3 * calls_per_block
        assert max(draws) <= 2 * game._BLOCK_TURNS


def test_simulate_counts_are_python_ints():
    spec = build_game(symmetric_basis_d3())
    for kind in ("free", "superposed"):
        stats = simulate(spec, kind, 300, 8)
        assert all(type(getattr(stats, f.name)) is int for f in fields(stats))


def test_inverse_cdf_matches_generator_choice():
    # simulate's superposed input replaces rng.choice(n, p=p) by bisect_right
    # (searchsorted with side="right") over _cdf; the two must consume the
    # same draw and return the same index, or its seeded RNG stream changes
    src = make_rng(905)
    twin_a, twin_b = make_rng(906), make_rng(906)
    for trial in range(100_000):
        n = int(src.integers(2, 14))
        weights = src.random(n) ** 3
        if trial % 5 == 0:
            weights[int(src.integers(n))] = 0.0
        p = weights / weights.sum()
        assert int(twin_a.choice(n, p=p)) == bisect_right(_cdf(weights), twin_b.random())


def test_build_game_matches_outer_product_sum():
    rng = make_rng(907)
    for d in range(2, 9):
        b = random_basis(d, rng)
        v, w = b.vectors, b.reciprocal
        for n, op in enumerate(build_game(b).informative, start=1):
            k = np.zeros((d, d), dtype=complex)
            for j in range(1, d + 1):
                k += np.exp(2j * np.pi * j * n / d) * np.outer(v[:, j - 1], w[:, j - 1].conj())
            assert np.abs(op - np.sqrt(b.sigma_min ** 2 / d) * k).max() < 1e-14
