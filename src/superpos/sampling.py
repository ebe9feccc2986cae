"""Seeded random generation of states, bases and free operations.

Every sampler takes an ``np.random.Generator`` and draws from it; build one
with ``make_rng(seed)``, a counter-based 64-bit Philox generator, so that runs
are bit-reproducible for a given seed.
"""

from __future__ import annotations

import numpy as np

from .basis import FreeBasis
from .kraus import FreeKrausForm
from .linalg import dagger
from .states import DensityMatrix, PureState, free_mixture


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator (Philox) for bit-reproducible sampling; ``ValueError``
    unless seed is a non-negative integer, a Python or numpy one but not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(seed))


def haar_state(d: int, rng: np.random.Generator) -> PureState:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState.normalized(v)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Ginibre-induced random mixed state of the given rank (default d), from 1 to d."""
    k = d if rank is None else rank
    if not 1 <= k <= d:
        raise ValueError(f"rank must be at least 1, got {k}" if k < 1 else f"rank must be at most {d}, got {k}")
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ dagger(g)
    return DensityMatrix(m / np.trace(m).real)


def random_basis(d: int, rng: np.random.Generator, min_sigma: float = 0.1) -> FreeBasis:
    """Random normalized basis, resampled until sigma_min >= min_sigma.

    The floor keeps the reciprocal frame well conditioned so that
    biorthogonality holds to ~1e-12 in double precision. Unit-norm columns have
    sigma_min <= 1, so ``ValueError`` unless 0 <= min_sigma < 1; the expected
    number of draws grows without bound as min_sigma nears 1.
    """
    if not 0.0 <= min_sigma < 1.0:   # written so that NaN fails
        raise ValueError(f"min_sigma must lie in [0, 1), got {min_sigma}")
    while True:
        v = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        v /= np.linalg.norm(v, axis=0)
        if np.linalg.svd(v, compute_uv=False)[-1] >= min_sigma:
            return FreeBasis(v)


def random_free_state(basis: FreeBasis, rng: np.random.Generator) -> DensityMatrix:
    """Random statistical mixture of the pure free states."""
    return free_mixture(basis, rng.dirichlet(np.ones(basis.d)))


def random_free_operator(basis: FreeBasis, rng: np.random.Generator) -> np.ndarray:
    """Random free Kraus operator: random coefficients and index function."""
    d = basis.d
    coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
    return FreeKrausForm(coeffs, rng.integers(d, size=d)).matrix(basis)


def random_subnormalized_free_ops(basis: FreeBasis, rng: np.random.Generator, n_ops: int = 2,
                                  slack: float = 0.9) -> list[np.ndarray]:
    """Random free operators jointly scaled so sum K'K <= slack * identity, 0 < slack <= 1."""
    if isinstance(n_ops, bool) or not isinstance(n_ops, (int, np.integer)) or n_ops < 1 or not 0.0 < slack <= 1.0:
        raise ValueError(f"need an integer n_ops >= 1 and 0 < slack <= 1, got {n_ops!r} and {slack!r}")
    ops = [random_free_operator(basis, rng) for _ in range(n_ops)]
    total = np.sum([dagger(k) @ k for k in ops], axis=0)
    scale = np.sqrt(slack / max(float(np.linalg.eigvalsh(total)[-1]), 1e-300))
    return [scale * k for k in ops]

