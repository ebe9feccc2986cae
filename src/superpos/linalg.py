"""Dense complex matrix helpers: validation, Hermitian eigendecomposition,
square roots, fidelity and partial traces.

All routines operate on plain ``numpy`` arrays and are pure functions; the
dimensions encountered in this library are tiny (d <= 8), so robustness is
preferred over asymptotic speed everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitian


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A') / 2."""
    a = np.asarray(a)
    return 0.5 * (a + a.conj().T)


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite complex 2-d array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_hermitian_matrix(a, name: str = "h") -> np.ndarray:
    """Validate a finite square complex matrix as Hermitian; return it unchanged.

    Raises ``NonHermitian`` when the anti-Hermitian part exceeds
    ``1e-8 * max(1, ||a||)``, the relative rule ``DensityMatrix`` uses, so
    rounding residue of a near-zero matrix passes.
    """
    m = as_complex_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {m.shape}")
    asym = np.linalg.norm(m - m.conj().T)
    if asym > 1e-8 * max(1.0, np.linalg.norm(m)):
        raise NonHermitian(f"anti-Hermitian part {asym:.3e} exceeds 1e-8*max(1, ||{name}||)")
    return m


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and eigenvectors of a Hermitian matrix.

    The input passes ``as_hermitian_matrix`` and is symmetrized internally.
    """
    return np.linalg.eigh(hermitian_part(as_hermitian_matrix(h)))


def herm_sqrt(h: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD Hermitian matrix (eigenvalues clipped at 0)."""
    w, v = herm_eig(h)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))**2`` of two states.

    Raises ``NonHermitian`` when ``rho`` or ``sigma`` fails ``as_hermitian_matrix``.
    """
    r = herm_sqrt(rho)
    w = np.clip(herm_eig(r @ as_hermitian_matrix(sigma, "sigma") @ r)[0], 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str = "a") -> np.ndarray:
    """Partial trace of an operator on a ``dim_a * dim_b`` bipartite space."""
    m = as_complex_matrix(m, "m")
    if m.shape != (dim_a * dim_b, dim_a * dim_b):
        raise DimensionMismatch(f"operator shape {m.shape} != ({dim_a * dim_b},)*2")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "b":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError("keep must be 'a' or 'b'")
