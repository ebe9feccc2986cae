"""Dense complex matrix kernel used by every other module.

All routines operate on plain ``numpy`` arrays and are pure functions; the
dimensions encountered in this library are tiny (d <= 8), so robustness is
preferred over asymptotic speed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitian

DEFAULT_TOL = 1e-9


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


@dataclass(frozen=True)
class EigResult:
    """Hermitian eigendecomposition with eigenvalues in ascending order."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(h: np.ndarray, asym_tol: float = 1e-8) -> EigResult:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized internally; raises ``NonHermitian`` when the
    anti-Hermitian part exceeds ``asym_tol * ||h||``.
    """
    h = as_complex_matrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {h.shape}")
    scale = np.linalg.norm(h)
    asym = np.linalg.norm(h - h.conj().T)
    if asym > asym_tol * max(scale, np.finfo(float).tiny):
        raise NonHermitian(f"anti-Hermitian part {asym:.3e} exceeds {asym_tol:.1e}*||h||")
    w, v = np.linalg.eigh(hermitian_part(h))
    return EigResult(w, v)


def svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = u @ diag(s) @ v.conj().T``.

    Singular values are nonnegative and nonincreasing.
    """
    m = as_complex_matrix(m, "m")
    u, s, vh = np.linalg.svd(m)
    return u, s, vh.conj().T


def psd_check(h: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue of Hermitian ``h`` is >= -tol*max(1, ||h||)."""
    w = herm_eig(h).eigenvalues
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return bool(w.size == 0 or w[0] >= -tol * scale)


def min_singular_value(m: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[-1])


def herm_sqrt(h: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD Hermitian matrix (eigenvalues clipped at 0)."""
    res = herm_eig(h)
    w = np.sqrt(np.clip(res.eigenvalues, 0.0, None))
    return (res.eigenvectors * w) @ res.eigenvectors.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))**2`` of two states."""
    r = herm_sqrt(rho)
    inner = hermitian_part(r @ sigma @ r)
    w = np.clip(herm_eig(inner).eigenvalues, 0.0, None)
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
