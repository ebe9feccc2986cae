"""Dense complex matrix helpers: the input rules for matrices and tolerances,
Hermitian eigendecomposition, fidelity and partial traces, and the base of the
records that check their own fields.

All routines operate on plain ``numpy`` arrays and are pure functions; the
dimensions encountered in this library are tiny (d <= 8), so robustness is
preferred over asymptotic speed everywhere.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import DimensionMismatch, NonHermitian


class _Record:
    """Base of the frozen records that check their init fields and derive the rest in
    ``__post_init__``: a pickle or a copy rebuilds one through its constructor."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def _store(self, **values):
        """Set fields of the frozen record, each array (or tuple of arrays) made read-only; returns the record."""
        for name, value in values.items():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            object.__setattr__(self, name, value)
        return self


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of one matrix or of each matrix of an (n, k, m) stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A') / 2, of one matrix or of each matrix of an (n, k, k) stack."""
    return 0.5 * (a + dagger(a))


def psd_part(a: np.ndarray) -> np.ndarray:
    """The Hermitian part of A, or of each matrix of a stack, with negative eigenvalues clipped to 0."""
    w, v = np.linalg.eigh(hermitian_part(a))
    return (v * np.clip(w, 0.0, None)[..., None, :]) @ dagger(v)


def as_complex_matrix(a, name: str = "matrix", stack: bool = False, shape: tuple | None = None) -> np.ndarray:
    """A finite complex 2-d array, or with ``stack`` an (n, k, m) stack of them given
    as one array or a sequence of matrices, checked in one pass. ``DimensionMismatch``
    for an empty or ragged stack, another number of axes, or matrices not of ``shape``
    when it is given; an entry that is not a number keeps numpy's ``ValueError``."""
    try:
        m = np.asarray(a, dtype=complex)
    except ValueError as exc:   # numpy's reason is kept as the cause
        if not stack or [len(s) for s in {np.array(k, dtype=object).shape for k in a}] == [2]:
            raise   # not a ragged stack: an entry is not a number
        raise DimensionMismatch(f"{name} stack members must share one shape") from exc
    if stack and m.shape[:1] == (0,):
        raise DimensionMismatch(f"need at least one {name}")
    if m.ndim != 2 + stack:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {m.shape[stack:]}")
    if shape is not None and m.shape[stack:] != shape:
        raise DimensionMismatch(f"{name} shape {m.shape[stack:]} != {shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_hermitian_matrix(a, name: str = "h", tol: float = 1e-8, stack: bool = False,
                        shape: tuple | None = None) -> np.ndarray:
    """The Hermitian part (A + A')/2 of a finite square complex matrix, or of each
    matrix of an (n, k, k) stack with ``stack``, checked in one pass: the shape rules
    of ``as_complex_matrix`` first, then ``NonHermitian`` when some ||A - A'|| exceeds
    ``tol * max(1, ||A||)`` of its own matrix (Frobenius norms), so rounding residue
    of a near-zero matrix passes."""
    m = as_complex_matrix(a, name, stack, shape)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape[stack:]}")
    asym = np.linalg.norm(m - dagger(m), axis=(-2, -1))
    bad = asym[asym > tol * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))]
    if bad.size:
        raise NonHermitian(f"anti-Hermitian part {bad[0]:.3e} exceeds {tol:.0e}*max(1, ||{name}||)")
    return hermitian_part(m)


def as_tolerance(tol, name: str = "tol") -> float:
    """A tolerance as a float: a finite positive real number, not a bool, else ``ValueError``."""
    # written so that NaN fails, and a value that is not a real number before the comparison;
    # a bool is an int, but a flag passed in a tolerance's place
    real = isinstance(tol, (float, int, np.floating, np.integer)) and not isinstance(tol, bool)
    if not (real and 0.0 < tol < np.inf):
        raise ValueError(f"{name} must be a finite positive number, got {tol!r}")
    return float(tol)


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of ``as_hermitian_matrix(h)``, h's Hermitian part."""
    return np.linalg.eigh(as_hermitian_matrix(h))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))**2`` of two states.

    Raises ``NonHermitian`` when ``rho`` or ``sigma`` fails ``as_hermitian_matrix``,
    and ``DimensionMismatch`` when their shapes differ.
    """
    sigma = as_hermitian_matrix(sigma, "sigma")
    rho = as_hermitian_matrix(rho, "state", shape=sigma.shape)
    w, v = np.linalg.eigh(rho)
    r = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)   # sqrt(rho), eigenvalues clipped at 0
    w = np.clip(herm_eig(r @ sigma @ r)[0], 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str = "a") -> np.ndarray:
    """Partial trace of an operator on a ``dim_a * dim_b`` bipartite space."""
    m = as_complex_matrix(m, "operator", shape=(dim_a * dim_b,) * 2)
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "a":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "b":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError("keep must be 'a' or 'b'")
