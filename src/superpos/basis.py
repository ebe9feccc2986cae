"""Free bases: normalized, linearly independent (generally non-orthogonal) sets.

A ``FreeBasis`` holds the column matrix ``vectors`` of the pure free states,
their Gram matrix, and the reciprocal frame ``reciprocal`` whose columns are
the unique vectors biorthogonal to the free states
(``reciprocal.conj().T @ vectors == identity``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, LinearlyDependent, NotNormalized
from .linalg import as_complex_matrix, dagger

INDEPENDENCE_THRESHOLD = 1e-8
UNIT_NORM_TOL = 1e-8


@dataclass(frozen=True)
class FreeBasis:
    """The d pure free states, their Gram matrix, and the reciprocal frame."""

    vectors: np.ndarray      # (d, d), column i is the i-th free state
    gram: np.ndarray         # vectors' @ vectors
    reciprocal: np.ndarray   # (vectors')^{-1}, column i biorthogonal to column j
    sigma_min: float         # smallest singular value of `vectors`
    d: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "d", self.vectors.shape[0])

    def state(self, i: int) -> np.ndarray:
        """The i-th pure free state (computational-frame amplitudes)."""
        return self.vectors[:, i].copy()

    def to_free_frame(self, amp: np.ndarray) -> np.ndarray:
        """Coefficients of `amp` in the free basis: reciprocal' @ amp."""
        amp = np.asarray(amp, dtype=complex)
        if amp.shape != (self.d,):
            raise DimensionMismatch(f"amplitude shape {amp.shape} != ({self.d},)")
        return dagger(self.reciprocal) @ amp


def new_free_basis(columns) -> FreeBasis:
    """Build and validate a free basis from a sequence of column vectors.

    Raises ``NotNormalized``, ``LinearlyDependent`` or ``DimensionMismatch``
    when the columns do not form a normalized linearly independent set of
    d >= 2 vectors in dimension d.
    """
    v = as_complex_matrix(np.column_stack([np.asarray(c, dtype=complex) for c in columns]),
                          "basis columns")
    d, n = v.shape
    if n != d or d < 2:
        raise DimensionMismatch(f"need d >= 2 columns of dimension d, got {n} columns in C^{d}")
    norms = np.linalg.norm(v, axis=0)
    bad = np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
    if bad.size:
        raise NotNormalized(f"column {bad[0]} has norm {norms[bad[0]]:.12g}")
    smin = float(np.linalg.svd(v, compute_uv=False)[-1])
    if smin <= INDEPENDENCE_THRESHOLD:
        raise LinearlyDependent(f"smallest singular value {smin:.3e} <= {INDEPENDENCE_THRESHOLD:.0e}")
    gram = dagger(v) @ v
    reciprocal = np.linalg.inv(dagger(v))
    return FreeBasis(vectors=v, gram=gram, reciprocal=reciprocal, sigma_min=smin)


def gram(basis: FreeBasis) -> np.ndarray:
    """Gram matrix of the free states; entry (i, j) is their overlap."""
    return basis.gram.copy()


def filter_probability(basis: FreeBasis) -> float:
    """Largest p with p * (V^{-1})' V^{-1} <= identity, i.e. sigma_min(V)^2.

    This is the success probability of the uniform filter that maps the free
    states onto an orthonormal set.
    """
    return basis.sigma_min ** 2


def tensor_basis(basis_a: FreeBasis, basis_b: FreeBasis) -> FreeBasis:
    """Product basis whose states are the pairwise tensor products.

    Column ordering is row-major in (i, j): index k = i * d_b + j.
    """
    v = np.kron(basis_a.vectors, basis_b.vectors)
    return new_free_basis([v[:, k] for k in range(v.shape[1])])


def orthonormal_basis(d: int) -> FreeBasis:
    """The computational basis (the coherence-theory limit)."""
    return new_free_basis(list(np.eye(d, dtype=complex).T))


def symmetric_basis_d3() -> FreeBasis:
    """The d=3 basis of pairwise overlap 1/2: columns (0,1,1), (1,0,1), (1,1,0) over sqrt(2)."""
    cols = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex).T / np.sqrt(2)
    return new_free_basis([cols[:, i] for i in range(3)])
