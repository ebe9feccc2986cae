"""Free bases: normalized, linearly independent (generally non-orthogonal) sets.

A ``FreeBasis`` is built from the column matrix ``vectors`` of the pure free
states, which it checks, and derives their Gram matrix and the reciprocal frame
``reciprocal`` whose columns are the unique vectors biorthogonal to the free
states (``dagger(reciprocal) @ vectors == identity``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, LinearlyDependent, NotNormalized
from .linalg import _Record, as_complex_matrix, dagger

INDEPENDENCE_THRESHOLD = 1e-8
UNIT_NORM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FreeBasis(_Record):
    """The d pure free states, the columns of ``vectors``, kept at unit norm in the basis's
    own array, and the Gram matrix, reciprocal frame and sigma_min derived from them; all
    read-only. ``NotNormalized``, ``DimensionMismatch`` or ``LinearlyDependent`` (checked
    in that order) unless the columns are a normalized independent set of d >= 2 in C^d."""

    vectors: np.ndarray                          # (d, d), column i is the i-th free state
    gram: np.ndarray = field(init=False)         # vectors' @ vectors
    reciprocal: np.ndarray = field(init=False)   # (vectors')^{-1}, column i biorthogonal to column j
    sigma_min: float = field(init=False)         # smallest singular value of `vectors`
    d: int = field(init=False)
    _reciprocal_dagger: np.ndarray = field(init=False, repr=False)   # W'

    def __post_init__(self):
        v = as_complex_matrix(self.vectors, "basis columns")
        norms = np.linalg.norm(v, axis=0)
        bad = np.where(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
        if bad.size:
            raise NotNormalized(f"column {bad[0]} has norm {norms[bad[0]]:.12g}")
        # stored at unit norm for the tighter checks downstream; dividing by 1.0 keeps a column's bits
        v = v / np.where(np.abs(norms - 1.0) > 1e-12, norms, 1.0)
        smin = _sigma_min(v)
        reciprocal = np.linalg.inv(dagger(v))
        self._store(vectors=v, gram=dagger(v) @ v, reciprocal=reciprocal, sigma_min=smin,
                    d=v.shape[0], _reciprocal_dagger=dagger(reciprocal))

    def state(self, i: int) -> np.ndarray:
        """The i-th pure free state (computational-frame amplitudes)."""
        return self.vectors[:, i].copy()

    def to_free_frame(self, amp: np.ndarray) -> np.ndarray:
        """Coefficients of `amp` in the free basis: reciprocal' @ amp."""
        amp = np.asarray(amp, dtype=complex)
        if amp.shape != (self.d,):
            raise DimensionMismatch(f"amplitude shape {amp.shape} != ({self.d},)")
        return self._reciprocal_dagger @ amp


def _sigma_min(v: np.ndarray) -> float:
    """Smallest singular value of d >= 2 columns in C^d (``DimensionMismatch`` for another
    shape), above ``INDEPENDENCE_THRESHOLD`` (``LinearlyDependent`` otherwise)."""
    d, n = v.shape
    if n != d or d < 2:
        raise DimensionMismatch(f"need d >= 2 columns of dimension d, got {n} columns in C^{d}")
    smin = float(np.linalg.svd(v, compute_uv=False)[-1])
    if smin <= INDEPENDENCE_THRESHOLD:
        raise LinearlyDependent(f"smallest singular value {smin:.3e} <= {INDEPENDENCE_THRESHOLD:.0e}")
    return smin


def new_free_basis(columns) -> FreeBasis:
    """``FreeBasis`` of a sequence of column vectors."""
    return FreeBasis(np.column_stack([np.asarray(c, dtype=complex) for c in columns]))


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
    return FreeBasis(np.kron(basis_a.vectors, basis_b.vectors))


def orthonormal_basis(d: int) -> FreeBasis:
    """The computational basis (the coherence-theory limit)."""
    return FreeBasis(np.eye(d, dtype=complex))


def symmetric_basis_d3() -> FreeBasis:
    """The d=3 basis of pairwise overlap 1/2: columns (0,1,1), (1,0,1), (1,1,0) over sqrt(2)."""
    return FreeBasis(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex) / np.sqrt(2))
