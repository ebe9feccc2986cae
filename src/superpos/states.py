"""Pure and mixed states, free-frame expansions, and rank notions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis
from .errors import DimensionMismatch, InvalidState, NonHermitian, NotNormalized
from .linalg import _Record, as_hermitian_matrix, as_tolerance, dagger, hermitian_part

PURE_NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PureState(_Record):
    """State vector in the computational frame: 1-D amplitudes of unit norm, ``amp`` read-only."""

    amp: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amp, dtype=complex)   # a copy, never the caller's array
        if amp.ndim != 1:
            raise DimensionMismatch(f"amplitudes must be 1-dimensional, got shape {amp.shape}")
        norm = math.sqrt(amp.real.dot(amp.real) + amp.imag.dot(amp.imag))   # as in np.linalg.norm
        if not abs(norm - 1.0) <= PURE_NORM_TOL:   # written so that NaN fails
            raise NotNormalized(f"state norm {norm:.12g} != 1")
        self._store(amp=amp)

    @property
    def dim(self) -> int:
        return self.amp.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amp, self.amp.conj()))

    @staticmethod
    def normalized(vec) -> "PureState":
        vec = np.asarray(vec, dtype=complex)   # PureState rejects a shape other than 1-D
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise NotNormalized("cannot normalize the zero vector")
        return PureState(vec / norm)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Record):
    """Hermitian, positive semidefinite, unit-trace operator; ``mat`` is read-only. Its rule,
    ``_density_rule``, runs once per record, and once per stack of records in ``_stack``."""

    mat: np.ndarray

    def __post_init__(self):
        try:
            mat = as_hermitian_matrix(self.mat, "density matrix", tol=HERMITIAN_TOL)
        except NonHermitian:
            raise InvalidState("density matrix is not Hermitian") from None
        self._store(mat=_density_rule(mat))

    @classmethod
    def _stack(cls, mats: np.ndarray) -> list["DensityMatrix"]:
        """A record per matrix of an (n, d, d) stack formed Hermitian up to rounding, each holding its own
        copy of the matrix's Hermitian part, from one run of the rule."""
        return [cls.__new__(cls)._store(mat=mat.copy()) for mat in _density_rule(hermitian_part(mats))]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _density_rule(m: np.ndarray) -> np.ndarray:
    """A Hermitian matrix, or (n, d, d) stack of them, returned once its trace test and one ``eigvalsh``
    pass; the first failing matrix in order raises."""
    mats = m.reshape(-1, *m.shape[-2:])   # one matrix as a stack of one
    for tr, wmin in zip(mats.trace(axis1=1, axis2=2).real.tolist(), np.linalg.eigvalsh(mats)[:, 0].tolist()):
        if not abs(tr - 1.0) <= TRACE_TOL:   # written so that NaN fails
            raise InvalidState(f"trace {tr:.12g} != 1")
        if wmin < -PSD_TOL:
            raise InvalidState(f"negative eigenvalue {wmin:.3e}")
    return m


def free_expansion(rho: DensityMatrix, basis: FreeBasis) -> np.ndarray:
    """Coefficients W' rho W of rho over |c_i><c_j|, W the reciprocal frame, made exactly Hermitian."""
    if rho.dim != basis.d:
        raise DimensionMismatch(f"state dimension {rho.dim} != basis dimension {basis.d}")
    return _expansion(basis, rho.mat)


def _expansion(basis: FreeBasis, m: np.ndarray) -> np.ndarray:
    """``free_expansion``'s W' m W, made exactly Hermitian, of one matrix or of each of a stack, unchecked."""
    return hermitian_part(dagger(basis.reciprocal) @ m @ basis.reciprocal)


def free_support(coeffs: np.ndarray, tol: float = RANK_TOL) -> tuple:
    """Ascending labels of the free-frame coefficients above tol relative to the largest one."""
    mags = np.abs(coeffs).tolist()
    cut = as_tolerance(tol) * (math.nan if math.isnan(sum(mags)) else max(mags))   # as numpy's max
    return tuple([i for i, m in enumerate(mags) if m > cut])


def superposition_rank(psi: PureState, basis: FreeBasis, tol: float = RANK_TOL) -> int:
    """Number of free-frame coefficients above tol relative to the largest one."""
    return len(free_support(basis.to_free_frame(psi.amp), tol))


def is_free(rho: DensityMatrix, basis: FreeBasis, tol: float = RANK_TOL) -> bool:
    """True iff rho is a statistical mixture of the pure free states."""
    tol = as_tolerance(tol)
    return _is_free_coeffs(free_expansion(rho, basis), tol)


def _is_free_coeffs(coeffs: np.ndarray, tol: float = RANK_TOL) -> bool:
    """``is_free`` on a free expansion, or on all of a stack: off-diagonal moduli, negative diagonal within tol."""
    if np.abs(coeffs[..., ~np.eye(coeffs.shape[-1], dtype=bool)]).max(initial=0.0) > tol:
        return False
    return bool(np.diagonal(coeffs, axis1=-2, axis2=-1).real.min() >= -tol)


def free_mixture(basis: FreeBasis, weights) -> DensityMatrix:
    """The free state with the given mixing weights over the pure free states."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (basis.d,):
        raise DimensionMismatch(f"need {basis.d} weights, got shape {weights.shape}")
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= TRACE_TOL):   # so that NaN fails
        raise InvalidState("weights must form a probability distribution")
    return DensityMatrix(_mixture(basis, weights))


def _mixture(basis: FreeBasis, weights: np.ndarray) -> np.ndarray:
    """sum_i weights_i |c_i><c_i|, unchecked: the matrix of ``free_mixture``."""
    return (basis.vectors * weights) @ dagger(basis.vectors)


def schmidt_rank(psi: PureState, dim_a: int, dim_b: int, tol: float = RANK_TOL) -> int:
    """Number of singular values of the dim_a x dim_b reshaping in ``free_support``."""
    if psi.dim != dim_a * dim_b:
        raise DimensionMismatch(f"state dimension {psi.dim} != {dim_a}*{dim_b}")
    return len(free_support(np.linalg.svd(psi.amp.reshape(dim_a, dim_b), compute_uv=False), tol))


def eigen_decomposition(rho: DensityMatrix) -> list[tuple[float, PureState]]:
    """Spectral decomposition as (weight, pure state) pairs, zero weights dropped."""
    w, v = np.linalg.eigh(rho.mat)
    out = []
    for lam, vec in zip(w, v.T):
        if lam > 1e-12:
            out.append((float(lam), PureState.normalized(vec)))
    return out
