"""Pure and mixed states, free-frame expansions, and rank notions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis
from .errors import DimensionMismatch, InvalidState, NotNormalized
from .linalg import as_complex_matrix, dagger, herm_eig

PURE_NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
RANK_TOL = 1e-9


@dataclass(frozen=True)
class PureState:
    """State vector in the computational frame; unit norm enforced."""

    amp: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= PURE_NORM_TOL:   # written so that NaN fails
            raise NotNormalized(f"state norm {norm:.12g} != 1")
        object.__setattr__(self, "amp", amp)

    @property
    def dim(self) -> int:
        return self.amp.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amp, self.amp.conj()))

    @staticmethod
    def normalized(vec) -> "PureState":
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise NotNormalized("cannot normalize the zero vector")
        return PureState(vec / norm)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace operator."""

    mat: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.mat, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        scale = max(1.0, float(np.linalg.norm(m)))
        if np.linalg.norm(m - m.conj().T) > HERMITIAN_TOL * scale:
            raise InvalidState("density matrix is not Hermitian")
        m = 0.5 * (m + m.conj().T)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidState(f"trace {tr:.12g} != 1")
        wmin = float(np.linalg.eigvalsh(m)[0])
        if wmin < -PSD_TOL:
            raise InvalidState(f"negative eigenvalue {wmin:.3e}")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def free_expansion(rho: DensityMatrix, basis: FreeBasis) -> np.ndarray:
    """Coefficients W' rho W of rho over |c_i><c_j|, W the reciprocal frame."""
    if rho.dim != basis.d:
        raise DimensionMismatch(f"state dimension {rho.dim} != basis dimension {basis.d}")
    w = basis.reciprocal
    return dagger(w) @ rho.mat @ w


def superposition_rank(psi: PureState, basis: FreeBasis, tol: float = RANK_TOL) -> int:
    """Number of free-frame coefficients above tol relative to the largest one."""
    coeffs = np.abs(basis.to_free_frame(psi.amp))
    return int(np.sum(coeffs > tol * coeffs.max()))


def is_free(rho: DensityMatrix, basis: FreeBasis, tol: float = RANK_TOL) -> bool:
    """True iff rho is a statistical mixture of the pure free states."""
    coeffs = free_expansion(rho, basis)
    off = coeffs - np.diag(np.diag(coeffs))
    if np.abs(off).max(initial=0.0) > tol:
        return False
    return bool(np.min(np.diag(coeffs).real) >= -tol)


def free_mixture(basis: FreeBasis, weights) -> DensityMatrix:
    """The free state with the given mixing weights over the pure free states."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (basis.d,):
        raise DimensionMismatch(f"need {basis.d} weights, got shape {weights.shape}")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > TRACE_TOL:
        raise InvalidState("weights must form a probability distribution")
    v = basis.vectors
    return DensityMatrix((v * weights) @ dagger(v))


def schmidt_rank(psi: PureState, dim_a: int, dim_b: int, tol: float = RANK_TOL) -> int:
    """Number of singular values of the dim_a x dim_b reshaping exceeding tol."""
    if psi.dim != dim_a * dim_b:
        raise DimensionMismatch(f"state dimension {psi.dim} != {dim_a}*{dim_b}")
    s = np.linalg.svd(psi.amp.reshape(dim_a, dim_b), compute_uv=False)
    return int(np.sum(s > tol))


def eigen_decomposition(rho: DensityMatrix) -> list[tuple[float, PureState]]:
    """Spectral decomposition as (weight, pure state) pairs, zero weights dropped."""
    w, v = herm_eig(rho.mat)
    out = []
    for lam, vec in zip(w, v.T):
        if lam > 1e-12:
            out.append((float(lam), PureState.normalized(vec)))
    return out
