"""Free Kraus operators, channels, free completion and ancilla reduction.

A Kraus operator K is superposition-free exactly when it maps every pure free
state onto a multiple of a single pure free state, i.e. when the matrix
``M = W' K V`` (free-frame representation) has at most one nonzero entry per
column. ``FreeKrausForm`` stores that sparse data: one coefficient and one
output label per input label, and ``FreeKrausForm.matrix`` is the one
constructor that turns it into an operator; every free-operator builder in
the library goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis, tensor_basis
from .errors import (
    DimensionMismatch,
    NotFree,
    NotSubnormalized,
    NotTracePreserving,
)
from .linalg import as_complex_matrix, dagger, herm_eig, hermitian_part
from .states import DensityMatrix, free_expansion, free_mixture, is_free

TP_TOL = 1e-9
FREE_TOL = 1e-9


@dataclass(frozen=True)
class FreeKrausForm:
    """Coefficients c_k and index function f of a free Kraus operator.

    The represented operator is ``sum_k c_k |c_{f(k)}><c_k^perp|``;
    ``matrix`` is the one place that builds it.
    """

    coeffs: np.ndarray    # (d,) complex
    index_fn: np.ndarray  # (d,) int, output label per input label

    def matrix(self, basis: FreeBasis) -> np.ndarray:
        """The operator on ``basis``, summed term by term in label order."""
        v, w = basis.vectors, basis.reciprocal
        outers = v[:, self.index_fn].T[:, :, None] * w.conj().T[:, None, :]
        return (np.asarray(self.coeffs)[:, None, None] * outers).sum(axis=0)


@dataclass(frozen=True)
class Channel:
    """Kraus-operator collection, trace non-increasing by construction."""

    kraus: tuple

    def __post_init__(self):
        ops = tuple(as_complex_matrix(k, "Kraus operator") for k in self.kraus)
        if not ops:
            raise DimensionMismatch("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise DimensionMismatch("Kraus operators must share one shape")
        object.__setattr__(self, "kraus", ops)
        wmin = float(np.linalg.eigvalsh(hermitian_part(self.defect))[0])
        if wmin < -TP_TOL:
            raise NotSubnormalized(f"sum K'K exceeds identity by {-wmin:.3e}")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def defect(self) -> np.ndarray:
        """1 - sum K'K; zero for a trace-preserving channel."""
        d = self.kraus[0].shape[1]
        acc = np.eye(d, dtype=complex)
        for k in self.kraus:
            acc -= dagger(k) @ k
        return acc

    @property
    def is_trace_preserving(self) -> bool:
        return bool(np.linalg.norm(self.defect) <= TP_TOL)


def is_free_kraus(k: np.ndarray, basis: FreeBasis, tol: float = FREE_TOL) -> FreeKrausForm | None:
    """Recognize a free Kraus operator; None when it is not free.

    Column j of ``W' K V`` holds the free-frame coefficients of ``K|c_j>``;
    freeness means each column has at most one entry above tol. Zero columns
    get coefficient 0 with output label j.
    """
    k = as_complex_matrix(k, "k")
    if k.shape != (basis.d, basis.d):
        raise DimensionMismatch(f"operator shape {k.shape} != ({basis.d}, {basis.d})")
    m = dagger(basis.reciprocal) @ k @ basis.vectors
    live = np.abs(m) > tol
    if np.any(live.sum(axis=0) > 1):
        return None
    labels, nonzero = np.arange(basis.d), live.any(axis=0)
    index_fn = np.where(nonzero, live.argmax(axis=0), labels)
    coeffs = np.where(nonzero, m[index_fn, labels], 0)
    return FreeKrausForm(coeffs=coeffs, index_fn=index_fn)


def apply_channel(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a trace-preserving channel: sum K rho K'."""
    if not ch.is_trace_preserving:
        raise NotTracePreserving(f"defect norm {np.linalg.norm(ch.defect):.3e}")
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} != channel dimension {ch.dim}")
    out = np.zeros_like(rho.mat)
    for k in ch.kraus:
        out += k @ rho.mat @ dagger(k)
    return DensityMatrix(out)


def measure_selective(ch: Channel, rho: DensityMatrix) -> list[tuple[float, DensityMatrix]]:
    """Selective measurement outcomes (p_n, rho_n); outcomes below 1e-12 dropped."""
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} != channel dimension {ch.dim}")
    outcomes = []
    total = 0.0
    for k in ch.kraus:
        m = k @ rho.mat @ dagger(k)
        p = float(np.trace(m).real)
        total += p
        if p >= 1e-12:
            outcomes.append((p, DensityMatrix(m / p)))
    if total > 1.0 + TP_TOL:
        raise NotSubnormalized(f"outcome probabilities sum to {total:.12g}")
    return outcomes


def complete_free(partial, basis: FreeBasis) -> list[np.ndarray]:
    """Free Kraus operators completing a trace non-increasing set to trace preserving.

    The residue ``1 - sum K'K`` is eigendecomposed and each eigenvector |n>
    with weight p_n contributes ``sqrt(p_n) |c_1><n|``; eigenvalues below
    1e-12 are dropped.
    """
    ops = [as_complex_matrix(k, "Kraus operator") for k in partial]
    d = basis.d
    residue = np.eye(d, dtype=complex)
    for k in ops:
        if k.shape != (d, d):
            raise DimensionMismatch(f"operator shape {k.shape} != ({d}, {d})")
        residue -= dagger(k) @ k
    w, v = herm_eig(residue)
    if w[0] < -TP_TOL:
        raise NotSubnormalized(f"residue eigenvalue {w[0]:.3e} < 0")
    target = basis.vectors[:, 0]
    completion = []
    for p, vec in zip(w, v.T):
        if p > 1e-12:
            completion.append(np.sqrt(p) * np.outer(target, vec.conj()))
    return completion


def free_channel(operators, basis: FreeBasis) -> Channel:
    """Trace-preserving channel from free Kraus operators plus their free completion."""
    ops = list(operators)
    return Channel(tuple(ops + complete_free(ops, basis)))


def is_mfo(ch: Channel, basis: FreeBasis, tol: float = FREE_TOL) -> bool:
    """True iff the channel maps every free state to a free state.

    Checking the d pure free states suffices: the free set is their convex
    hull and the channel is linear.
    """
    if not ch.is_trace_preserving:
        raise NotTracePreserving(f"defect norm {np.linalg.norm(ch.defect):.3e}")
    for weights in np.eye(basis.d):
        if not is_free(apply_channel(ch, free_mixture(basis, weights)), basis, tol):
            return False
    return True


def reduce_ancilla(l_op: np.ndarray, sigma_b: DensityMatrix, basis_a: FreeBasis,
                   basis_b: FreeBasis) -> list[np.ndarray]:
    """Free Kraus operators on A reproducing ``tr_B L (rho (x) sigma_B) L'``.

    Requires L free on the product basis and sigma_B free on basis B; the
    returned family is indexed by the free label of sigma_B and an
    orthonormal-basis index of B.
    """
    da, db = basis_a.d, basis_b.d
    l_op = as_complex_matrix(l_op, "l_op")
    if l_op.shape != (da * db, da * db):
        raise DimensionMismatch(f"operator shape {l_op.shape} != ({da * db},)*2")
    product = tensor_basis(basis_a, basis_b)
    form = is_free_kraus(l_op, product)
    if form is None:
        raise NotFree("L is not free on the product basis")
    if not is_free(sigma_b, basis_b, FREE_TOL):
        raise NotFree("sigma_B is not free")
    weights = np.clip(np.diag(free_expansion(sigma_b, basis_b)).real, 0.0, None)

    out = []
    for j in range(db):
        if weights[j] < 1e-14:
            continue
        k_in = np.arange(da) * db + j
        g, h = np.divmod(form.index_fn[k_in], db)
        for x in range(db):
            amp = np.sqrt(weights[j]) * form.coeffs[k_in] * basis_b.vectors[x, h]
            out.append(FreeKrausForm(amp, g).matrix(basis_a))
    return out
