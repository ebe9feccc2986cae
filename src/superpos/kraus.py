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

from dataclasses import dataclass, field

import numpy as np

from .basis import FreeBasis, tensor_basis
from .errors import (
    DimensionMismatch,
    NotFree,
    NotSubnormalized,
    NotTracePreserving,
)
from .linalg import as_complex_matrix, as_tolerance, dagger, hermitian_part
from .states import DensityMatrix, free_expansion, free_mixture, is_free

TP_TOL = 1e-9
FREE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FreeKrausForm:
    """Coefficients c_k and index function f of a free Kraus operator.

    The represented operator is ``sum_k c_k |c_{f(k)}><c_k^perp|``;
    ``matrix`` is the one place that builds it, and builds a stack in one
    call from leading axes of ``coeffs`` and ``index_fn``.
    """

    coeffs: np.ndarray    # (..., d) complex
    index_fn: np.ndarray  # (..., d) int, output label per input label

    def matrix(self, basis: FreeBasis) -> np.ndarray:
        """The operator(s) on ``basis``, (..., d, d), each summed term by term in label order."""
        v, w = basis.vectors, basis.reciprocal
        outers = v.T[self.index_fn][..., None] * w.conj().T[:, None, :]
        return (np.asarray(self.coeffs)[..., None, None] * outers).sum(axis=-3)


@dataclass(frozen=True, eq=False)
class Channel:
    """Kraus-operator collection, trace non-increasing by construction.

    The operators, square matrices of one shape given as a sequence or as an
    (n, d, d) array, are checked and kept as one complex stack, the channel's
    own copy; ``defect`` = 1 - sum K'K is formed from one batched product, in
    operator order, and ``defect_eig`` is ``eigh`` of its Hermitian part; all
    three are read-only.
    """

    kraus: np.ndarray
    defect: np.ndarray = field(init=False, repr=False)
    defect_eig: tuple = field(init=False, repr=False)

    def __post_init__(self):
        try:
            ops = np.array(self.kraus, dtype=complex)   # a copy, since the stack is made read-only
        except ValueError as exc:   # numpy's reason is kept as the cause
            shapes = {np.array(k, dtype=object).shape for k in self.kraus}
            if len(shapes) == 1 and len(shapes.pop()) == 2:   # not ragged: an entry is not a number
                raise
            raise DimensionMismatch("Kraus operators must share one shape") from exc
        if len(ops) == 0:
            raise DimensionMismatch("channel needs at least one Kraus operator")
        stack = as_complex_matrix(ops, "Kraus operator", stack=True)
        if stack.shape[1] != stack.shape[2]:
            raise DimensionMismatch(f"Kraus operators must be square, got shape {stack.shape[1:]}")
        terms = np.empty((len(stack) + 1, stack.shape[2], stack.shape[2]), dtype=complex)
        terms[0] = np.eye(stack.shape[2])
        np.matmul(stack.conj().transpose(0, 2, 1), stack, out=terms[1:])
        defect = np.subtract.reduce(terms)   # I - K_1'K_1 - K_2'K_2 - ..., in operator order
        eig = np.linalg.eigh(hermitian_part(defect))
        for array in (stack, defect, *eig):
            array.flags.writeable = False
        object.__setattr__(self, "kraus", stack)
        object.__setattr__(self, "defect", defect)
        object.__setattr__(self, "defect_eig", eig)
        wmin = float(eig[0][0])
        if wmin < -TP_TOL:
            raise NotSubnormalized(f"sum K'K exceeds identity by {-wmin:.3e}")

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

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
    live = np.abs(m) > as_tolerance(tol)
    if np.any(live.sum(axis=0) > 1):
        return None
    labels, nonzero = np.arange(basis.d), live.any(axis=0)
    index_fn = np.where(nonzero, live.argmax(axis=0), labels)
    coeffs = np.where(nonzero, m[index_fn, labels], 0)
    return FreeKrausForm(coeffs=coeffs, index_fn=index_fn)


def _sandwich(ch: Channel, rho: DensityMatrix) -> np.ndarray:
    """Every K rho K' of the channel, (n, d, d), from one batched product."""
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} != channel dimension {ch.dim}")
    return ch.kraus @ rho.mat @ ch.kraus.conj().transpose(0, 2, 1)


def apply_channel(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a trace-preserving channel: sum K rho K'."""
    if not ch.is_trace_preserving:
        raise NotTracePreserving(f"defect norm {np.linalg.norm(ch.defect):.3e}")
    return DensityMatrix(_sandwich(ch, rho).sum(axis=0))


def measure_selective(ch: Channel, rho: DensityMatrix) -> list[tuple[float, DensityMatrix]]:
    """Selective measurement outcomes (p_n, rho_n); outcomes below 1e-12 dropped."""
    m = _sandwich(ch, rho)
    p = np.trace(m, axis1=1, axis2=2).real
    total = float(p.sum())
    if total > 1.0 + TP_TOL:
        raise NotSubnormalized(f"outcome probabilities sum to {total:.12g}")
    keep = p >= 1e-12
    return [(float(pn), DensityMatrix(mn)) for pn, mn in zip(p[keep], m[keep] / p[keep, None, None])]


def complete_free(partial, basis: FreeBasis) -> list[np.ndarray]:
    """Free Kraus operators completing a trace non-increasing set to trace preserving.

    The set is validated as a ``Channel`` (one shape, sum K'K <= 1); its
    defect ``1 - sum K'K`` is eigendecomposed and each eigenvector |n> with
    weight p_n contributes ``sqrt(p_n) |c_1><n|``; eigenvalues below 1e-12
    are dropped.
    """
    channel = Channel(partial)
    d = basis.d
    if channel.kraus.shape[1:] != (d, d):
        raise DimensionMismatch(f"operator shape {channel.kraus.shape[1:]} != ({d}, {d})")
    w, v = channel.defect_eig
    keep = w > 1e-12
    outers = basis.vectors[:, 0, None] * v[:, keep].conj().T[:, None, :]
    return list(np.sqrt(w[keep])[:, None, None] * outers)


def free_channel(operators, basis: FreeBasis) -> Channel:
    """Trace-preserving channel from free Kraus operators plus their free completion."""
    ops = list(operators)
    return Channel(ops + complete_free(ops, basis))


def is_mfo(ch: Channel, basis: FreeBasis, tol: float = FREE_TOL) -> bool:
    """True iff the channel maps every free state to a free state.

    Checking the d pure free states suffices: the free set is their convex
    hull and the channel is linear; ``apply_channel`` raises
    ``NotTracePreserving`` for a trace-decreasing channel.
    """
    for weights in np.eye(basis.d):
        if not is_free(apply_channel(ch, free_mixture(basis, weights)), basis, tol):
            return False
    return True


def reduce_ancilla(l_op: np.ndarray, sigma_b: DensityMatrix, basis_a: FreeBasis,
                   basis_b: FreeBasis) -> np.ndarray:
    """Free Kraus operators on A reproducing ``tr_B L (rho (x) sigma_B) L'``.

    Requires L free on the product basis and sigma_B free on basis B; the
    returned stack runs over the free labels of sigma_B with nonzero weight
    and, within each, over an orthonormal-basis index of B.
    """
    da, db = basis_a.d, basis_b.d
    l_op = as_complex_matrix(l_op, "l_op")
    if l_op.shape != (da * db, da * db):
        raise DimensionMismatch(f"operator shape {l_op.shape} != {(da * db,) * 2}")
    product = tensor_basis(basis_a, basis_b)
    form = is_free_kraus(l_op, product)
    if form is None:
        raise NotFree("L is not free on the product basis")
    if not is_free(sigma_b, basis_b, FREE_TOL):
        raise NotFree("sigma_B is not free")
    weights = np.clip(np.diag(free_expansion(sigma_b, basis_b)).real, 0.0, None)

    labels = np.flatnonzero(weights >= 1e-14)
    k_in = np.arange(da) * db + labels[:, None]
    g, h = np.divmod(form.index_fn[k_in], db)
    # operator (j, x): coefficients sqrt(w_j) c_(k, j) V_B[x, h], index function g[j]
    amp = (np.sqrt(weights[labels])[:, None] * form.coeffs[k_in])[:, None, :] \
        * np.moveaxis(basis_b.vectors[:, h], 0, 1)
    return FreeKrausForm(amp, g[:, None, :]).matrix(basis_a).reshape(-1, da, da)
