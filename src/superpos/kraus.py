"""Free Kraus operators, channels, free completion and ancilla reduction.

A Kraus operator K is superposition-free exactly when it maps every pure free
state onto a multiple of a single pure free state, i.e. when the matrix
``M = W' K V`` (free-frame representation) has at most one nonzero entry per
column. ``FreeKrausForm`` stores that sparse data: one coefficient and one
output label per input label, and ``FreeKrausForm.matrix`` is the one
constructor that turns it into an operator, for ``enumerate_transformers``,
``reduce_ancilla``, ``free_qubit_kraus``, ``generate_from_m2``, ``inject_unitary``
and ``random_free_operator``; ``complete_free`` and ``GameSpec`` build theirs directly.
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
from .linalg import _Record, as_complex_matrix, as_tolerance, dagger, hermitian_part
from .states import DensityMatrix, _expansion, _is_free_coeffs, _mixture, free_expansion

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
        """The operator(s) on ``basis``, (..., d, d), each summed term by term in label order;
        ``DimensionMismatch`` unless both fields end in an axis of d, ``ValueError`` for a label not in [0, d)."""
        coeffs, labels, d = np.asarray(self.coeffs), np.asarray(self.index_fn), basis.d
        if coeffs.shape[-1:] != (d,) or labels.shape[-1:] != (d,):
            raise DimensionMismatch(f"coeffs shape {coeffs.shape}, index_fn shape {labels.shape} != (..., {d})")
        bad = labels[(labels < 0) | (labels >= d)] if labels.dtype.kind in "iu" else labels.ravel()
        if bad.size:
            raise ValueError(f"index_fn label {bad[0]} is not an integer in [0, {d})")
        outers = basis.vectors.T[labels][..., None] * dagger(basis.reciprocal)[:, None, :]
        return (coeffs[..., None, None] * outers).sum(axis=-3)


@dataclass(frozen=True, eq=False)
class Channel(_Record):
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
        stack = as_complex_matrix(self.kraus, "Kraus operator", stack=True).copy()   # made read-only below
        if stack.shape[1] != stack.shape[2]:
            raise DimensionMismatch(f"Kraus operators must be square, got shape {stack.shape[1:]}")
        # I - K_1'K_1 - K_2'K_2 - ..., subtracted in operator order, as the bits of defect depend on it
        kk = dagger(stack) @ stack
        kk[0] = np.eye(stack.shape[2]) - kk[0]
        defect = np.subtract.reduce(kk)
        eig = np.linalg.eigh(hermitian_part(defect))
        self._store(kraus=stack, defect=defect, defect_eig=eig)
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
    k = as_complex_matrix(k, "operator", shape=(basis.d, basis.d))
    m = dagger(basis.reciprocal) @ k @ basis.vectors
    live = np.abs(m) > as_tolerance(tol)
    if np.any(live.sum(axis=0) > 1):
        return None
    labels, nonzero = np.arange(basis.d), live.any(axis=0)
    index_fn = np.where(nonzero, live.argmax(axis=0), labels)
    coeffs = np.where(nonzero, m[index_fn, labels], 0)
    return FreeKrausForm(coeffs=coeffs, index_fn=index_fn)


def _sandwich(ch: Channel, m: np.ndarray) -> np.ndarray:
    """Every K m K' of the channel from one batched product: (n, d, d), or (k, n, d, d) for k matrices m."""
    if m.shape[-1] != ch.dim:
        raise DimensionMismatch(f"state dimension {m.shape[-1]} != channel dimension {ch.dim}")
    return ch.kraus @ m[..., None, :, :] @ dagger(ch.kraus)


def _channel_sum(ch: Channel, m: np.ndarray) -> np.ndarray:
    """sum K m K' of a trace-preserving channel, for one matrix or each of a stack."""
    if not ch.is_trace_preserving:
        raise NotTracePreserving(f"defect norm {np.linalg.norm(ch.defect):.3e}")
    return _sandwich(ch, m).sum(axis=-3)


def apply_channel(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a trace-preserving channel: sum K rho K'."""
    return DensityMatrix(_channel_sum(ch, rho.mat))


def measure_selective(ch: Channel, rho: DensityMatrix) -> list[tuple[float, DensityMatrix]]:
    """Selective measurement outcomes (p_n, rho_n); outcomes below 1e-12 dropped. The outcome states are
    taken Hermitian and checked by one run of ``DensityMatrix``'s rule for the stack, not once per state."""
    m = _sandwich(ch, rho.mat)
    p = np.trace(m, axis1=1, axis2=2).real
    total = float(p.sum())
    if total > 1.0 + TP_TOL:
        raise NotSubnormalized(f"outcome probabilities sum to {total:.12g}")
    keep = p >= 1e-12
    return list(zip(p[keep].tolist(), DensityMatrix._stack(m[keep] / p[keep, None, None])))


def complete_free(partial, basis: FreeBasis) -> list[np.ndarray]:
    """Free Kraus operators completing a trace non-increasing set to trace preserving.

    The set is validated as a ``Channel`` (one shape, sum K'K <= 1); its
    defect ``1 - sum K'K`` is eigendecomposed and each eigenvector |n> with
    weight p_n contributes ``sqrt(p_n) |c_1><n|``; eigenvalues below 1e-12
    are dropped.
    """
    channel = Channel(partial)
    if channel.kraus.shape[1:] != (basis.d, basis.d):
        raise DimensionMismatch(f"operator shape {channel.kraus.shape[1:]} != {(basis.d, basis.d)}")
    w, v = channel.defect_eig
    keep = w > 1e-12
    outers = basis.vectors[:, 0, None] * dagger(v[:, keep])[:, None, :]
    return list(np.sqrt(w[keep])[:, None, None] * outers)


def free_channel(operators, basis: FreeBasis) -> Channel:
    """Trace-preserving channel from free Kraus operators plus their free completion."""
    ops = list(operators)
    return Channel(ops + complete_free(ops, basis))


def is_mfo(ch: Channel, basis: FreeBasis, tol: float = FREE_TOL) -> bool:
    """True iff the channel maps every free state to a free state.

    Checking the d pure free states suffices: the free set is their convex hull and the channel
    is linear. Their images, from one product with the projectors |c_i><c_i|, are tested as one
    stack of free expansions; ``NotTracePreserving`` for a trace-decreasing channel.
    """
    images = _channel_sum(ch, _mixture(basis, np.eye(basis.d)[:, None, :]))
    return _is_free_coeffs(_expansion(basis, images), as_tolerance(tol))


def reduce_ancilla(l_op: np.ndarray, sigma_b: DensityMatrix, basis_a: FreeBasis,
                   basis_b: FreeBasis) -> np.ndarray:
    """Free Kraus operators on A reproducing ``tr_B L (rho (x) sigma_B) L'``.

    Requires L free on the product basis and sigma_B free on basis B; the
    returned stack runs over the free labels of sigma_B with nonzero weight
    and, within each, over an orthonormal-basis index of B.
    """
    da, db = basis_a.d, basis_b.d
    form = is_free_kraus(l_op, tensor_basis(basis_a, basis_b))
    if form is None:
        raise NotFree("L is not free on the product basis")
    if not _is_free_coeffs(coeffs := free_expansion(sigma_b, basis_b), FREE_TOL):
        raise NotFree("sigma_B is not free")
    weights = np.clip(np.diag(coeffs).real, 0.0, None)

    labels = np.flatnonzero(weights >= 1e-14)
    k_in = np.arange(da) * db + labels[:, None]
    g, h = np.divmod(form.index_fn[k_in], db)
    # operator (j, x): coefficients sqrt(w_j) c_(k, j) V_B[x, h], index function g[j]
    amp = (np.sqrt(weights[labels])[:, None] * form.coeffs[k_in])[:, None, :] \
        * np.moveaxis(basis_b.vectors[:, h], 0, 1)
    return FreeKrausForm(amp, g[:, None, :]).matrix(basis_a).reshape(-1, da, da)
