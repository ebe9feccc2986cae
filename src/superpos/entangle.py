"""Faithful conversion of superposition into bipartite entanglement.

The conversion copies free-basis labels onto two local registers
(``|c_i> -> |s_i> (x) |s_i>``) and then applies the same local filter on each
side; the Schmidt rank of the filtered output equals the superposition rank
of the input whenever the free states are linearly independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis
from .errors import DimensionMismatch, LinearlyDependent
from .linalg import dagger, min_singular_value
from .states import PureState, schmidt_rank, superposition_rank


@dataclass(frozen=True)
class ConversionMap:
    """Label-copying isometry plus the local filter that orthogonalizes it."""

    splitter: np.ndarray       # (d*d, d): |c_i> -> |s_i> (x) |s_i>
    local_filter: np.ndarray   # sqrt(p) V_s^{-1}, applied on each side
    probability: float         # per-side filter success probability p
    success_probability: float # both sides: p**2

    def convert(self, psi: PureState) -> np.ndarray:
        """Unnormalized filtered output of the full conversion."""
        return np.kron(self.local_filter, self.local_filter) @ (self.splitter @ psi.amp)


def faithful_conversion(basis: FreeBasis, locals_=None) -> ConversionMap:
    """Build the conversion map for the given local states (default orthonormal).

    The splitter extends ``|c_i> -> |s_i> (x) |s_i>`` linearly; the filter is
    ``sqrt(p) V_s^{-1}`` with p = sigma_min(V_s)^2, the largest success
    probability of a trace non-increasing local inversion.
    """
    d = basis.d
    if locals_ is None:
        v_s = np.eye(d, dtype=complex)
    else:
        v_s = np.column_stack([np.asarray(c, dtype=complex) for c in locals_])
        if v_s.shape != (d, d):
            raise DimensionMismatch(f"need {d} local vectors of dimension {d}, got {v_s.shape}")
    smin = min_singular_value(v_s)
    if smin <= 1e-8:
        raise LinearlyDependent(f"local states: smallest singular value {smin:.3e}")
    p = smin ** 2
    splitter = np.einsum("ai,bi->abi", v_s, v_s).reshape(d * d, d) @ dagger(basis.reciprocal)
    local_filter = np.sqrt(p) * np.linalg.inv(v_s)
    return ConversionMap(splitter=splitter, local_filter=local_filter,
                         probability=p, success_probability=p ** 2)


def verify_faithful(conv: ConversionMap, psi: PureState, basis: FreeBasis,
                    tol: float = 1e-8) -> bool:
    """True iff the filtered output's Schmidt rank equals the superposition rank."""
    out = conv.convert(psi)
    return schmidt_rank(PureState.normalized(out), basis.d, basis.d, tol) \
        == superposition_rank(psi, basis)


def filter_validity_defect(conv: ConversionMap) -> float:
    """Largest eigenvalue of filter'filter minus 1; <= 0 means trace non-increasing."""
    f = conv.local_filter
    return float(np.max(np.linalg.eigvalsh(dagger(f) @ f)) - 1.0)
