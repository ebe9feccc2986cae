"""Faithful conversion of superposition into bipartite entanglement.

The conversion copies free-basis labels onto two local registers
(``|c_i> -> |s_i> (x) |s_i>``) and then applies the same local filter on each
side; the Schmidt rank of the filtered output equals the superposition rank
of the input whenever the free states are linearly independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis, filter_probability, new_free_basis, orthonormal_basis
from .errors import DimensionMismatch
from .linalg import dagger
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
    local = orthonormal_basis(d) if locals_ is None else new_free_basis(locals_)
    if local.d != d:
        raise DimensionMismatch(f"need {d} local vectors of dimension {d}, got {local.vectors.shape}")
    p = filter_probability(local)
    splitter = np.einsum("ai,bi->abi", local.vectors, local.vectors).reshape(d * d, d) \
        @ dagger(basis.reciprocal)
    local_filter = np.sqrt(p) * dagger(local.reciprocal)
    return ConversionMap(splitter=splitter, local_filter=local_filter,
                         probability=p, success_probability=p ** 2)


def verify_faithful(conv: ConversionMap, psi: PureState, basis: FreeBasis) -> bool:
    """True iff the filtered output's Schmidt rank, counting singular values
    above 1e-8, equals the superposition rank."""
    out = conv.convert(psi)
    return schmidt_rank(PureState.normalized(out), basis.d, basis.d, 1e-8) \
        == superposition_rank(psi, basis)
