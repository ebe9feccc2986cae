"""Faithful conversion of superposition into bipartite entanglement.

The conversion copies free-basis labels onto two local registers
(``|c_i> -> |s_i> (x) |s_i>``) and then applies the same local filter on each
side; the Schmidt rank of the filtered output equals the superposition rank
of the input whenever the free states are linearly independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import FreeBasis, filter_probability, new_free_basis, orthonormal_basis
from .errors import DimensionMismatch
from .linalg import _Record, dagger
from .states import PureState, schmidt_rank, superposition_rank


@dataclass(frozen=True, eq=False)
class ConversionMap(_Record):
    """Label-copying isometry plus the local filter that orthogonalizes it, derived from the
    basis and the d local states and read-only (``faithful_conversion`` is its call form):
    the splitter extends ``|c_i> -> |s_i> (x) |s_i>`` linearly, the filter is ``sqrt(p) V_s^{-1}``
    with p = sigma_min(V_s)^2, the largest success probability of a trace non-increasing local
    inversion. ``DimensionMismatch`` unless ``local`` has the basis's dimension d."""

    basis: FreeBasis
    local: FreeBasis                               # the local states |s_i>
    splitter: np.ndarray = field(init=False)       # (d*d, d): |c_i> -> |s_i> (x) |s_i>
    local_filter: np.ndarray = field(init=False)   # sqrt(p) V_s^{-1}, applied on each side
    probability: float = field(init=False)         # per-side filter success probability p

    def __post_init__(self):
        d, local = self.basis.d, self.local
        if local.d != d:
            raise DimensionMismatch(f"need {d} local vectors of dimension {d}, got {local.vectors.shape}")
        p = filter_probability(local)
        splitter = np.einsum("ai,bi->abi", local.vectors, local.vectors).reshape(d * d, d) \
            @ dagger(self.basis.reciprocal)
        self._store(splitter=splitter, local_filter=np.sqrt(p) * dagger(local.reciprocal), probability=p)

    @property
    def success_probability(self) -> float:
        """Both sides: p**2."""
        return self.probability ** 2

    def convert(self, psi: PureState) -> np.ndarray:
        """Unnormalized filtered output of the full conversion."""
        if psi.dim != (d := self.basis.d):
            raise DimensionMismatch(f"state dimension {psi.dim} != conversion dimension {d}")
        return np.kron(self.local_filter, self.local_filter) @ (self.splitter @ psi.amp)


def faithful_conversion(basis: FreeBasis, locals_=None) -> ConversionMap:
    """``ConversionMap`` of the basis and the given local states (default orthonormal)."""
    return ConversionMap(basis, orthonormal_basis(basis.d) if locals_ is None else new_free_basis(locals_))


def verify_faithful(conv: ConversionMap, psi: PureState) -> bool:
    """True iff the filtered output's Schmidt rank equals the superposition rank in the
    conversion's basis, both counted by ``free_support`` at its default tolerance."""
    d = conv.basis.d
    return schmidt_rank(PureState.normalized(conv.convert(psi)), d, d) == superposition_rank(psi, conv.basis)
