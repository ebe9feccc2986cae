"""Pure-state conversion: transformer enumeration and optimal probabilities.

Between equal-rank pure states, the r! free operators that map source to
target exactly and vanish off the source support (one per bijection between
the support sets) are enumerated; the conversion probability is the optimum
of the small LMI "maximize sum p_n s.t. sum p_n F_n'F_n <= 1" over them: the
free optimum at full support r = d, a certified lower bound at r < d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .basis import FreeBasis, symmetric_basis_d3
from .errors import RankMismatch, SupportTooLarge
from .kraus import FreeKrausForm, complete_free
from .sdp import LmiProblem, SdpSolution, solve_lmi
from .states import PureState, free_support

MAX_SUPPORT = 5  # r! operators; 5! = 120 is the desk-scale cap


@dataclass(frozen=True)
class TransformerSet:
    """The r! free operators sending `source` to `target` exactly and vanishing off its support."""

    source: PureState
    target: PureState
    support_source: tuple
    support_target: tuple
    operators: tuple


def enumerate_transformers(psi: PureState, phi: PureState, basis: FreeBasis) -> TransformerSet:
    """Enumerate the r! exact free transformers that vanish off the source support.

    Support sets are ordered ascending and target orderings run in
    lexicographic order, so operator identities are reproducible.
    Raises ``RankMismatch`` when the superposition ranks differ.
    """
    src = basis.to_free_frame(psi.amp)
    dst = basis.to_free_frame(phi.amp)
    support_r = free_support(src)
    support_s = free_support(dst)
    if len(support_r) != len(support_s):
        raise RankMismatch(f"superposition ranks differ: {len(support_r)} vs {len(support_s)}")
    if len(support_r) > MAX_SUPPORT:
        raise SupportTooLarge(f"support size {len(support_r)} exceeds {MAX_SUPPORT}")
    rows = list(support_r)
    ops = []
    for image in itertools.permutations(support_s):
        # labels outside the source support get coefficient 0
        coeffs = np.zeros(basis.d, dtype=complex)
        coeffs[rows] = dst[list(image)] / src[rows]
        index_fn = np.arange(basis.d)
        index_fn[rows] = image
        ops.append(FreeKrausForm(coeffs, index_fn).matrix(basis))
    return TransformerSet(source=psi, target=phi, support_source=support_r,
                          support_target=support_s, operators=tuple(ops))


def max_conversion_prob(psi: PureState, phi: PureState, basis: FreeBasis,
                        gap_tol: float = 1e-7) -> SdpSolution:
    """Conversion probability over ``enumerate_transformers``: the free optimum
    at full support, a certified lower bound on it at support r < d.

    Returns the LMI solution with ``value`` clamped to [0, 1]; when the value
    reaches 1 within solver resolution a free completion of the optimal
    operators is attached, making the deterministic conversion channel
    explicit.
    """
    ts = enumerate_transformers(psi, phi, basis)
    problem = LmiProblem.from_matrices([f.conj().T @ f for f in ts.operators])
    sol = solve_lmi(problem, gap_tol=gap_tol)
    value = float(min(max(sol.primal, 0.0), 1.0))
    completion = None
    if value >= 1.0 - 10 * gap_tol:
        scaled = [np.sqrt(max(pn, 0.0)) * f for pn, f in zip(sol.p, ts.operators)]
        completion = tuple(complete_free(scaled, basis))
    return replace(sol, value=value, completion=completion)


def candidate_states_d3() -> list[PureState]:
    """The four d=3 states maximizing the l1 measure on the symmetric basis.

    All have equal coefficient modulus sqrt(2/3) and phase pairs
    (4pi/3, 2pi/3), (2pi/3, 4pi/3), (2pi/3, -2pi/3), (-2pi/3, 2pi/3) on the
    first two free states, with l1 measure 4 and full superposition rank.
    """
    basis = symmetric_basis_d3()
    amplitude = np.sqrt(2.0 / 3.0)
    phase_pairs = [
        (4 * np.pi / 3, 2 * np.pi / 3),
        (2 * np.pi / 3, 4 * np.pi / 3),
        (2 * np.pi / 3, -2 * np.pi / 3),
        (-2 * np.pi / 3, 2 * np.pi / 3),
    ]
    states = []
    for p1, p2 in phase_pairs:
        coeffs = amplitude * np.array([np.exp(1j * p1), np.exp(1j * p2), 1.0])
        states.append(PureState.normalized(basis.vectors @ coeffs))
    return states
