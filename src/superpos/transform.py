"""Pure-state conversion: transformer enumeration and optimal probabilities.

Two pure states of equal superposition rank r admit exactly r! free operators
mapping source to target exactly (one per bijection between the support
sets); the best conversion probability is the optimum of the small LMI
"maximize sum p_n s.t. sum p_n F_n'F_n <= 1" over those operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .basis import FreeBasis, symmetric_basis_d3
from .errors import RankMismatch, SupportTooLarge
from .kraus import FreeKrausForm, complete_free
from .sdp import LmiProblem, SdpSolution, solve_lmi
from .states import PureState, pure_free_coefficients

MAX_SUPPORT = 5  # r! operators; 5! = 120 is the desk-scale cap


@dataclass(frozen=True)
class TransformerSet:
    """All r! free operators sending `source` to `target` exactly."""

    source: PureState
    target: PureState
    support_source: tuple
    support_target: tuple
    operators: tuple


def _support(coeffs: np.ndarray, tol: float) -> tuple:
    mags = np.abs(coeffs)
    return tuple(int(i) for i in np.where(mags > tol * mags.max())[0])


def enumerate_transformers(psi: PureState, phi: PureState, basis: FreeBasis,
                           tol: float = 1e-9) -> TransformerSet:
    """Enumerate the r! exact free transformers between equal-rank pure states.

    Support sets are ordered ascending and target orderings run in
    lexicographic order, so operator identities are reproducible.
    Raises ``RankMismatch`` when the superposition ranks differ.
    """
    src = pure_free_coefficients(psi, basis)
    dst = pure_free_coefficients(phi, basis)
    support_r = _support(src, tol)
    support_s = _support(dst, tol)
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
    """Optimal free conversion probability between equal-rank pure states.

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


def qubit_tp_residuals(type1, type2, type3, type4, overlap: float):
    """Trace-preservation residuals of a grouped qubit free-Kraus coefficient set.

    Each group is a sequence of coefficient pairs, one per operator of that
    type. Returns (r1, r2, r3): the two real power defects and the complex
    cross defect; all three vanish exactly when a trace-preserving free
    channel with these coefficients exists.
    """
    a1 = np.asarray([p for p, _ in type1], dtype=complex)
    b1 = np.asarray([q for _, q in type1], dtype=complex)
    g2 = np.asarray([p for p, _ in type2], dtype=complex)
    d2 = np.asarray([q for _, q in type2], dtype=complex)
    m3 = np.asarray([p for p, _ in type3], dtype=complex)
    n3 = np.asarray([q for _, q in type3], dtype=complex)
    e4 = np.asarray([p for p, _ in type4], dtype=complex)
    x4 = np.asarray([q for _, q in type4], dtype=complex)
    r1 = float(np.sum(np.abs(a1) ** 2) + np.sum(np.abs(g2) ** 2)
               + np.sum(np.abs(m3) ** 2) + np.sum(np.abs(e4) ** 2) - 1.0)
    r2 = float(np.sum(np.abs(b1) ** 2) + np.sum(np.abs(d2) ** 2)
               + np.sum(np.abs(n3) ** 2) + np.sum(np.abs(x4) ** 2) - 1.0)
    r3 = complex(np.sum(a1.conj() * b1) + np.sum(m3.conj() * n3)
                 + overlap * (np.sum(g2.conj() * d2) + np.sum(e4.conj() * x4) - 1.0))
    return r1, r2, r3


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
