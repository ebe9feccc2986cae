"""Pure-state conversion: transformer enumeration and optimal probabilities.

Between equal-rank pure states, the r! free operators that map source to
target exactly and vanish off the source support (one per bijection between
the support sets) are enumerated; the conversion probability is the optimum
of the small LMI "maximize sum p_n s.t. sum p_n F_n'F_n <= 1" over them: the
free optimum at full support r = d, a certified lower bound at r < d.
Support r <= 2 (one or two operators, acting on the r-dimensional span of
the source's reciprocal vectors) is solved in closed form with its dual
certificate; support r >= 3 goes to the primal-dual interior-point
``solve_lmi``, which certifies its optimum with the dual iterate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import FreeBasis, symmetric_basis_d3
from .errors import NoConvergence, RankMismatch, SupportTooLarge
from .kraus import FreeKrausForm, complete_free
from .linalg import as_tolerance
from .sdp import LmiProblem, SdpSolution, solve_lmi
from .states import PureState, free_support

MAX_SUPPORT = 5  # r! operators; 5! = 120 is the desk-scale cap


@dataclass(frozen=True, eq=False)
class TransformerSet:
    """The r! free operators sending the source state to the target exactly and vanishing
    off its support, stacked as one read-only (r!, d, d) array ``operators``."""

    support_source: tuple
    support_target: tuple
    operators: np.ndarray


def enumerate_transformers(psi: PureState, phi: PureState, basis: FreeBasis) -> TransformerSet:
    """Enumerate the r! exact free transformers that vanish off the source support.

    Support sets are ordered ascending and target orderings run in
    lexicographic order, so operator identities are reproducible; one
    ``FreeKrausForm.matrix`` call builds them all.
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
    images = np.array(list(itertools.permutations(support_s)))
    # labels outside the source support get coefficient 0
    coeffs = np.zeros((len(images), basis.d), dtype=complex)
    coeffs[:, rows] = dst[images] / src[rows]
    index_fn = np.tile(np.arange(basis.d), (len(images), 1))
    index_fn[:, rows] = images
    operators = FreeKrausForm(coeffs, index_fn).matrix(basis)
    operators.flags.writeable = False
    return TransformerSet(support_source=support_r, support_target=support_s, operators=operators)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v) -> list:
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _qubit_optimum(a, b) -> tuple[float, list, float]:
    """Primal and dual optimum for two 2 x 2 constraints A_n = a_n 1 + b_n.sigma,
    in Python floats: on 8 numbers numpy's call overhead outweighs the arithmetic.

    Returns the alpha in [0, 1] minimising the convex
    lambda_max(alpha A_1 + (1 - alpha) A_2) = a(alpha) + |b(alpha)|, the
    unit Bloch vector r maximising m = min_n (a_n + b_n.r), whose projector is a
    top eigenvector at alpha (also where that eigenvalue is double), and m. With
    da = a_1 - a_2, db = b_1 - b_2, L = |db|, beta = db.b_2 / L^2 and
    h = |b_2 - beta db|: where |da| >= L the minimum sits at the end 0 if
    da > 0 and 1 if not; else at -beta - da h / (L sqrt(L^2 - da^2)), clipped.
    That stationary point is never squared into a quadratic, which would lose
    half the digits at a double root. r is the best of b_1/|b_1|, b_2/|b_2|
    and, when |da| < L, the point of the circle a_1 + b_1.r = a_2 + b_2.r
    farthest along b_2's part perpendicular to db.
    """
    da, db = a[0] - a[1], [x - y for x, y in zip(*b)]
    ell = math.sqrt(_dot(db, db))
    dirs = [[x / norm for x in bn] for bn in b if (norm := math.sqrt(_dot(bn, bn)))]
    if abs(da) >= ell:
        alpha = 0.0 if da > 0 else 1.0
    else:
        beta = _dot(db, b[1]) / ell**2
        normal = _cross(b[1], db)   # |normal| = h L
        h = math.sqrt(_dot(normal, normal)) / ell
        alpha = min(max(-beta - da * h / (ell * math.sqrt(ell**2 - da**2)), 0.0), 1.0)
        # b_2 - beta db by cross products: orthogonal to db however small h is
        perp = _cross(db, normal)
        if not any(perp):
            perp = _cross(db, np.eye(3)[np.argmin(np.abs(db))])
        s, norm = math.sqrt(1.0 - (da / ell)**2), math.sqrt(_dot(perp, perp))
        dirs.append([-da * x / ell**2 + s * y / norm for x, y in zip(db, perp)])
    dirs = dirs or [[0.0, 0.0, 1.0]]
    pairings = [min(a[0] + _dot(b[0], r), a[1] + _dot(b[1], r)) for r in dirs]
    best = pairings.index(max(pairings))
    return alpha, dirs[best], pairings[best]


def _closed_form(operators: np.ndarray, span: np.ndarray) -> SdpSolution:
    """Optimum and dual of "maximize sum p_n s.t. sum p_n F_n'F_n <= 1" for one
    or two operators that vanish off the column span of ``span`` (d x r).

    With Q from one QR of ``span``, the constraint holds on the r-dimensional
    block Q'F_n'F_nQ alone. For r = 1 that block is a number lam:
    p = 1/lam with dual QQ'/lam. For r = 2 write the blocks as
    a_n 1 + b_n.sigma, b = (Re m01, -Im m01, (m00 - m11)/2): with alpha and
    the projector P from ``_qubit_optimum``, the optimum is
    p = (alpha, 1 - alpha)/lam, lam the top eigenvalue at alpha, and the dual
    is Q P Q' / min_n tr(P Q'F_n'F_nQ); their traces meet at the optimum.
    """
    q, _ = np.linalg.qr(span)
    g = operators @ q
    blocks = g.conj().transpose(0, 2, 1) @ g
    if len(operators) == 1:
        lam = float(blocks[0, 0, 0].real)
        p, proj = np.array([1.0 / lam]), np.eye(1) / lam
    else:
        rows = blocks.tolist()
        a = [(m[0][0].real + m[1][1].real) / 2 for m in rows]
        b = [[m[0][1].real, -m[0][1].imag, (m[0][0].real - m[1][1].real) / 2] for m in rows]
        alpha, r, least = _qubit_optimum(a, b)
        top = [alpha * x + (1.0 - alpha) * y for x, y in zip(*b)]
        lam = alpha * a[0] + (1.0 - alpha) * a[1] + math.sqrt(_dot(top, top))
        p = np.array([alpha, 1.0 - alpha]) / lam
        proj = np.array([[1 + r[2], complex(r[0], -r[1])], [complex(r[0], r[1]), 1 - r[2]]])
        proj = 0.5 * proj / least
    y = q @ proj @ q.conj().T
    primal, dual = float(np.sum(p)), float(np.trace(y).real)
    return SdpSolution(p=p, primal=primal, dual_matrix=y, dual=dual, gap=dual - primal)


def max_conversion_prob(psi: PureState, phi: PureState, basis: FreeBasis,
                        gap_tol: float = 1e-7) -> SdpSolution:
    """Conversion probability over ``enumerate_transformers``: the free optimum
    at full support, a certified lower bound on it at support r < d.

    Support r <= 2 is answered in closed form with its dual, support r >= 3
    by the primal-dual ``solve_lmi`` (up to 120 operators at r = 5); either
    way the certified gap is at most ``gap_tol``
    (``NoConvergence`` otherwise). Returns the solution with
    ``value`` clamped to [0, 1]; when the value reaches 1 within solver
    resolution a free completion of the optimal operators is attached, making
    the deterministic conversion channel explicit.
    """
    gap_tol = as_tolerance(gap_tol, "gap_tol")
    ts = enumerate_transformers(psi, phi, basis)
    if len(ts.support_source) <= 2:
        sol = _closed_form(ts.operators, basis.reciprocal[:, list(ts.support_source)])
        if sol.gap > gap_tol:
            raise NoConvergence(f"duality gap {sol.gap:.3e} above {gap_tol:.1e}")
    else:
        problem = LmiProblem.from_matrices(ts.operators.conj().transpose(0, 2, 1) @ ts.operators)
        sol = solve_lmi(problem, gap_tol=gap_tol)
    value = float(min(max(sol.primal, 0.0), 1.0))
    completion = None
    if value >= 1.0 - 10 * gap_tol:
        scaled = np.sqrt(np.clip(sol.p, 0.0, None))[:, None, None] * ts.operators
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
