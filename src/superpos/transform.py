"""Pure-state conversion: transformer enumeration and optimal probabilities.

Between equal-rank pure states, the r! free operators that map source to
target exactly and vanish off the source support (one per bijection between
the support sets) are enumerated; the conversion probability is the optimum
of the small LMI "maximize sum p_n s.t. sum p_n F_n'F_n <= 1" over them: the
free optimum at full support r = d, a certified lower bound at r < d.
Support 2 (two operators on the span of the source's reciprocal vectors) is solved in
closed form on 2 x 2 blocks read off the Gram matrix; every other support by ``solve_lmi``,
whose dual is rank one where the optimum's top eigenvalue is simple, reached by Newton
steps on lam_max over the weights (support 1 at the first step), and the primal-dual
loop's iterate elsewhere. Either rank-one dual reports primal 1/max(lam, m) and dual 1/m,
m its least pairing (the rule of ``sdp._rank_one_descent``): no gap is negative.
A deterministic pair's free completion is built on first read of the
solution's ``completion``, so a caller that keeps only the value never pays for it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis, symmetric_basis_d3
from .errors import NoConvergence, RankMismatch, SupportTooLarge
from .kraus import FreeKrausForm, complete_free
from .linalg import _Record, as_tolerance, dagger
from .sdp import DEFAULT_GAP_TOL, LmiProblem, SdpSolution, solve_lmi
from .states import PureState, free_support

MAX_SUPPORT = 5  # r! operators; 5! = 120 is the desk-scale cap


@dataclass(frozen=True, eq=False)
class TransformerSet(_Record):
    """The r! free operators sending the source state to the target exactly and vanishing
    off its support, stacked as one read-only (r!, d, d) array ``operators``, the set's own copy."""

    support_source: tuple
    support_target: tuple
    operators: np.ndarray

    def __post_init__(self):
        self._store(operators=np.array(self.operators, dtype=complex))


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
    return TransformerSet(support_r, support_s, FreeKrausForm(coeffs, index_fn).matrix(basis))


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


def _gram_blocks(basis: FreeBasis, src, dst, support_r, support_s) -> tuple[list, np.ndarray]:
    """The two transformers' 2 x 2 blocks B_sigma = R H[sigma, sigma] R' (K'K = Q B Q') in Python
    floats, H = diag(conj phi_T) G_TT diag(phi_T) from the Gram matrix G, and W_S diag(1/conj
    psi_S) = Q R by Gram-Schmidt run twice (Q orthonormal to rounding on near-dependent
    columns). Returns the blocks, in ``enumerate_transformers``' order, and the d rows of Q."""
    psi, phi, gram = src.tolist(), dst.tolist(), basis.gram.tolist()
    x = [[z / psi[k].conjugate() for z in basis.reciprocal[:, k].tolist()] for k in support_r]
    h = [[phi[i].conjugate() * gram[i][j] * phi[j] for j in support_s] for i in support_s]
    r00 = math.hypot(*map(abs, x[0]))
    q = [[z / r00 for z in x[0]]]
    rest, r01 = x[1], 0.0
    for _ in range(2):
        c = sum(u.conjugate() * z for u, z in zip(q[0], rest))
        rest, r01 = [z - c * u for u, z in zip(q[0], rest)], r01 + c
    r11 = math.hypot(*map(abs, rest))
    q.append([z / r11 for z in rest])
    blocks = []
    # H[sigma, sigma] for the target support in order, then swapped
    for m00, m01, m11 in ((h[0][0], h[0][1], h[1][1]), (h[1][1], h[1][0], h[0][0])):
        b00 = r00 * r00 * m00 + 2 * r00 * (m01 * r01.conjugate()).real + abs(r01)**2 * m11
        b01 = (r00 * m01 + r01 * m11) * r11
        blocks.append([[b00, b01], [b01.conjugate(), r11 * r11 * m11]])
    return blocks, list(zip(*q))


def _closed_form(blocks: list, q: list) -> SdpSolution:
    """Optimum and dual of "maximize sum p_n s.t. sum p_n B_n <= 1" for two 2 x 2 blocks
    B_n (nested lists) on the span of the orthonormal Q (d rows), in Python floats.

    Write the blocks as a_n 1 + b_n.sigma, b = (Re m01, -Im m01, (m00 - m11)/2):
    with alpha, the projector P and m = min_n tr(P B_n) from ``_qubit_optimum``, the rule of
    ``sdp._rank_one_descent`` gives top = max(lam, m) (lam the top eigenvalue at alpha),
    p = (alpha, 1 - alpha)/top, primal 1/top, the dual Q P Q' / m and dual 1/m: gap >= 0."""
    a = [(m[0][0].real + m[1][1].real) / 2 for m in blocks]
    b = [[m[0][1].real, -m[0][1].imag, (m[0][0].real - m[1][1].real) / 2] for m in blocks]
    alpha, r, least = _qubit_optimum(a, b)
    bloch = [alpha * x + (1.0 - alpha) * y for x, y in zip(*b)]
    top = max(alpha * a[0] + (1.0 - alpha) * a[1] + math.sqrt(_dot(bloch, bloch)), least)
    p, s = [alpha / top, (1.0 - alpha) / top], 0.5 / least   # P = s (1 + r.sigma)
    p00, p01, p11 = (1 + r[2]) * s, complex(r[0], -r[1]) * s, (1 - r[2]) * s
    qp = [(u * p00 + v * p01.conjugate(), u * p01 + v * p11) for u, v in q]
    qh = [(u.conjugate(), v.conjugate()) for u, v in q]
    y = [[t0 * u + t1 * v for u, v in qh] for t0, t1 in qp]
    return SdpSolution(np.array(p), 1.0 / top, np.array(y), 1.0 / least, 1.0 / least - 1.0 / top)


def _completion(psi: PureState, phi: PureState, basis: FreeBasis, p: np.ndarray) -> tuple:
    """The free completion of the optimal operators sqrt(p_n) F_n over ``enumerate_transformers``."""
    ops = enumerate_transformers(psi, phi, basis).operators
    return tuple(complete_free(np.sqrt(np.clip(p, 0.0, None))[:, None, None] * ops, basis))


def max_conversion_prob(psi: PureState, phi: PureState, basis: FreeBasis,
                        gap_tol: float = DEFAULT_GAP_TOL) -> SdpSolution:
    """Conversion probability over ``enumerate_transformers``: the free optimum
    at full support, a certified lower bound on it at support r < d.

    Support 2 is answered in closed form on blocks read off the Gram matrix,
    every other support by ``solve_lmi``: its rank-one descent (which certifies
    support 1 at its first step) and then its primal-dual loop (up to 120
    operators at r = 5); either way the certified gap is at most ``gap_tol``
    (``NoConvergence`` otherwise). Returns the solution with ``value`` clamped
    to [0, 1]. A value of at least 1 - ``gap_tol``, as every deterministic
    pair's certified value is, gets a free completion of the optimal operators
    (enumerated again for it): the deterministic conversion channel made
    explicit. It is built on first read of ``completion``, which raises any error
    of the completion; other pairs read None. ``deterministic`` tells them apart.
    """
    gap_tol = as_tolerance(gap_tol, "gap_tol")
    src, dst = basis.to_free_frame(psi.amp), basis.to_free_frame(phi.amp)
    support_r, support_s = free_support(src), free_support(dst)
    if len(support_r) == len(support_s) == 2:
        sol = _closed_form(*_gram_blocks(basis, src, dst, support_r, support_s))
        if sol.gap > gap_tol:
            raise NoConvergence(f"duality gap {sol.gap:.3e} above {gap_tol:.1e}")
    else:   # enumerate_transformers raises RankMismatch and SupportTooLarge
        ops = enumerate_transformers(psi, phi, basis).operators
        sol = solve_lmi(LmiProblem.from_matrices(dagger(ops) @ ops), gap_tol)
    value = float(min(max(sol.primal, 0.0), 1.0))
    complete = functools.partial(_completion, psi, phi, basis, sol.p.copy()) if value >= 1.0 - gap_tol else None
    return SdpSolution(sol.p, sol.primal, sol.dual_matrix, sol.dual, sol.gap, value, complete)


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
