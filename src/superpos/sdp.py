"""Embedded interior-point solver for the two small LMI shapes the theory needs.

Both shapes run one infeasible-start primal-dual path-following loop: maximize
sign sum p s.t. Z = F0 - sum p_n A_n >= 0, p >= 0, whose dual is minimize tr(F0 Y)
s.t. tr(A_n Y) - s_n = sign, Y >= 0, s >= 0. HKM directions (Helmberg, Rendl,
Vanderbei and Wolkowicz 1996) from one factored Schur matrix per iteration,
combined with Mehrotra's predictor-corrector, keep p strictly feasible while Y
and its surplus s reach their equality constraints. The loop certifies its own
iterates: once the complementarity tr(YZ) + s.p is within gap_tol max(1, sum p),
each of the shape's candidate duals is projected onto the PSD cone and rescaled
into the dual feasible set, the one with the smallest tr(F0 Y) bounds the
optimum, and the first iterate whose bound is within ``gap_tol`` of sum p is
returned with that dual matrix. A solve that cannot certify one raises
``NoConvergence``, and non-Hermitian data raises ``NonHermitian``.

``solve_lmi`` maximizes sum p_n s.t. sum p_n A_n <= 1 (F0 = 1, sign +1; dual:
minimize tr Y s.t. tr(Y A_n) >= 1). ``solve_cover`` minimizes sum x_i s.t.
diag(x) >= C, the robustness cover in the free frame (F0 = -C, A_i = -e_i e_i',
sign -1; dual: maximize tr(C Y) s.t. Y_ii <= 1). Variable counts stay at a
few dozen (120 at support 5) and matrices at 8x8, so no sparsity or scaling
tricks are needed.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadData, NoConvergence
from .linalg import _Record, as_hermitian_matrix, as_tolerance, dagger, hermitian_part, psd_part

DEFAULT_GAP_TOL = 1e-7
COVER_GAP_TOL = 1e-8
_PSD_DATA_TOL = 1e-9
_DUAL_TOL = 1e-9
_MAX_PD_ITER = 50
_STEP = 0.95


@dataclass(frozen=True, eq=False)
class LmiProblem(_Record):
    """Data of "maximize sum p_n s.t. sum p_n A_n <= 1": the PSD matrices A_n, stacked as
    one read-only (n, k, k) array ``operators``, and each one's largest eigenvalue, from
    which ``solve_lmi`` takes its strictly feasible start. One ``as_hermitian_matrix`` pass
    raises ``DimensionMismatch`` unless the A_n are at least one and share one square
    shape; ``BadData`` unless each is PSD and nonzero beyond _PSD_DATA_TOL * max(1, |A_n|)."""

    operators: np.ndarray
    dim: int = field(init=False)
    _lambda_max: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = as_hermitian_matrix(self.operators, "A_n", stack=True)
        w = np.linalg.eigvalsh(ops)
        floor = _PSD_DATA_TOL * np.maximum(1.0, np.linalg.norm(ops, axis=(1, 2)))
        negative = np.flatnonzero(w[:, 0] < -floor)
        if negative.size:
            raise BadData(f"constraint matrix has negative eigenvalue {w[negative[0], 0]:.3e}")
        # a zero operator leaves its p_n unbounded: sum p_n has no maximum
        zero = np.flatnonzero(w[:, -1] <= floor)
        if zero.size:
            raise BadData(f"constraint matrix {zero[0]} is zero (largest eigenvalue {w[zero[0], -1]:.3e})")
        self._store(operators=ops, dim=ops.shape[1], _lambda_max=w[:, -1])

    @staticmethod
    def from_matrices(mats) -> "LmiProblem":
        """``LmiProblem`` of the A_n, a sequence of matrices or an (n, k, k) array."""
        return LmiProblem(mats)


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Primal point p, dual certificate and duality gap of a solve of either shape.

    ``deterministic`` says whether a deterministic free map exists, read without
    building it; ``completion`` is then its free completion, else None, built on
    first read by the ``_complete`` that ``max_conversion_prob`` passes, and kept;
    so a completion's error (``NotSubnormalized`` from ``Channel``, say) is raised by that read.
    """

    p: np.ndarray
    primal: float
    dual_matrix: np.ndarray
    dual: float
    gap: float
    value: float | None = None        # primal clamped to [0, 1] where meaningful
    _complete: Callable[[], tuple] | None = field(default=None, repr=False)

    @cached_property
    def completion(self) -> tuple | None:
        return self._complete() if self.deterministic else None

    @property
    def deterministic(self) -> bool:
        return self._complete is not None


def _purify_dual(y: np.ndarray, ops: np.ndarray, sense: int) -> np.ndarray | None:
    """Project onto the PSD cone and rescale into the dual feasible set.

    The dual constraint is tr(y B_i) <= 1 for sense +1 and tr(y B_i) >= 1 for
    sense -1; None when no positive rescale meets the latter.
    """
    y = psd_part(y)
    # the binding pairing: the largest for sense +1, the smallest for sense -1
    m = sense * float(np.max(sense * np.einsum("ij,nji->n", y, ops).real))
    if sense < 0 and m <= 0:
        return None
    return y / m if sense * m > sense else y


def _step_lengths(linv: np.ndarray, linv_h: np.ndarray, dy, dz, s, ds, p, dp) -> tuple[float, float]:
    """Steps for (Y, s) and for (p, Z): ``_STEP`` of the way to the boundary, at most 1.

    ``linv`` stacks the inverse Cholesky factors of Y and Z, and ``linv_h`` their
    conjugate transposes. With L the factor of Y, Y + a dY >= 0 for every a up to
    -1/lam_min(L^-1 dY L^-H), and the same for Z; the vectors take the usual ratio test.
    """
    w = np.linalg.eigvalsh(linv @ np.array([dy, dz]) @ linv_h)[:, 0]
    rates = (max(-w[0], -float((ds / s).min())), max(-w[1], -float((dp / p).min())))
    return tuple(_STEP / max(rate, _STEP) for rate in rates)


def _path_following(f0: np.ndarray, ops: np.ndarray, sign: float, p: np.ndarray,
                    candidates, gap_tol: float) -> SdpSolution:
    """Maximize sign sum p subject to Z = f0 - sum p_n A_n >= 0, p >= 0, for sign +1 or -1.

    The pair is (p, Z) and (Y >= 0, s >= 0) with tr(A_n Y) - s_n = sign. p
    starts strictly feasible and stays so; Y = 1 and s = 1 start off their
    equality constraints and reach them as the steps near 1. Each iteration
    factors the HKM Schur matrix tr(A_i Y A_j Z^-1) + delta_ij s_i/p_i once
    and takes Mehrotra's predictor and corrector, with centering
    sigma = (mu_aff / mu)^3. Once the complementarity is within
    ``gap_tol`` max(1, sum p), each raw dual of ``candidates(Y)`` goes through
    ``_purify_dual`` against sign A_n; the purified one with
    the smallest tr(f0 Y) gives the dual sign tr(f0 Y) and the gap
    sign (dual - sum p), and the first solution whose gap is within ``gap_tol``
    is returned. ``NoConvergence`` names the smallest certified gap and the
    iterations taken when ``_MAX_PD_ITER`` iterations never get there or a
    factorisation fails.
    """
    n, k = ops.shape[:2]
    flat, rows = ops.reshape(n, k * k), ops.reshape(n * k, k)
    eye = np.eye(k, dtype=complex)
    signed_ops = sign * ops
    y, s, predictor_rhs = eye, np.ones(n), np.full(n, sign)
    best, complementarity, done = np.inf, np.inf, 0
    try:
        for done in range(_MAX_PD_ITER):
            z = f0 - (p @ flat).reshape(k, k)
            linv = np.linalg.inv(np.linalg.cholesky(np.array([y, z])))
            linv_h = dagger(linv)
            zinv = linv_h[1] @ linv[1]
            complementarity = float((y @ z).trace().real) + float(s @ p)
            if complementarity <= gap_tol * max(1.0, primal := float(p.sum())):
                duals = [(float((f0 @ cert).trace().real), cert) for raw in candidates(y)
                         if (cert := _purify_dual(raw, signed_ops, -sign)) is not None]
                if duals:
                    bound, cert = min(duals, key=lambda pair: pair[0])
                    dual = sign * bound
                    if (gap := sign * (dual - primal)) <= gap_tol:
                        return SdpSolution(p=p, primal=primal, dual_matrix=cert, dual=dual, gap=gap)
                    best = min(best, gap)
            mu = complementarity / (k + n)
            # A_n Y and A_n Z^-1 for all n as one product each on the (n k, k) rows of the stack
            az = (rows @ zinv).reshape(n, k, k).transpose(0, 2, 1).reshape(n, -1)
            schur = ((rows @ y).reshape(n, -1) @ az.T).real
            schur.flat[::n + 1] += s / p
            schur_linv = np.linalg.inv(np.linalg.cholesky(schur))
            # HKM steps: the predictor for Y Z -> 0 and s p -> 0, whose right-hand side is sign
            dp = schur_linv.T @ (schur_linv @ predictor_rhs)
            dz = -(dp @ flat).reshape(k, k)
            dy = 0.0 - y - y @ dz @ zinv     # 0 - Y, not -Y: R Z^-1 - Y at R = 0, signed zeros too
            dy, ds = hermitian_part(dy), -s - s * dp / p
            a_primal, a_dual = _step_lengths(linv, linv_h, dy, dz, s, ds, p, dp)
            mu_aff = (float(((y + a_primal * dy) @ (z + a_dual * dz)).trace().real)
                      + float((s + a_primal * ds) @ (p + a_dual * dp))) / (k + n)
            sigma_mu = (mu_aff / mu) ** 3 * mu
            # and the corrector for Y Z -> R = sigma mu - dY dZ and s p -> sigma mu - ds dp
            target, lp = (sigma_mu * eye - dy @ dz) @ zinv, (sigma_mu - ds * dp) / p
            dp = schur_linv.T @ (schur_linv @ (sign - (flat @ target.T.reshape(-1)).real + lp))
            dz = -(dp @ flat).reshape(k, k)
            dy = target - y - y @ dz @ zinv
            dy, ds = hermitian_part(dy), lp - s - s * dp / p
            a_primal, a_dual = _step_lengths(linv, linv_h, dy, dz, s, ds, p, dp)
            y, s = y + a_primal * dy, s + a_primal * ds
            p = p + a_dual * dp
        done, why = _MAX_PD_ITER, "no certified gap"
    except np.linalg.LinAlgError as err:
        why = f"factorisation failed ({err})"
    seen = f"smallest certified gap {best:.3e}" if np.isfinite(best) else "no dual certified"
    raise NoConvergence(f"{why} after {done} iterations: {seen} against gap_tol {gap_tol:.1e}, "
                        f"complementarity {complementarity:.3e}")


def solve_lmi(problem: LmiProblem, gap_tol: float = DEFAULT_GAP_TOL) -> SdpSolution:
    """Maximize sum p_n subject to sum p_n A_n <= 1, p >= 0.

    Path following with F0 = 1 and sign +1, so Y >= 0 and s >= 0 reach
    tr(A_n Y) - s_n = 1; p starts at 0.5 / (sum_n lam_max(A_n) + 1), and the
    iterate Y is the one candidate dual.
    """
    gap_tol = as_tolerance(gap_tol, "gap_tol")
    n = len(problem.operators)
    p = np.full(n, 0.5 / (float(np.sum(problem._lambda_max)) + 1.0))
    return _path_following(np.eye(problem.dim, dtype=complex), problem.operators, 1.0, p,
                           lambda y: (y,), gap_tol)


def verify_dual(lam: np.ndarray, problem: LmiProblem) -> tuple[bool, float]:
    """Check dual feasibility of lam and return (feasible, tr lam).

    Feasible means lam >= -_DUAL_TOL and tr(lam A_n) >= 1 - _DUAL_TOL for
    every n; the trace of any feasible lam upper-bounds the primal optimum.
    A lam that fails ``as_hermitian_matrix`` raises ``NonHermitian``, and one
    of another size than the operators ``DimensionMismatch``.
    """
    lam = as_hermitian_matrix(lam, "lam", shape=problem.operators.shape[1:])
    bound = float(np.trace(lam).real)
    pairings = np.einsum("ij,nji->n", lam, problem.operators).real
    feasible = float(np.linalg.eigvalsh(lam)[0]) >= -_DUAL_TOL and pairings.min() >= 1.0 - _DUAL_TOL
    return bool(feasible), bound


def solve_cover(coeffs: np.ndarray, gap_tol: float = COVER_GAP_TOL) -> SdpSolution:
    """Minimize sum x_i subject to diag(x) >= C, the robustness cover in the free frame.

    The solution's ``p`` holds x; a C = ``coeffs`` that fails ``as_hermitian_matrix``
    raises ``NonHermitian``. Path following over the unit projectors (F0 = -C,
    A_i = -e_i e_i', sign -1) from x = t * 1, t = 2 lam_max(C) (t = 1 if that is
    <= 0). The candidate duals of "maximize tr(C Y) s.t. Y_ii <= 1, Y >= 0" are
    the iterate Y and y y' with y = phase(C phase(v)) for v the top eigenvector
    of Y: the closed-form cover's phase vector (Napoli et al., PRL 116, 150502)
    refined by one fixed-point step; at a rank-one optimum (diag(x) - C) y = 0,
    so phase(C y) = phase(y).
    """
    gap_tol = as_tolerance(gap_tol, "gap_tol")
    coeffs = as_hermitian_matrix(coeffs, "coeffs")
    top = float(np.linalg.eigvalsh(coeffs)[-1])

    def candidates(y):
        v = np.linalg.eigh(y)[1][:, -1]
        phases = np.exp(1j * np.angle(coeffs @ np.exp(1j * np.angle(v))))
        return y, np.outer(phases, phases.conj())

    units = np.eye(len(coeffs), dtype=complex)
    return _path_following(-coeffs, -(units[:, :, None] * units[:, None, :]), -1.0,
                           np.full(len(coeffs), 2.0 * top if top > 0 else 1.0), candidates, gap_tol)
