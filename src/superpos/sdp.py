"""Embedded interior-point solvers for the two small LMI shapes the theory needs.

Each shape has one loop, and every returned solution carries a feasible dual
matrix that certifies a duality gap of at most ``gap_tol``; a solve that cannot
certify one raises ``NoConvergence``, and non-Hermitian data raises
``NonHermitian``.

``solve_lmi`` maximizes sum p_n s.t. sum p_n A_n <= 1, p >= 0 (dual: minimize
tr Y s.t. tr(Y A_n) >= 1, Y >= 0) with an infeasible-start primal-dual
path-following loop: HKM directions (Helmberg, Rendl, Vanderbei and Wolkowicz
1996) from one factored Schur matrix per iteration, combined with Mehrotra's
predictor-corrector, keep p strictly feasible while Y and its surplus reach
their equality constraints. ``solve_cover`` minimizes sum x_i s.t.
sum x_i B_i >= rho for the robustness measure (dual: maximize tr(rho Y) s.t.
tr(Y B_i) <= 1) with a log-det barrier: centering halves each Newton step only
until numpy's Cholesky factors the new slack, whose inverse then serves the
next step and weight; the certified gap, not a barrier value, guards every
result. Variable counts stay at a few dozen (120 at support 5) and matrices at
8x8, so no sparsity or scaling tricks are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadData, NoConvergence
from .linalg import as_hermitian_matrix, hermitian_part

DEFAULT_GAP_TOL = 1e-7
_PSD_DATA_TOL = 1e-9
_DUAL_TOL = 1e-9
_MAX_NEWTON = 80
_MAX_OUTER = 40
_MAX_PD_ITER = 50
_STEP = 0.95


@dataclass(frozen=True)
class LmiProblem:
    """Data of "maximize sum p_n s.t. sum p_n A_n <= 1": the PSD matrices A_n.

    ``from_matrices`` builds it and keeps each operator's largest eigenvalue,
    from which ``solve_lmi`` takes its strictly feasible start.
    """

    operators: tuple
    dim: int
    _lambda_max: np.ndarray = field(repr=False, compare=False)

    @staticmethod
    def from_matrices(mats) -> "LmiProblem":
        ops = tuple(hermitian_part(as_hermitian_matrix(m, "A_n")) for m in mats)
        if not ops:
            raise BadData("need at least one constraint matrix")
        dim = ops[0].shape[0]
        if any(m.shape != (dim, dim) for m in ops):
            raise BadData("constraint matrices must share one square shape")
        stacked = np.array(ops)
        w = np.linalg.eigvalsh(stacked)
        floor = _PSD_DATA_TOL * np.maximum(1.0, np.linalg.norm(stacked, axis=(1, 2)))
        negative = np.flatnonzero(w[:, 0] < -floor)
        if negative.size:
            raise BadData(f"constraint matrix has negative eigenvalue {w[negative[0], 0]:.3e}")
        # a zero operator leaves its p_n unbounded: sum p_n has no maximum
        zero = np.flatnonzero(w[:, -1] <= floor)
        if zero.size:
            raise BadData(f"constraint matrix {zero[0]} is zero (largest eigenvalue {w[zero[0], -1]:.3e})")
        return LmiProblem(operators=ops, dim=dim, _lambda_max=w[:, -1])


@dataclass(frozen=True)
class SdpSolution:
    """Primal point p, dual certificate and duality gap of a solve of either shape."""

    p: np.ndarray
    primal: float
    dual_matrix: np.ndarray
    dual: float
    gap: float
    value: float | None = None        # primal clamped to [0, 1] where meaningful
    completion: tuple | None = None   # free completion when a deterministic map exists


def _inverse_slack(m0: np.ndarray, mats: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """(m0 + sum x_i mats_i)^-1 = L^-H L^-1 from a Cholesky factor L; None off the domain."""
    if (x <= 0).any():
        return None
    try:
        chol = np.linalg.cholesky(m0 + (x @ mats.reshape(len(x), -1)).reshape(m0.shape))
    except np.linalg.LinAlgError:   # not positive definite
        return None
    linv = np.linalg.inv(chol)
    return linv.conj().T @ linv


def _center(cost: np.ndarray, m0: np.ndarray, mats: np.ndarray, x: np.ndarray,
            mu: float, minv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton for min cost.x - mu*(logdet(m0 + sum x mats) + sum log x).

    ``mats`` is (n, k, k) and ``minv`` the inverse slack at the strictly feasible
    ``x``. Steps take the largest t in 1, 1/2, ... (above 1e-13) that stays in
    the domain; returns the centered point and the inverse slack there.
    """
    for _ in range(_MAX_NEWTON):
        prods = minv @ mats
        grad = cost - mu * np.einsum("nii->n", prods).real - mu / x
        hess = mu * np.einsum("aij,bji->ab", prods, prods).real + np.diag(mu / x**2)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        if float(-grad @ step) <= 1e-12:
            break
        t = 1.0
        while (trial := _inverse_slack(m0, mats, x + t * step)) is None:
            t *= 0.5
            if t <= 1e-13:
                return x, minv
        x, minv = x + t * step, trial
    return x, minv


def _barrier(ops, rho: np.ndarray, x: np.ndarray, static, gap_tol: float) -> SdpSolution:
    """Minimise sum x subject to sum x_i B_i >= rho, x >= 0 (the cover shape).

    ``x`` is a strictly feasible start. After centering at each barrier weight
    mu the dual is certified by the best of that weight's candidates: the
    ``static`` ones (purified once), the central-path point mu * S^{-1} and the
    complementary-slackness solve of ``_polish_dual``. The solve returns that
    weight's point and dual as soon as the certified gap is within ``gap_tol``
    and raises ``NoConvergence`` when ``_MAX_OUTER`` weights never reach it.
    """
    mats = np.array(ops)
    m0 = -rho
    cost = np.ones(len(mats))

    def certify(raws) -> list:
        return [(y, float(np.trace(y @ rho).real))
                for y in (_purify_dual(raw, mats, 1) for raw in raws if raw is not None)]

    fixed = certify(static)
    mu, gap, sinv = 1.0, np.inf, _inverse_slack(m0, mats, x)
    for _ in range(_MAX_OUTER):
        x, sinv = _center(cost, m0, mats, x, mu, sinv)
        primal = float(np.sum(x))
        polished = _polish_dual(mats, x, m0 + (x @ mats.reshape(len(x), -1)).reshape(m0.shape))
        candidates = fixed + certify([mu * sinv, polished])
        y, dual = min(candidates, key=lambda cand: primal - cand[1])
        gap = primal - dual
        if gap <= gap_tol:
            return SdpSolution(p=x, primal=primal, dual_matrix=y, dual=dual, gap=gap)
        mu *= 0.1
    raise NoConvergence(f"duality gap {gap:.3e} above {gap_tol:.1e}")


def _purify_dual(y: np.ndarray, ops: np.ndarray, sense: int) -> np.ndarray | None:
    """Project onto the PSD cone and rescale into the dual feasible set.

    The dual constraint is tr(y B_i) <= 1 for sense +1 and tr(y B_i) >= 1 for
    sense -1; None when no positive rescale meets the latter.
    """
    w, v = np.linalg.eigh(hermitian_part(y))
    y = (v * np.clip(w, 0.0, None)) @ v.conj().T
    # the binding pairing: the largest for sense +1, the smallest for sense -1
    m = sense * float(np.max(sense * np.einsum("ij,nji->n", y, ops).real))
    if sense < 0 and m <= 0:
        return None
    return y / m if sense * m > sense else y


def _step_lengths(yz_linv: np.ndarray, dy, dz, s, ds, p, dp) -> tuple[float, float]:
    """Steps for (Y, s) and for (p, Z): ``_STEP`` of the way to the boundary, at most 1.

    ``yz_linv`` stacks the inverse Cholesky factors of Y and Z. With L the factor
    of Y, Y + a dY >= 0 for every a up to -1/lam_min(L^-1 dY L^-H), and the
    same for Z; the vectors take the usual ratio test.
    """
    w = np.linalg.eigvalsh(yz_linv @ np.array([dy, dz]) @ yz_linv.conj().transpose(0, 2, 1))[:, 0]
    rates = (max(-w[0], float(np.max(-ds / s))), max(-w[1], float(np.max(-dp / p))))
    return tuple(_STEP / max(rate, _STEP) for rate in rates)


def solve_lmi(problem: LmiProblem, gap_tol: float = DEFAULT_GAP_TOL) -> SdpSolution:
    """Maximize sum p_n subject to sum p_n A_n <= 1, p >= 0.

    Primal-dual path following on the pair (p, Z = 1 - sum p_n A_n) and
    (Y >= 0, s >= 0) with tr(A_n Y) - s_n = 1. p starts strictly feasible at
    0.5 / (sum_n lam_max(A_n) + 1) and stays so; Y = 1 and s = 1 start off
    their equality constraints and reach them as the steps near 1. Each
    iteration factors the HKM Schur matrix tr(A_i Y A_j Z^-1) + delta_ij s_i/p_i
    once and takes Mehrotra's predictor and corrector, with centering
    sigma = (mu_aff / mu)^3. Once the complementarity tr(YZ) + s.p is within
    ``gap_tol``, Y is rescaled onto the dual feasible set; the solve returns
    when its trace is within ``gap_tol`` of sum p, and raises
    ``NoConvergence`` when ``_MAX_PD_ITER`` iterations never get there or a
    factorisation fails.
    """
    ops = np.array(problem.operators)
    n, k = ops.shape[:2]
    flat = ops.reshape(n, k * k)
    eye = np.eye(k, dtype=complex)
    p = np.full(n, 0.5 / (float(np.sum(problem._lambda_max)) + 1.0))
    y, s = eye, np.ones(n)
    gap = np.inf
    try:
        for _ in range(_MAX_PD_ITER):
            z = eye - (p @ flat).reshape(k, k)
            yz_linv = np.linalg.inv(np.linalg.cholesky(np.array([y, z])))
            zinv = yz_linv[1].conj().T @ yz_linv[1]
            complementarity = float(np.trace(y @ z).real) + float(s @ p)
            if complementarity <= gap_tol:
                cert = _purify_dual(y, ops, -1)
                if cert is not None:
                    primal, dual = float(np.sum(p)), float(np.trace(cert).real)
                    gap = dual - primal
                    if gap <= gap_tol:
                        return SdpSolution(p=p, primal=primal, dual_matrix=cert, dual=dual, gap=gap)
            mu = complementarity / (k + n)
            ay, az = ops @ y, ops @ zinv
            schur = (ay.reshape(n, -1) @ az.transpose(0, 2, 1).reshape(n, -1).T).real
            schur_linv = np.linalg.inv(np.linalg.cholesky(schur + np.diag(s / p)))

            def direction(target: np.ndarray, lp_target: np.ndarray):
                """HKM step for Y Z -> R and s * p -> lp_target, given target = R Z^-1."""
                rhs = 1.0 - (flat @ target.T.reshape(-1)).real + lp_target / p
                dp = schur_linv.T @ (schur_linv @ rhs)
                dz = -(dp @ flat).reshape(k, k)
                dy = hermitian_part(target - y - y @ dz @ zinv)
                return dp, dz, dy, lp_target / p - s - s * dp / p

            dp, dz, dy, ds = direction(np.zeros((k, k)), np.zeros(n))
            a_primal, a_dual = _step_lengths(yz_linv, dy, dz, s, ds, p, dp)
            mu_aff = (float(np.trace((y + a_primal * dy) @ (z + a_dual * dz)).real)
                      + float((s + a_primal * ds) @ (p + a_dual * dp))) / (k + n)
            sigma_mu = (mu_aff / mu) ** 3 * mu
            dp, dz, dy, ds = direction((sigma_mu * eye - dy @ dz) @ zinv, sigma_mu - ds * dp)
            a_primal, a_dual = _step_lengths(yz_linv, dy, dz, s, ds, p, dp)
            y, s = y + a_primal * dy, s + a_primal * ds
            p = p + a_dual * dp
    except np.linalg.LinAlgError as err:
        raise NoConvergence(f"factorisation failed: {err}") from None
    raise NoConvergence(f"duality gap {gap:.3e} above {gap_tol:.1e}")


def _polish_dual(ops: np.ndarray, x: np.ndarray, slack: np.ndarray) -> np.ndarray | None:
    """Solve the cover's complementary-slackness system for the dual on null(slack).

    Any PSD Y supported on the null space of the optimal slack
    sum x_i B_i - rho whose pairings with the active constraints equal one has
    tr(rho Y) equal to the primal optimum, so a least-squares solve there
    recovers the exact dual even when the central-path estimate is noisy. For Hermitian X and C_a,
    tr(X C_a) = [Re vec X, Im vec X] . [Re vec C_a, Im vec C_a], and the
    min-norm solution lies in the span of these rows, so X is Hermitian.
    """
    w, u = np.linalg.eigh(hermitian_part(slack))
    null_mask = w <= 1e-6 * max(float(w[-1]), 1.0)
    k = int(np.sum(null_mask))
    if k == 0:
        return None
    nbasis = u[:, null_mask]
    active = np.where(x > 1e-7 * float(x.max()))[0]   # x > 0, so never empty
    compressed = (nbasis.conj().T @ ops[active] @ nbasis).reshape(active.size, k * k)
    rows = np.concatenate([compressed.real, compressed.imag], axis=1)
    sol, *_ = np.linalg.lstsq(rows, np.ones(active.size), rcond=None)
    return nbasis @ (sol[:k * k] + 1j * sol[k * k:]).reshape(k, k) @ nbasis.conj().T


def verify_dual(lam: np.ndarray, problem: LmiProblem) -> tuple[bool, float]:
    """Check dual feasibility of lam and return (feasible, tr lam).

    Feasible means lam >= -_DUAL_TOL and tr(lam A_n) >= 1 - _DUAL_TOL for
    every n; the trace of any feasible lam upper-bounds the primal optimum.
    A lam that fails ``as_hermitian_matrix`` raises ``NonHermitian``.
    """
    lam = hermitian_part(as_hermitian_matrix(lam, "lam"))
    bound = float(np.trace(lam).real)
    if float(np.linalg.eigvalsh(lam)[0]) < -_DUAL_TOL:
        return False, bound
    for a in problem.operators:
        if float(np.trace(lam @ a).real) < 1.0 - _DUAL_TOL:
            return False, bound
    return True, bound


def solve_cover(rho: np.ndarray, mats, gap_tol: float = 1e-8) -> SdpSolution:
    """Minimize sum x_i subject to sum x_i B_i >= rho, x >= 0 (PSD data B_i).

    The solution's ``p`` holds x. The dual "maximize tr(rho Y) s.t.
    tr(B_i Y) <= 1, Y >= 0" certifies a lower bound within ``gap_tol`` of the
    optimum (``NoConvergence`` otherwise). A Cholesky factor L of sum B_i gives
    the start t * 1, strictly feasible at t = 2 lam_max(L^-1 rho L^-H) (t = 1
    if that is <= 0), and the dual candidate (sum B_i)^{-1} = L^-H L^-1, optimal
    when the B_i project onto a basis and rho is in their cone (free states).
    """
    rho = hermitian_part(as_hermitian_matrix(rho, "rho"))
    ops = [hermitian_part(as_hermitian_matrix(b, "B_i")) for b in mats]
    try:
        linv = np.linalg.inv(np.linalg.cholesky(np.sum(ops, axis=0)))
    except np.linalg.LinAlgError:
        raise BadData("constraint matrices do not span a positive definite sum") from None
    top = float(np.linalg.eigvalsh(linv @ rho @ linv.conj().T)[-1])
    x = np.full(len(ops), 2.0 * top if top > 0 else 1.0)
    return _barrier(ops, rho, x, [linv.conj().T @ linv], gap_tol)
