"""Embedded interior-point solver for the two small LMI shapes the theory needs.

One log-det barrier optimises sum x_i subject to m0 + sense * sum x_i B_i >= 0,
x >= 0 (PSD data B_i) and certifies each optimum with a feasible dual matrix:
every returned solution has a certified duality gap of at most ``gap_tol``,
and a solve that cannot certify one raises ``NoConvergence``. Its two shapes
are the public entry points: ``solve_lmi`` maximizes sum p_n s.t. sum p_n A_n <= 1
(dual: minimize tr Y s.t. tr(Y A_n) >= 1), and ``solve_cover`` minimizes
sum x_i s.t. sum x_i B_i >= rho for the robustness measure (dual: maximize
tr(rho Y) s.t. tr(Y B_i) <= 1). Variable counts are at most a few dozen and
matrices at most 8x8, so damped Newton steps need no sparsity or scaling tricks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import BadData, NoConvergence
from .linalg import as_complex_matrix, as_hermitian_matrix, hermitian_part

DEFAULT_GAP_TOL = 1e-7
_PSD_DATA_TOL = 1e-9
_DUAL_TOL = 1e-9
_MAX_NEWTON = 80
_MAX_OUTER = 40


@dataclass(frozen=True)
class LmiProblem:
    """Data of "maximize sum p_n s.t. sum p_n A_n <= 1": the PSD matrices A_n."""

    operators: tuple
    dim: int

    @staticmethod
    def from_matrices(mats) -> "LmiProblem":
        ops = tuple(hermitian_part(as_complex_matrix(m, "A_n")) for m in mats)
        if not ops:
            raise BadData("need at least one constraint matrix")
        dim = ops[0].shape[0]
        for m in ops:
            if m.shape != (dim, dim):
                raise BadData("constraint matrices must share one square shape")
            wmin = float(np.linalg.eigvalsh(m)[0])
            if wmin < -_PSD_DATA_TOL * max(1.0, float(np.linalg.norm(m))):
                raise BadData(f"constraint matrix has negative eigenvalue {wmin:.3e}")
        return LmiProblem(operators=ops, dim=dim)


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


def _center(cost: np.ndarray, m0: np.ndarray, mats: np.ndarray, x: np.ndarray,
            mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton for min cost.x - mu*(logdet(m0 + sum x mats) + sum log x).

    One Cholesky factor L per trial slack gives its domain test, its log det and
    the inverse slack L^-H L^-1. ``mats`` is (n, k, k) and ``x`` strictly
    feasible; returns the centered point and the inverse slack there.
    """
    k = m0.shape[0]
    flat = mats.reshape(len(mats), k * k)

    def trial(xv):
        if (xv <= 0).any():
            return None
        chol, info = lapack.zpotrf(m0 + (xv @ flat).reshape(k, k), lower=1)
        if info:   # not positive definite: outside the domain
            return None
        linv, _ = lapack.ztrtri(chol, lower=1)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol).real)))
        return float(cost @ xv) - mu * (logdet + float(np.sum(np.log(xv)))), linv.conj().T @ linv

    f0, minv = trial(x)
    for _ in range(_MAX_NEWTON):
        prods = minv @ mats
        grad = cost - mu * np.einsum("nii->n", prods).real - mu / x
        hess = mu * np.einsum("aij,bji->ab", prods, prods).real + np.diag(mu / x**2)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        decrement = float(-grad @ step)
        if decrement <= 1e-12:
            break
        t = 1.0
        while t > 1e-13:
            accepted = trial(x + t * step)
            if accepted is not None and accepted[0] <= f0 - 0.1 * t * decrement:
                x, (f0, minv) = x + t * step, accepted
                break
            t *= 0.5
        else:
            break
    return x, minv


def _barrier(ops, m0: np.ndarray, sense: int, x: np.ndarray, static, gap_tol: float) -> SdpSolution:
    """Optimise sum x subject to m0 + sense * sum x_i B_i >= 0, x >= 0.

    sense = -1 maximises and sense = +1 minimises; ``x`` is a strictly
    feasible start. After centering at each barrier weight mu the dual is
    certified by the best of that weight's candidates: the ``static`` ones
    (purified once), the central-path point mu * S^{-1} and the
    complementary-slackness solve of ``_polish_dual``. The solve returns that
    weight's point and dual as soon as the certified gap is within ``gap_tol``
    and raises ``NoConvergence`` when ``_MAX_OUTER`` weights never reach it.
    """
    ops = np.array(ops)
    mats = sense * ops
    cost = sense * np.ones(len(ops))

    def certify(raws) -> list:
        out = []
        for raw in raws:
            y = None if raw is None else _purify_dual(raw, ops, sense)
            if y is not None:
                out.append((y, -sense * float(np.trace(y @ m0).real)))
        return out

    fixed = certify(static)
    mu, gap = 1.0, np.inf
    for _ in range(_MAX_OUTER):
        x, sinv = _center(cost, m0, mats, x, mu)
        primal = float(np.sum(x))
        polished = _polish_dual(ops, x, m0 + np.tensordot(x, mats, 1))
        candidates = fixed + certify([mu * sinv, polished])
        if candidates:
            y, dual = min(candidates, key=lambda cand: sense * (primal - cand[1]))
            gap = sense * (primal - dual)
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


def solve_lmi(problem: LmiProblem, gap_tol: float = DEFAULT_GAP_TOL) -> SdpSolution:
    """Maximize sum p_n subject to sum p_n A_n <= 1, p >= 0.

    The dual comes from the central path and its polish on the slack's
    near-null space; the smallest certified trace bounds the optimum and
    ``gap``, its distance to the primal value, is at most ``gap_tol``
    (``NoConvergence`` otherwise).
    """
    ops = problem.operators
    norm_sum = sum(float(np.linalg.norm(a, 2)) for a in ops)
    x = np.full(len(ops), 0.5 / (norm_sum + 1.0))
    return _barrier(ops, np.eye(problem.dim, dtype=complex), -1, x, [], gap_tol)


def _polish_dual(ops: np.ndarray, x: np.ndarray, slack: np.ndarray) -> np.ndarray | None:
    """Solve the complementary-slackness system for the dual on null(slack).

    Any PSD matrix supported on the null space of the optimal slack whose
    pairings with the active constraints equal one has trace equal to the
    primal optimum, so a least-squares solve there recovers the exact dual
    even when the central-path estimate is noisy. For Hermitian X and C_a,
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
    rho = hermitian_part(as_complex_matrix(rho, "rho"))
    ops = [hermitian_part(as_complex_matrix(b, "B_i")) for b in mats]
    chol, info = lapack.zpotrf(np.sum(ops, axis=0), lower=1)
    if info:
        raise BadData("constraint matrices do not span a positive definite sum")
    linv = lapack.ztrtri(chol, lower=1)[0]
    top = float(np.linalg.eigvalsh(linv @ rho @ linv.conj().T)[-1])
    x = np.full(len(ops), 2.0 * top if top > 0 else 1.0)
    return _barrier(ops, -rho, 1, x, [linv.conj().T @ linv], gap_tol)
