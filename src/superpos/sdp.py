"""Embedded interior-point solver for the two small LMI shapes the theory needs.

One log-det barrier optimises sum x_i subject to m0 + sense * sum x_i B_i >= 0,
x >= 0 (PSD data B_i) and certifies each optimum with a feasible dual matrix,
so every reported value comes with a proven bound. Its two shapes are the
public entry points: ``solve_lmi`` maximizes sum p_n s.t. sum p_n A_n <= 1
(dual: minimize tr Y s.t. tr(Y A_n) >= 1), and ``solve_cover`` minimizes
sum x_i s.t. sum x_i B_i >= rho for the robustness measure (dual: maximize
tr(rho Y) s.t. tr(Y B_i) <= 1). Variable counts are at most a few dozen and
matrices at most 8x8, so damped Newton steps need no sparsity or scaling tricks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .errors import BadData, NoConvergence
from .linalg import as_complex_matrix, herm_eig, hermitian_part

DEFAULT_GAP_TOL = 1e-7
_PSD_DATA_TOL = 1e-9
_MAX_NEWTON = 80


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
    def trial(xv):
        if np.any(xv <= 0):
            return None
        try:
            chol = np.linalg.cholesky(m0 + np.tensordot(xv, mats, 1))
        except np.linalg.LinAlgError:
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


def _barrier(ops, m0: np.ndarray, sense: int, x: np.ndarray, static, gap_tol: float,
             max_outer: int, polish: bool = False) -> SdpSolution:
    """Optimise sum x subject to m0 + sense * sum x_i B_i >= 0, x >= 0.

    sense = -1 maximises and sense = +1 minimises; ``x`` is a strictly
    feasible start. After centering at each barrier weight mu the dual is
    certified by the best of the ``static`` candidates (purified once), the
    central-path point mu * S^{-1} and, with ``polish``, the
    complementary-slackness solve of ``_polish_dual``. The solve returns once
    the certified gap is within ``gap_tol``, or the best point when it stays
    within 10 * gap_tol after ``max_outer`` weights.
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
    mu = 1.0
    best: SdpSolution | None = None
    for _ in range(max_outer):
        x, sinv = _center(cost, m0, mats, x, mu)
        primal = float(np.sum(x))
        raws = [mu * sinv]
        if polish:
            raws.append(_polish_dual(ops, x, m0 + np.tensordot(x, mats, 1)))
        for y, dual in fixed + certify(raws):
            gap = sense * (primal - dual)
            if best is None or gap < best.gap:
                best = SdpSolution(p=x.copy(), primal=primal, dual_matrix=y, dual=dual, gap=gap)
        if best is not None and best.gap <= gap_tol:
            return replace(best, p=x.copy(), primal=primal, gap=sense * (primal - best.dual))
        mu *= 0.1
    if best is not None and best.gap <= 10 * gap_tol:
        return best
    raise NoConvergence(f"duality gap {best.gap if best else np.inf:.3e} above {gap_tol:.1e}")


def _purify_dual(y: np.ndarray, ops: np.ndarray, sense: int) -> np.ndarray | None:
    """Project onto the PSD cone and rescale into the dual feasible set.

    The dual constraint is tr(y B_i) <= 1 for sense +1 and tr(y B_i) >= 1 for
    sense -1; None when no positive rescale meets the latter.
    """
    res = herm_eig(hermitian_part(y))
    w = np.clip(res.eigenvalues, 0.0, None)
    y = (res.eigenvectors * w) @ res.eigenvectors.conj().T
    # the binding pairing: the largest for sense +1, the smallest for sense -1
    m = sense * float(np.max(sense * np.einsum("ij,nji->n", y, ops).real))
    if sense < 0 and m <= 0:
        return None
    return y / m if sense * m > sense else y


def solve_lmi(problem: LmiProblem, gap_tol: float = DEFAULT_GAP_TOL,
              max_outer: int = 40, dual_candidates=()) -> SdpSolution:
    """Maximize sum p_n subject to sum p_n A_n <= 1, p >= 0.

    Besides the central path and its polish on the slack's near-null space,
    the dual tries the scaled identity and any caller-supplied matrices; the
    smallest certified trace bounds the optimum and ``gap`` is its distance
    to the primal value.
    """
    ops = problem.operators
    norm_sum = sum(float(np.linalg.norm(a, 2)) for a in ops)
    x = np.full(len(ops), 0.5 / (norm_sum + 1.0))
    eye = np.eye(problem.dim, dtype=complex)
    min_trace = min(float(np.trace(a).real) for a in ops)
    static = [eye / min_trace] if min_trace > 0 else []
    static += [as_complex_matrix(c, "dual candidate") for c in dual_candidates]
    return _barrier(ops, eye, -1, x, static, gap_tol, max_outer, polish=True)


def _hermitian_coords(k: int) -> np.ndarray:
    """Real orthonormal basis of k x k Hermitian matrices, stacked (k^2, k, k)."""
    unit = np.eye(k, dtype=complex)
    out = [np.outer(unit[i], unit[i]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            e_ij, e_ji = np.outer(unit[i], unit[j]), np.outer(unit[j], unit[i])
            out += [(e_ij + e_ji) / np.sqrt(2), 1j * (e_ji - e_ij) / np.sqrt(2)]
    return np.array(out)


def _polish_dual(ops: np.ndarray, x: np.ndarray, slack: np.ndarray) -> np.ndarray | None:
    """Solve the complementary-slackness system for the dual on null(slack).

    Any PSD matrix supported on the null space of the optimal slack whose
    pairings with the active constraints equal one has trace equal to the
    primal optimum, so a least-squares solve there recovers the exact dual
    even when the central-path estimate is noisy.
    """
    w, u = np.linalg.eigh(hermitian_part(slack))
    null_mask = w <= 1e-6 * max(float(w[-1]), 1.0)
    k = int(np.sum(null_mask))
    if k == 0:
        return None
    nbasis = u[:, null_mask]
    active = np.where(x > 1e-7 * max(float(x.max()), 1e-300))[0]
    if active.size == 0:
        return None
    compressed = nbasis.conj().T @ ops[active] @ nbasis
    coords = _hermitian_coords(k)
    rows = np.einsum("cij,bji->bc", coords, compressed).real
    sol, *_ = np.linalg.lstsq(rows, np.ones(active.size), rcond=None)
    xmat = np.tensordot(sol, coords, 1)
    return nbasis @ xmat @ nbasis.conj().T


def verify_dual(lam: np.ndarray, problem: LmiProblem,
                tol: float = 1e-9) -> tuple[bool, float]:
    """Check dual feasibility of lam and return (feasible, tr lam).

    Feasible means lam >= -tol and tr(lam A_n) >= 1 - tol for every n; the
    trace of any feasible lam upper-bounds the primal optimum.
    """
    lam = hermitian_part(as_complex_matrix(lam, "lam"))
    bound = float(np.trace(lam).real)
    if float(np.linalg.eigvalsh(lam)[0]) < -tol:
        return False, bound
    for a in problem.operators:
        if float(np.trace(lam @ a).real) < 1.0 - tol:
            return False, bound
    return True, bound


def solve_cover(rho: np.ndarray, mats, gap_tol: float = 1e-8,
                max_outer: int = 40) -> SdpSolution:
    """Minimize sum x_i subject to sum x_i B_i >= rho, x >= 0 (PSD data B_i).

    The solution's ``p`` holds x. The dual "maximize tr(rho Y) s.t.
    tr(B_i Y) <= 1, Y >= 0" certifies a lower bound on the optimum; besides
    the central path it tries (sum B_i)^{-1}, which is dual optimal when the
    B_i project onto a basis and rho is in their cone (every free state).
    """
    rho = hermitian_part(as_complex_matrix(rho, "rho"))
    ops = [hermitian_part(as_complex_matrix(b, "B_i")) for b in mats]
    total = np.sum(ops, axis=0)
    if float(np.linalg.eigvalsh(total)[0]) <= 0:
        raise BadData("constraint matrices do not span a positive definite sum")
    t = 1.0
    while np.linalg.eigvalsh(t * total - rho)[0] <= 1e-12:
        t *= 2.0
        if t > 1e12:
            raise BadData("could not find a strictly feasible start")
    return _barrier(ops, -rho, 1, np.full(len(ops), t), [np.linalg.inv(total)], gap_tol, max_outer)
