"""Superposition quantifiers: l1, relative entropy, rank, and robustness.

All entropic quantities use the natural logarithm; every report carries the
convention so downstream output is unambiguous. The relative entropy is
minimised by multiplicative updates and projected-Newton steps on the free
face, and certified by its Frank-Wolfe gap. Robustness is certified by one
phase bracket, whose start is the closed form, then the interior-point cover
of ``sdp``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, ClassVar

import numpy as np

from .basis import FreeBasis
from .errors import NoConvergence
from .linalg import as_tolerance, dagger, psd_part
from .sdp import COVER_GAP_TOL, SdpSolution, solve_cover
from .states import (
    DensityMatrix,
    PureState,
    _is_free_coeffs,
    _mixture,
    eigen_decomposition,
    free_expansion,
    free_mixture,
    is_free,
    superposition_rank,
)

LOG_CONVENTION = "nat"
REL_ENT_TOL = 1e-9
_MAX_FW_ITER = 10_000
_MAX_PHASE_STEPS = 200
_FACE_WEIGHT = 1e-3
_NEWTON_CUT = 1e-3


@dataclass(frozen=True, eq=False)
class MeasureReport:
    """A nonnegative measure value plus an optional certificate payload, built on first
    read by the ``_certify`` the measure passes and kept: a build error is raised by that read."""

    value: float
    convention: ClassVar[str] = LOG_CONVENTION
    upper_bound: bool = False
    extra: dict = field(default_factory=dict)
    _certify: Callable[[], Any] | None = field(default=None, repr=False)

    @cached_property
    def certificate(self) -> Any:
        return None if self._certify is None else self._certify()


def l1_measure(rho: DensityMatrix, basis: FreeBasis) -> MeasureReport:
    """Sum of off-diagonal moduli of the free-frame expansion."""
    coeffs = free_expansion(rho, basis)
    value = float(np.sum(np.abs(coeffs)) - np.sum(np.abs(np.diag(coeffs))))
    return MeasureReport(value=max(value, 0.0))


def _entropy_terms(rho_mat: np.ndarray) -> float:
    """tr[rho ln rho] with 0 ln 0 = 0."""
    w = np.clip(np.linalg.eigvalsh(rho_mat), 0.0, None)
    live = w[w > 0]
    return float(np.sum(live * np.log(live)))


def _cross_entropy_eig(w: np.ndarray, rho_eig: np.ndarray) -> float:
    """-tr[rho ln sigma] from sigma's eigenvalues w and rho in sigma's eigenbasis.

    +inf when rho has weight outside the support of sigma (eigenvalues <= 1e-15).
    """
    pops = rho_eig.diagonal().real
    inside = w > 1e-15
    if (pops[~inside] > 1e-12).any():
        return np.inf
    return float(-pops[inside] @ np.log(w[inside]))


def _rel_ent_terms(rho_mat: np.ndarray, basis: FreeBasis, q: np.ndarray) -> tuple[float, np.ndarray, tuple | None]:
    """-tr[rho ln sigma(q)], its gradient in q and the parts of its Hessian, from one eigh of sigma(q).

    The gradient is the adjoint Frechet derivative of ln applied to rho:
    -grad_i = a_i'(L o rho~)a_i, with rho~ = U'rho U in sigma's eigenbasis U,
    L the Loewner matrix of ln at sigma's eigenvalues and a_i = U'c_i. Rows and
    columns outside sigma's support (the rule of ``_cross_entropy_eig``) hold
    only rounding noise of rho there, which 1/w would blow up; they are zeroed,
    which leaves the one-sided derivative on a face of the simplex. The parts
    (w, L, rho~, a) that ``_rel_ent_hessian`` takes are None off full support.
    """
    w, u = np.linalg.eigh(_mixture(basis, q))
    uh = dagger(u)
    rho_eig = uh @ rho_mat @ u
    if full := w[0] > 1e-15:   # eigh sorts w ascending: sigma has full support
        logs = np.log(w)
        value = float(-rho_eig.diagonal().real @ logs)   # _cross_entropy_eig's value, ln w taken once
    else:
        value = _cross_entropy_eig(w, rho_eig)
        outside = w <= 1e-15
        rho_eig[outside, :] = 0.0
        rho_eig[:, outside] = 0.0
        w = np.clip(w, 1e-300, None)
        logs = np.log(w)
    diff = w[:, None] - w[None, :]
    loewner = np.repeat(1.0 / w[:, None], len(w), axis=1)
    np.divide(logs[:, None] - logs[None, :], diff, out=loewner, where=np.abs(diff) > 1e-14)
    a = uh @ basis.vectors
    grad = -(a.conj() * ((loewner * rho_eig) @ a)).sum(axis=0).real
    return value, grad, (w, loewner, rho_eig, a) if full else None


def _rel_ent_hessian(w: np.ndarray, loewner: np.ndarray, rho_eig: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hessian of -tr[rho ln sigma(q)] in q, in O(d^4), from the parts of ``_rel_ent_terms``.

    The second Frechet derivative of ln at sigma = U diag(w) U' (Daleckii-Krein;
    Bhatia, Matrix Analysis, ch. V) gives -hess_im = 2 Re T_im with
    T_im = sum_jkl rho~_lj D_jkl a_ji a_ki* a_km a_lm*, where D_jkl = ln[w_j, w_k, w_l]
    is the second divided difference (L_jk - L_kl)/(w_j - w_l). Where w_l meets
    w_j within 1e-5 relative, D takes its limit (1/w_j - L_jk)/(w_j - w_k), and
    -1/(2 w_j^2) where all three meet.
    """
    d = len(w)
    diff = w[:, None] - w[None, :]
    apart = np.abs(diff) > 1e-5 * np.maximum(w[:, None], w[None, :])
    edge = np.divide(1.0 / w[:, None] - loewner, diff, out=np.repeat(-0.5 / w[:, None] ** 2, d, axis=1),
                     where=apart)
    second = np.repeat(edge[:, :, None], d, axis=2)
    np.divide(loewner[:, :, None] - loewner[None, :, :], diff[:, None, :], out=second, where=apart[:, None, :])
    # p[k, j, i] = a_ki* a_ji, and second[k] holds D_kjl = D_jkl over (j, l), so
    # T_im = sum over (k, j) of p[k, j, i] ((second[k] o rho~') p[k]*)[j, m]
    p = a.conj()[:, None, :] * a
    return -2.0 * (p.reshape(d * d, d).T @ ((second * rho_eig.T) @ p.conj()).reshape(d * d, d)).real


def _newton_point(q: np.ndarray, grad: np.ndarray, parts: tuple | None, tol: float) -> np.ndarray | None:
    """Projected-Newton point on the free face (Bertsekas, SIAM J. Control Optim. 20, 1982).

    Weights at most min(``_FACE_WEIGHT``, Frank-Wolfe gap) whose reduced gradient
    r_i = grad_i - grad.q is positive are held at the face: each steps to
    max(``_NEWTON_CUT`` q_i, 1e-3 tol / r_i), below which its share q_i r_i of
    the gap is negligible, and stays once there. The other weights take the
    Newton step of the quadratic model, from one solve of the equality-
    constrained (sum dq = 0) system with the held steps fixed. A weight that the
    step would take below ``_NEWTON_CUT`` q_i stops there, so no weight becomes
    0 and the multiplicative update can still move every one. None off full
    support or when the solve fails.
    """
    if parts is None:
        return None
    n = len(q)
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = _rel_ent_hessian(*parts)
    kkt[n, :n] = kkt[:n, n] = 1.0
    rhs = np.append(-grad, 0.0)
    reduced = grad - grad @ q
    held = np.flatnonzero((q <= min(_FACE_WEIGHT, -reduced.min())) & (reduced > 0))
    if held.size:   # a held weight's row of the solve fixes its step
        kkt[held] = 0.0
        kkt[held, held] = 1.0
        target = np.maximum(_NEWTON_CUT * q[held], 1e-3 * tol / reduced[held])
        rhs[held] = np.minimum(target, q[held]) - q[held]
    try:
        step = np.linalg.solve(kkt, rhs)[:n]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(step).all():
        return None
    point = np.maximum(q + step, _NEWTON_CUT * q)
    return point / point.sum()


def rel_entropy_measure(rho: DensityMatrix, basis: FreeBasis, tol: float = REL_ENT_TOL) -> MeasureReport:
    """Minimum relative entropy to the free set: two multiplicative updates,
    then projected-Newton steps on the free face for as long as they are kept.

    The update sets q_i <- q_i * c_i'Tc_i, where -grad_i = c_i'Tc_i >= 0 (T the
    Schur product of ln's Loewner matrix with rho in sigma's eigenbasis, see
    ``_rel_ent_terms``) and sum_i q_i c_i'Tc_i = tr rho = 1, so q stays on the
    simplex; it is the EM fixed point of Cover (IEEE Trans. IT 30, 1984). After
    two updates the loop tries a projected-Newton step (``_newton_point``, with
    the Hessian of ``_rel_ent_hessian``): the step is kept when its cross
    entropy does not rise or its point certifies, and is followed by another;
    a rejected step, or none, is followed by two updates again. Every evaluated
    point is tested: the loop stops at the first whose Frank-Wolfe gap
    grad.q - min grad, which bounds value - minimum and is reported as
    ``extra["fw_gap"]``, is at most tol, and raises ``NoConvergence`` after
    ``_MAX_FW_ITER`` updates and Newton steps together.
    ``extra["evaluations"]`` counts the evaluations (one ``eigh`` each, trial
    points included) and ``extra["newton_steps"]`` the Newton steps tried. A
    free rho starts at its free weights, the optimum; any other rho starts at
    the uniform mixture.
    """
    tol = as_tolerance(tol)
    if _is_free_coeffs(coeffs := free_expansion(rho, basis)):
        q = np.clip(np.diag(coeffs).real, 0.0, None)
        q /= q.sum()
    else:
        q = np.full(basis.d, 1.0 / basis.d)
    cross, grad, parts = _rel_ent_terms(rho.mat, basis, q)
    updates, evaluations, newton_steps = 0, 1, 0   # updates: plain updates since the last failed Newton step
    while (fw_gap := float(grad @ q - grad.min())) > tol:
        if newton := updates == 2:
            trial = _newton_point(q, grad, parts, tol)
            if trial is None:
                updates = 0
                continue
        else:
            trial = q * -grad
            trial /= trial.sum()
        if evaluations > _MAX_FW_ITER:   # each evaluation after the start is one update or Newton step
            raise NoConvergence(f"Frank-Wolfe gap {fw_gap:.3e} above {tol:.1e} after {_MAX_FW_ITER} updates")
        evaluations += 1
        newton_steps += newton
        cross_t, grad_t, parts_t = _rel_ent_terms(rho.mat, basis, trial)
        if not newton or cross_t <= cross or grad_t @ trial - grad_t.min() <= tol:
            q, cross, grad, parts = trial, cross_t, grad_t, parts_t
            updates += not newton
        else:
            updates = 0
    return MeasureReport(value=max(_entropy_terms(rho.mat) + cross, 0.0),
                         _certify=partial(free_mixture, basis, q.copy()),
                         extra={"weights": q, "fw_gap": max(fw_gap, 0.0), "evaluations": evaluations,
                                "newton_steps": newton_steps})


def rank_measure(state, basis: FreeBasis) -> MeasureReport:
    """log of the superposition rank (pure), or a convex-roof upper bound (mixed).

    The mixed value is 0 for free states and otherwise the eigendecomposition
    average sum_k lam_k log rank(psi_k), an upper bound on the convex roof
    (``upper_bound`` is set when rho has more than one eigenvector).
    """
    if isinstance(state, PureState):
        return MeasureReport(value=float(np.log(superposition_rank(state, basis))))
    if is_free(state, basis):
        # free states decompose into rank-one free pure states, so the roof is 0
        return MeasureReport(value=0.0)
    decomp = eigen_decomposition(state)
    value = float(np.sum([lam * np.log(superposition_rank(psi, basis)) for lam, psi in decomp]))
    return MeasureReport(value=max(value, 0.0), upper_bound=len(decomp) > 1)


def _phase_cover(coeffs: np.ndarray, gap_tol: float) -> tuple[str, SdpSolution] | None:
    """Bracket the cover diag(x) >= C by a feasible x and a dual y y'; the first pair within gap_tol.

    Any x with diag(x) >= C is feasible, and any unit-modulus y gives a dual
    Y = y y' (diag Y = 1) worth y'Cy. The start pairs the closed form
    x_i = sum_j |C_ij| (diag(x) - C is diagonally dominant) with the phases of
    C's top eigenvector; they meet when C is 2 x 2, rank one (Napoli et al.,
    PRL 116, 150502) or diagonal (a free rho, up to C's rounding, of order
    u / sigma_min^2 off the diagonal). Each step prices y, then
    sets y <- phase(Cy). While the best x misses gap_tol and sum|Cy| - y'Cy,
    a lower bound on the gap, is within it, y offers x = |Cy| + t 1, with
    t = max(0, -lam_min(diag|Cy| - C)) plus a rounding margin d eps max|Cy|,
    kept when its sum is smaller. The two meet at a fixed point y = phase(Cy)
    with diag|Cy| - C >= 0, the certificate of angular synchronisation
    (Bandeira, Boumal and Singer, Math. Program. 163, 2017) that the
    generalised power method reaches (Boumal, SIAM J. Optim. 26, 2016).
    Returns ("closed_form" or "phase", by which x is certified, and the pair),
    or None after ``_MAX_PHASE_STEPS`` duals.
    """
    d = len(coeffs)
    x = np.abs(coeffs).sum(axis=1)
    primal, method = float(x.sum()), "closed_form"
    _, u = np.linalg.eigh(coeffs)
    y = np.exp(1j * np.angle(u[:, -1]))
    for _ in range(_MAX_PHASE_STEPS):
        g = coeffs @ y
        mag, dual = np.abs(g), float((y.conj() @ g).real)
        if primal - dual > gap_tol and mag.sum() - dual <= gap_tol:
            lam = float(np.linalg.eigvalsh(np.diag(mag) - coeffs)[0])
            offer = mag + (max(-lam, 0.0) + d * np.finfo(float).eps * mag.max())
            if (total := float(offer.sum())) < primal:
                x, primal, method = offer, total, "phase"
        if primal - dual <= gap_tol:
            return method, SdpSolution(p=x, primal=primal, dual_matrix=np.outer(y, y.conj()),
                                       dual=dual, gap=max(primal - dual, 0.0))
        y = np.exp(1j * np.angle(g))
    return None


def robustness(rho: DensityMatrix, basis: FreeBasis, gap_tol: float = COVER_GAP_TOL) -> MeasureReport:
    """Minimal s >= 0 such that (rho + s tau)/(1+s) is free for some state tau.

    Solved in the free frame C = W' rho W as "minimize sum x_i - 1 subject to
    diag(x) >= C", i.e. sum x_i |c_i><c_i| >= rho with x_i = (1+s) q_i; the
    certificate holds the optimal (s, closest free state delta, witness tau).
    Every rho tries one phase bracket, ``_phase_cover``, whose start is the
    closed form R + 1 = sum_ij |C_ij| (certified on every d = 2 rho, and on a
    rank-one or free rho unless the basis is nearly dependent), then the SDP
    (``solve_cover`` on the same C, whose ``NoConvergence`` propagates) where
    the bracket stalls. ``extra["method"]`` is "closed_form", "phase" or "sdp".
    """
    gap_tol = as_tolerance(gap_tol, "gap_tol")
    coeffs = free_expansion(rho, basis)
    method, sol = _phase_cover(coeffs, gap_tol) or ("sdp", solve_cover(coeffs, gap_tol=gap_tol))
    s = max(float(sol.primal - 1.0), 0.0)
    return MeasureReport(value=s, _certify=partial(_robustness_certificate, rho, basis, s, sol.p),
                         extra={"weights": sol.p.copy(), "gap": sol.gap, "method": method})


def _robustness_certificate(rho: DensityMatrix, basis: FreeBasis, s: float, x: np.ndarray) -> dict:
    delta, tau = free_mixture(basis, x / x.sum()), None
    if s > 1e-10:
        excess = psd_part((1.0 + s) * delta.mat - rho.mat)
        tau = DensityMatrix(excess / np.trace(excess).real)
    return {"s": s, "delta": delta, "tau": tau}
