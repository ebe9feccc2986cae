"""Superposition quantifiers: l1, relative entropy, rank, and robustness.

All entropic quantities use the natural logarithm; every report carries the
convention so downstream output is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .basis import FreeBasis
from .errors import NoConvergence
from .sdp import SdpSolution, solve_cover
from .states import (
    DensityMatrix,
    PureState,
    eigen_decomposition,
    free_expansion,
    is_free,
    superposition_rank,
)

LOG_CONVENTION = "nat"
_MAX_FW_ITER = 10_000


@dataclass(frozen=True)
class MeasureReport:
    """A nonnegative measure value plus an optional certificate payload."""

    value: float
    convention: str = LOG_CONVENTION
    certificate: Any = None
    upper_bound: bool = False
    extra: dict = field(default_factory=dict)


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
    pops = np.diag(rho_eig).real
    inside = w > 1e-15
    if np.any(pops[~inside] > 1e-12):
        return np.inf
    return float(-pops[inside] @ np.log(w[inside]))


def _free_sigma(basis: FreeBasis, q: np.ndarray) -> np.ndarray:
    return (basis.vectors * q) @ basis.vectors.conj().T


def _rel_ent_terms(rho_mat: np.ndarray, basis: FreeBasis, q: np.ndarray) -> tuple[float, np.ndarray]:
    """-tr[rho ln sigma(q)] and its gradient in q, from one eigh of sigma(q).

    The gradient is the adjoint Frechet derivative of ln applied to rho:
    -grad_i = a_i'(L o rho~)a_i, with rho~ = U'rho U in sigma's eigenbasis U,
    L the Loewner matrix of ln at sigma's eigenvalues and a_i = U'c_i. Rows and
    columns outside sigma's support (the rule of ``_cross_entropy_eig``) hold
    only rounding noise of rho there, which 1/w would blow up; they are zeroed,
    which leaves the one-sided derivative on a face of the simplex.
    """
    w, u = np.linalg.eigh(_free_sigma(basis, q))
    uh = u.conj().T
    rho_eig = uh @ rho_mat @ u
    if w[0] > 1e-15:   # eigh sorts w ascending: sigma has full support
        logs = np.log(w)
        value = float(-np.diag(rho_eig).real @ logs)
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
    return value, -(a.conj() * ((loewner * rho_eig) @ a)).sum(axis=0).real


def _extrapolate(q0: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray | None:
    """SQUAREM's point q0 - 2 alpha r + alpha^2 v from two updates q1 = F(q0), q2 = F(q1).

    r = q1 - q0, v = q2 - 2 q1 + q0 and alpha = -max(|r|/|v|, 1) (Varadhan &
    Roland, Scand. J. Stat. 35, 2008, scheme S3). While some weight of the
    point is not positive, alpha moves halfway to -1, where the point is q2:
    a weight set to 0 would stay 0 under every later update. None when no
    alpha < -1 keeps every weight positive.
    """
    r, v = q1 - q0, q2 - 2.0 * q1 + q0
    v_norm = np.linalg.norm(v)
    alpha = -max(np.linalg.norm(r) / v_norm, 1.0) if v_norm > 0 else -1.0
    while alpha < -1.0:
        q = q0 - 2.0 * alpha * r + alpha * alpha * v
        if (q > 0).all():
            return q / q.sum()
        alpha = 0.5 * (alpha - 1.0)
    return None


def rel_entropy_measure(rho: DensityMatrix, basis: FreeBasis, tol: float = 1e-9) -> MeasureReport:
    """Minimum relative entropy to the free set, by an extrapolated multiplicative update.

    The update F sets q_i <- q_i * c_i'Tc_i, where -grad_i = c_i'Tc_i >= 0 (T the
    Schur product of ln's Loewner matrix with rho in sigma's eigenbasis, see
    ``_rel_ent_terms``) and sum_i q_i c_i'Tc_i = tr rho = 1, so q stays on the
    simplex; it is the EM fixed point of Cover (IEEE Trans. IT 30, 1984). Each
    cycle takes two updates from q0 and extrapolates them by SQUAREM
    (``_extrapolate``); the extrapolated point is kept when its cross entropy is
    at most that of the second update, which is kept otherwise, and the next
    cycle starts from the point kept. Every evaluated point is tested: the loop
    stops at the first whose Frank-Wolfe gap grad.q - min grad, which bounds
    value - minimum and is reported as ``extra["fw_gap"]``, is at most tol, and
    raises ``NoConvergence`` after ``_MAX_FW_ITER`` updates. A free rho starts at its
    free weights, the optimum; any other rho starts at the uniform mixture.
    """
    if is_free(rho, basis):
        q = np.clip(np.diag(free_expansion(rho, basis)).real, 0.0, None)
        q /= q.sum()
    else:
        q = np.full(basis.d, 1.0 / basis.d)
    cross, grad = _rel_ent_terms(rho.mat, basis, q)
    cycle, updates = [q], 0
    while (fw_gap := float(grad @ q - grad.min())) > tol:
        if len(cycle) == 3:
            q_ext = _extrapolate(*cycle)
            if q_ext is not None:
                cross_ext, grad_ext = _rel_ent_terms(rho.mat, basis, q_ext)
                if cross_ext <= cross or grad_ext @ q_ext - grad_ext.min() <= tol:
                    q, cross, grad = q_ext, cross_ext, grad_ext
            cycle = [q]
            continue
        if updates == _MAX_FW_ITER:
            raise NoConvergence(f"Frank-Wolfe gap {fw_gap:.3e} above {tol:.1e} after {_MAX_FW_ITER} updates")
        q = q * -grad
        q /= q.sum()
        updates += 1
        cross, grad = _rel_ent_terms(rho.mat, basis, q)
        cycle.append(q)
    sigma = _free_sigma(basis, q)
    return MeasureReport(value=max(_entropy_terms(rho.mat) + cross, 0.0),
                         certificate=DensityMatrix(sigma / np.trace(sigma).real),
                         extra={"weights": q, "fw_gap": max(fw_gap, 0.0)})


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


def _closed_form_cover(coeffs: np.ndarray) -> SdpSolution:
    """Closed-form robustness cover diag(x) >= C, with its certified gap.

    ``coeffs`` is the free-frame C = W' rho W (W the reciprocal frame).
    x_i = sum_j |C_ij| is feasible for every rho, because diag(x) - C is
    diagonally dominant. Y = y y', with y the phases of C's top eigenvector,
    has diag Y = 1 and tr(C Y) = y' C y, which reaches sum_ij |C_ij| when C is
    2 x 2, rank one (Napoli et al., PRL 116, 150502) or diagonal (every free
    rho), so the two certify each other there; elsewhere ``gap`` shows how far
    apart they are.
    """
    _, u = np.linalg.eigh(coeffs)
    y = np.exp(1j * np.angle(u[:, -1]))
    x = np.abs(coeffs).sum(axis=1)
    primal, dual = float(x.sum()), float((y.conj() @ coeffs @ y).real)
    return SdpSolution(p=x, primal=primal, dual_matrix=np.outer(y, y.conj()), dual=dual,
                       gap=max(primal - dual, 0.0))


def robustness(rho: DensityMatrix, basis: FreeBasis, gap_tol: float = 1e-8) -> MeasureReport:
    """Minimal s >= 0 such that (rho + s tau)/(1+s) is free for some state tau.

    Solved in the free frame C = W' rho W as "minimize sum x_i - 1 subject to
    diag(x) >= C", i.e. sum x_i |c_i><c_i| >= rho with x_i = (1+s) q_i; the
    certificate holds the optimal (s, closest free state delta, witness tau).
    Every rho first tries the closed form R + 1 = sum_ij |C_ij| of
    ``_closed_form_cover``, kept when its primal point and dual matrix certify
    each other within gap_tol (every rank-one, every d = 2 and every free rho);
    any other rho goes to ``solve_cover`` over C and the unit projectors, from
    the closed-form start 2 lam_max(C) * 1; its ``NoConvergence`` propagates.
    ``extra["method"]`` says which ("closed_form" or "sdp").
    """
    coeffs = free_expansion(rho, basis)
    sol, method = _closed_form_cover(coeffs), "closed_form"
    if sol.gap > gap_tol:
        method = "sdp"
        sol = solve_cover(coeffs, [np.diag(e) for e in np.eye(basis.d)], gap_tol=gap_tol)
    s = max(float(sol.primal - 1.0), 0.0)
    mix = _free_sigma(basis, sol.p)
    delta = DensityMatrix(mix / np.trace(mix).real)
    tau = None
    if s > 1e-10:
        excess = (mix - rho.mat) / s
        excess = 0.5 * (excess + excess.conj().T)
        w, u = np.linalg.eigh(excess)
        w = np.clip(w, 0.0, None)
        excess = (u * w) @ u.conj().T
        tau = DensityMatrix(excess / np.trace(excess).real)
    return MeasureReport(value=s, certificate={"s": s, "delta": delta, "tau": tau},
                         extra={"weights": sol.p.copy(), "gap": sol.gap, "method": method})
