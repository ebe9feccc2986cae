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
from .sampling import make_rng
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
    coeffs = free_expansion(rho, basis).coeffs
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


def _cross_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    w, u = np.linalg.eigh(sigma_mat)
    return _cross_entropy_eig(w, u.conj().T @ rho_mat @ u)


def relative_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    return _entropy_terms(rho_mat) + _cross_entropy(rho_mat, sigma_mat)


def _free_sigma(basis: FreeBasis, q: np.ndarray) -> np.ndarray:
    return (basis.vectors * q) @ basis.vectors.conj().T


def _rel_ent_terms(rho_mat: np.ndarray, basis: FreeBasis, q: np.ndarray) -> tuple[float, np.ndarray]:
    """-tr[rho ln sigma(q)] and its gradient in q, from one eigh of sigma(q).

    The gradient is the adjoint Frechet derivative of ln applied to rho. Rows
    and columns outside sigma's support (the rule of ``_cross_entropy_eig``)
    hold only rounding noise of rho there, which 1/w would blow up; they are
    zeroed, which leaves the one-sided derivative on a face of the simplex.
    """
    w, u = np.linalg.eigh(_free_sigma(basis, q))
    rho_eig = u.conj().T @ rho_mat @ u
    value = _cross_entropy_eig(w, rho_eig)
    outside = w <= 1e-15
    rho_eig[outside, :] = 0.0
    rho_eig[:, outside] = 0.0
    w = np.clip(w, 1e-300, None)
    logs = np.log(w)
    diff = w[:, None] - w[None, :]
    ratio = np.where(np.abs(diff) > 1e-14, (logs[:, None] - logs[None, :]) / np.where(diff == 0, 1, diff),
                     1.0 / w[:, None])
    t = u @ (ratio * rho_eig) @ u.conj().T
    c = basis.vectors
    return value, -np.einsum("ij,jk,ki->i", c.conj().T, t, c).real


def rel_entropy_measure(rho: DensityMatrix, basis: FreeBasis, tol: float = 1e-9) -> MeasureReport:
    """Minimum relative entropy to the free set, by a multiplicative update on the simplex.

    Each step sets q_i <- q_i * c_i'Tc_i, where -grad_i = c_i'Tc_i >= 0 (T the
    Schur product of ln's Loewner matrix with rho in sigma's eigenbasis, see
    ``_rel_ent_terms``) and sum_i q_i c_i'Tc_i = tr rho = 1, so q stays on the
    simplex. The loop stops when the Frank-Wolfe gap grad.q - min grad, which
    bounds value - minimum and is reported as ``extra["fw_gap"]``, is at most
    tol, and raises ``NoConvergence`` otherwise. A free rho starts at its free
    weights, the optimum; any other rho starts at the uniform mixture.
    """
    if is_free(rho, basis):
        q = np.clip(np.diag(free_expansion(rho, basis).coeffs).real, 0.0, None)
        q /= q.sum()
    else:
        q = np.full(basis.d, 1.0 / basis.d)
    for _ in range(_MAX_FW_ITER):
        cross, grad = _rel_ent_terms(rho.mat, basis, q)
        fw_gap = float(grad @ q - grad.min())
        if fw_gap <= tol:
            break
        q = q * -grad
        q /= q.sum()
    else:
        raise NoConvergence(f"Frank-Wolfe gap {fw_gap:.3e} above {tol:.1e} after {_MAX_FW_ITER} updates")
    sigma = _free_sigma(basis, q)
    return MeasureReport(value=max(_entropy_terms(rho.mat) + cross, 0.0),
                         certificate=DensityMatrix(sigma / np.trace(sigma).real),
                         extra={"weights": q, "fw_gap": max(fw_gap, 0.0)})


def rank_measure(state, basis: FreeBasis, mixings: int = 1000,
                 rng_seed: int = 7) -> MeasureReport:
    """log of the superposition rank (pure), or a convex-roof upper bound (mixed).

    The mixed value minimizes the average log-rank over the eigendecomposition
    and ``mixings`` random-unitary reshufflings of it, and is only an upper
    bound on the true convex roof.
    """
    if isinstance(state, PureState):
        return MeasureReport(value=float(np.log(superposition_rank(state, basis))))
    if is_free(state, basis):
        # free states decompose into rank-one free pure states, so the roof is 0
        return MeasureReport(value=0.0)
    decomp = eigen_decomposition(state)
    weights = np.array([lam for lam, _ in decomp])
    vectors = np.stack([np.sqrt(lam) * psi.amp for lam, psi in decomp])
    m = len(decomp)

    def decomposition_value(mat: np.ndarray) -> float:
        total = 0.0
        for row in mat:
            p = float(np.linalg.norm(row) ** 2)
            if p > 1e-12:
                total += p * np.log(superposition_rank(PureState.normalized(row), basis))
        return total

    best = float(np.sum(weights * [np.log(superposition_rank(psi, basis)) for _, psi in decomp]))
    rng = make_rng(rng_seed)
    for _ in range(mixings):
        z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2)
        u, _ = np.linalg.qr(z)
        best = min(best, decomposition_value(u @ vectors))
    return MeasureReport(value=max(best, 0.0), upper_bound=m > 1)


def _closed_form_cover(rho: DensityMatrix, basis: FreeBasis) -> SdpSolution:
    """Closed-form candidate for the robustness cover, with its certified gap.

    In the free frame C = W' rho W (W the reciprocal frame) the cover reads
    diag(x) >= C. x_i = sum_j |C_ij| is feasible for every rho, because
    diag(x) - C is diagonally dominant. Y = W y y' W', with y the phases of
    C's top eigenvector, has tr(B_i Y) = |y_i|^2 = 1 and tr(rho Y) = y' C y,
    which reaches sum_ij |C_ij| when C is 2 x 2, rank one (Napoli et al.,
    PRL 116, 150502) or diagonal (every free rho), so the two certify each
    other there; elsewhere ``gap`` shows how far apart they are.
    """
    coeffs = free_expansion(rho, basis).coeffs
    _, u = np.linalg.eigh(coeffs)
    x = np.abs(coeffs).sum(axis=1)
    wy = basis.reciprocal @ np.exp(1j * np.angle(u[:, -1]))
    primal, dual = float(x.sum()), float((wy.conj() @ rho.mat @ wy).real)
    return SdpSolution(p=x, primal=primal, dual_matrix=np.outer(wy, wy.conj()), dual=dual,
                       gap=max(primal - dual, 0.0))


def robustness(rho: DensityMatrix, basis: FreeBasis, gap_tol: float = 1e-8) -> MeasureReport:
    """Minimal s >= 0 such that (rho + s tau)/(1+s) is free for some state tau.

    Solved as "minimize sum x_i - 1 subject to sum x_i |c_i><c_i| >= rho,
    x >= 0" (substitute x_i = (1+s) q_i); the certificate holds the optimal
    (s, closest free state delta, witness tau). Every rho first tries the
    closed form R + 1 = sum_ij |C_ij| over the free-frame coefficients C of
    ``_closed_form_cover``, kept when its primal point and dual matrix certify
    each other within gap_tol (every rank-one, every d = 2 and every free rho);
    any other rho goes to the barrier solver ``solve_cover``, whose
    ``NoConvergence`` propagates. ``extra["method"]`` says which
    ("closed_form" or "sdp").
    """
    sol, method = _closed_form_cover(rho, basis), "closed_form"
    if sol.gap > gap_tol:
        method = "sdp"
        mats = [np.outer(basis.vectors[:, i], basis.vectors[:, i].conj()) for i in range(basis.d)]
        sol = solve_cover(rho.mat, mats, gap_tol=gap_tol)
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
