"""Superposition quantifiers: l1, relative entropy, rank, and robustness.

All entropic quantities use the natural logarithm; every report carries the
convention so downstream output is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.optimize import minimize_scalar

from .basis import FreeBasis
from .errors import NoConvergence, SolverFailure
from .sampling import make_rng
from .sdp import solve_cover
from .states import (
    DensityMatrix,
    PureState,
    eigen_decomposition,
    free_expansion,
    is_free,
    superposition_rank,
)

LOG_CONVENTION = "nat"


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


def _cross_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    """-tr[rho ln sigma]; +inf when rho has weight outside the support of sigma."""
    w, u = np.linalg.eigh(sigma_mat)
    pops = np.einsum("ij,jk,ki->i", u.conj().T, rho_mat, u).real
    out = 0.0
    for lam, pop in zip(w, pops):
        if lam <= 1e-15:
            if pop > 1e-12:
                return np.inf
            continue
        out -= pop * np.log(lam)
    return out


def relative_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    return _entropy_terms(rho_mat) + _cross_entropy(rho_mat, sigma_mat)


def _free_sigma(basis: FreeBasis, q: np.ndarray) -> np.ndarray:
    return (basis.vectors * q) @ basis.vectors.conj().T


def _rel_ent_gradient(rho_mat: np.ndarray, basis: FreeBasis, q: np.ndarray) -> np.ndarray:
    """Gradient of q -> -tr[rho ln sigma(q)] via the Frechet derivative of ln."""
    sigma = _free_sigma(basis, q)
    w, u = np.linalg.eigh(sigma)
    w = np.clip(w, 1e-300, None)
    logs = np.log(w)
    diff = w[:, None] - w[None, :]
    ratio = np.where(np.abs(diff) > 1e-14, (logs[:, None] - logs[None, :]) / np.where(diff == 0, 1, diff),
                     1.0 / w[:, None])
    rho_eig = u.conj().T @ rho_mat @ u
    t = u @ (ratio * rho_eig) @ u.conj().T   # adjoint Frechet derivative applied to rho
    c = basis.vectors
    return -np.einsum("ij,jk,ki->i", c.conj().T, t, c).real


def rel_entropy_measure(rho: DensityMatrix, basis: FreeBasis, tol: float = 1e-9,
                        max_iter: int = 10_000) -> MeasureReport:
    """Minimum relative entropy to the free set, by Frank-Wolfe over the simplex.

    Away-step variant: the linear subproblem still only picks simplex
    vertices, but each iteration may also shrink the weight of the worst
    active vertex, which keeps convergence linear when the optimum sits on a
    face. Steps use an exact 1-d line search; converged when successive
    values differ by less than tol.
    """
    d = basis.d
    rho_entropy = _entropy_terms(rho.mat)
    q = np.full(d, 1.0 / d)

    def objective(qv: np.ndarray) -> float:
        return rho_entropy + _cross_entropy(rho.mat, _free_sigma(basis, qv))

    value = objective(q)
    for _ in range(max_iter):
        grad = _rel_ent_gradient(rho.mat, basis, q)
        towards = int(np.argmin(grad))
        fw_direction = -q.copy()
        fw_direction[towards] += 1.0
        fw_gap = float(-grad @ fw_direction)
        active = np.where(q > 1e-14)[0]
        away = int(active[np.argmax(grad[active])])
        away_gap = float(grad[away] - grad @ q)
        if away_gap > fw_gap and q[away] < 1.0 - 1e-14:
            direction = q.copy()
            direction[away] -= 1.0
            gamma_max = q[away] / (1.0 - q[away])
        else:
            direction = fw_direction
            gamma_max = 1.0

        def line(gamma: float) -> float:
            return objective(q + gamma * direction)

        res = minimize_scalar(line, bounds=(0.0, gamma_max), method="bounded",
                              options={"xatol": 1e-14, "maxiter": 80})
        gamma = float(res.x)
        new_q = np.clip(q + gamma * direction, 0.0, None)
        new_q /= new_q.sum()
        new_value = objective(new_q)
        if new_value > value:
            new_q, new_value = q, value
        q, improvement, value = new_q, value - new_value, new_value
        if improvement < tol:
            sigma = _free_sigma(basis, q)
            return MeasureReport(value=max(value, 0.0),
                                 certificate=DensityMatrix(sigma / np.trace(sigma).real),
                                 extra={"weights": q.copy()})
    raise NoConvergence(f"no convergence within {max_iter} Frank-Wolfe iterations")


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


def robustness(rho: DensityMatrix, basis: FreeBasis, gap_tol: float = 1e-8) -> MeasureReport:
    """Minimal s >= 0 such that (rho + s tau)/(1+s) is free for some state tau.

    Solved as "minimize sum x_i - 1 subject to sum x_i |c_i><c_i| >= rho,
    x >= 0" (substitute x_i = (1+s) q_i); the certificate holds the optimal
    (s, closest free state delta, witness tau).
    """
    mats = [np.outer(basis.vectors[:, i], basis.vectors[:, i].conj()) for i in range(basis.d)]
    try:
        sol = solve_cover(rho.mat, mats, gap_tol=gap_tol)
    except NoConvergence as exc:
        raise SolverFailure(str(exc)) from exc
    if sol.gap > 1e-6:
        raise SolverFailure(f"duality gap {sol.gap:.3e} above 1e-6")
    s = max(float(sol.primal - 1.0), 0.0)
    mix = np.sum([x * b for x, b in zip(sol.p, mats)], axis=0)
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
                         extra={"weights": sol.p.copy(), "gap": sol.gap})
