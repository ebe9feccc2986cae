import copy
import functools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from superpos.basis import FreeBasis, new_free_basis, orthonormal_basis, symmetric_basis_d3
from superpos.errors import NoConvergence
from superpos.kraus import free_channel, measure_selective
from superpos import measures, states
from superpos.linalg import dagger, hermitian_part, psd_part
from superpos.measures import (
    _cross_entropy_eig,
    _entropy_terms,
    _newton_point,
    _phase_cover,
    _rel_ent_hessian,
    _rel_ent_terms,
    l1_measure,
    rank_measure,
    rel_entropy_measure,
    robustness,
)
from superpos.qubit import qubit_free_basis
from superpos.sdp import solve_cover
from superpos.sampling import (
    haar_state,
    haar_unitary,
    make_rng,
    random_basis,
    random_density,
    random_free_state,
    random_subnormalized_free_ops,
)
from superpos.states import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    _mixture,
    eigen_decomposition,
    free_expansion,
    free_mixture,
    is_free,
    superposition_rank,
)
from superpos.transform import candidate_states_d3

SRC = Path(__file__).resolve().parent.parent / "src"


def sample_resourceful_pure(basis, rng, floor: float = 0.25):
    """Haar state resampled until each free coefficient carries real weight."""
    while True:
        psi = haar_state(basis.d, rng)
        mags = np.abs(basis.to_free_frame(psi.amp))
        if mags.min() > floor * mags.max():
            return psi


def test_l1_zero_on_free_states():
    rng = make_rng(601)
    for _ in range(50):
        b = random_basis(3, rng)
        assert l1_measure(random_free_state(b, rng), b).value < 1e-10


def test_l1_uniform_superposition_d3():
    b = symmetric_basis_d3()
    phi = PureState(b.vectors.sum(axis=1) / np.sqrt(6))
    assert abs(l1_measure(phi.density(), b).value - 1.0) < 1e-10


def test_l1_maximal_candidates():
    b = symmetric_basis_d3()
    for cand in candidate_states_d3():
        assert abs(l1_measure(cand.density(), b).value - 4.0) < 1e-9


def test_rel_entropy_free_state_zero():
    b = qubit_free_basis(0.6)
    rep = rel_entropy_measure(free_mixture(b, [0.3, 0.7]), b)
    assert rep.value < 1e-8


def _cross_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    """-tr[rho ln sigma] from one eigh of sigma, by the library's support rule."""
    w, u = np.linalg.eigh(sigma_mat)
    return _cross_entropy_eig(w, u.conj().T @ rho_mat @ u)


def relative_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    """S(rho || sigma) = tr[rho ln rho] - tr[rho ln sigma]."""
    return _entropy_terms(rho_mat) + _cross_entropy(rho_mat, sigma_mat)


def test_rel_entropy_maximally_coherent_qubit():
    b = orthonormal_basis(2)
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    rep = rel_entropy_measure(plus.density(), b)
    assert abs(rep.value - np.log(2)) < 1e-9
    # grid oracle over the 1-simplex
    qs = np.linspace(0, 1, 10_001)
    grid = min(relative_entropy(plus.density().mat, np.diag([q, 1 - q]).astype(complex))
               for q in qs[1:-1])
    assert abs(rep.value - grid) < 1e-4


def test_rel_entropy_overlapping_qubit_grid_oracle():
    b = qubit_free_basis(0.5)
    psi = PureState.normalized(b.state(0) + b.state(1))
    rep = rel_entropy_measure(psi.density(), b)
    qs = np.linspace(0, 1, 10_001)
    v = b.vectors
    grid = min(relative_entropy(psi.density().mat, (v * np.array([q, 1 - q])) @ v.conj().T)
               for q in qs[1:-1])
    assert abs(rep.value - grid) < 1e-4
    assert is_free(rep.certificate, b, 1e-6) is True


def test_rel_entropy_zero_on_every_single_basis_state():
    # a free pure state is its own closest free state; draw 620 (d = 3, k = 0)
    # once stopped at 0.117 when a drop step gained almost nothing
    rng = make_rng(9)
    for _ in range(1500):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        k = int(rng.integers(d))
        assert rel_entropy_measure(PureState(b.state(k)).density(), b).value <= 1e-6


def brent_frank_wolfe(rho, basis, tol=1e-9, max_iter=10_000) -> float:
    """The earlier Frank-Wolfe loop: bounded Brent on the objective for every step."""
    rho_entropy = _entropy_terms(rho.mat)
    q = np.full(basis.d, 1.0 / basis.d)

    def objective(qv):
        return rho_entropy + _cross_entropy(rho.mat, _mixture(basis, qv))

    value = objective(q)
    for _ in range(max_iter):
        grad = _rel_ent_terms(rho.mat, basis, q)[1]
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
            direction, gamma_max = fw_direction, 1.0
        res = minimize_scalar(lambda g: objective(q + g * direction), bounds=(0.0, gamma_max),
                              method="bounded", options={"xatol": 1e-14, "maxiter": 80})
        new_q = np.clip(q + float(res.x) * direction, 0.0, None)
        new_q /= new_q.sum()
        new_value = objective(new_q)
        if new_value > value:
            new_q, new_value = q, value
        q, improvement, value = new_q, value - new_value, new_value
        if improvement < tol:
            return max(value, 0.0)
    raise AssertionError("oracle did not converge")


def test_rel_entropy_never_above_brent_oracle():
    rng = make_rng(606)
    for d in range(2, 9):
        for j in range(9):
            b = random_basis(d, rng)
            if j % 3 == 0:
                rho = haar_state(d, rng).density()
            elif j % 3 == 1:
                rho = random_density(d, rng)
            else:
                w = float(rng.random())
                rho = DensityMatrix(w * haar_state(d, rng).density().mat
                                    + (1 - w) * random_density(d, rng).mat)
            rep = rel_entropy_measure(rho, b)
            oracle = brent_frank_wolfe(rho, b)
            assert rep.value <= oracle + 1e-9
            # the reported Frank-Wolfe gap bounds value - minimum <= value - oracle
            assert rep.value - oracle <= rep.extra["fw_gap"] + 1e-12


def test_rel_entropy_certifies_at_tol():
    # every returned value carries a Frank-Wolfe gap of at most tol, on the
    # state classes of criterion 10 (pure, mixed, S2b outcomes, S3 mixtures)
    rng = make_rng(611)
    tol = 1e-9
    for d in range(2, 9):
        for j in range(8):
            b = random_basis(d, rng)
            if j % 4 == 0:
                rho = haar_state(d, rng).density()
            elif j % 4 == 1:
                rho = random_density(d, rng)
            elif j % 4 == 2:
                w = float(rng.random())
                rho = DensityMatrix(w * haar_state(d, rng).density().mat
                                    + (1 - w) * random_density(d, rng).mat)
            else:
                ch = free_channel(random_subnormalized_free_ops(b, rng, n_ops=2), b)
                outcomes = measure_selective(ch, random_density(d, rng))
                rho = outcomes[int(rng.integers(len(outcomes)))][1]
            rep = rel_entropy_measure(rho, b, tol=tol)
            assert 0.0 <= rep.extra["fw_gap"] <= tol, (d, j, rep.extra["fw_gap"])
            assert abs(rep.extra["weights"].sum() - 1.0) <= 1e-12
            assert rep.extra["weights"].min() >= 0.0


def two_log_rel_ent_terms(rho_mat, basis, q):
    """The kernel as it was before it took ln w once: the cross entropy from
    ``_cross_entropy_eig`` at every support, then ln w again for the Loewner matrix."""
    w, u = np.linalg.eigh(_mixture(basis, q))
    uh = u.conj().T
    rho_eig = uh @ rho_mat @ u
    value = _cross_entropy_eig(w, rho_eig)
    full = w[0] > 1e-15
    if not full:
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


def test_rel_ent_terms_match_the_two_log_kernel_bit_for_bit():
    # at full support the cross entropy is -diag(rho~).ln w with the logs the
    # Loewner matrix uses; off it _cross_entropy_eig still decides. Drawn at
    # d = 2..8: full-rank and rank-deficient rho, with q interior, q with zero
    # weights (sigma off full support) and q one-hot
    rng = make_rng(1931)
    partial = 0
    for d in range(2, 9):
        for j in range(30):
            b = random_basis(d, rng)
            rho = random_density(d, rng, rank=None if j % 2 else int(rng.integers(1, d)))
            q = rng.dirichlet(np.ones(d))
            if j % 3 == 1:
                q[rng.permutation(d)[: int(rng.integers(1, d))]] = 0.0
            elif j % 3 == 2:
                q = np.eye(d)[int(rng.integers(d))]
            q /= q.sum()
            got, want = _rel_ent_terms(rho.mat, b, q), two_log_rel_ent_terms(rho.mat, b, q)
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), (d, j)
            assert got[1].tobytes() == want[1].tobytes(), (d, j)
            assert (got[2] is None) == (want[2] is None), (d, j)
            partial += want[2] is None
            for g, w in zip(got[2] or (), want[2] or (), strict=True):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (d, j)
    assert 50 <= partial <= 160, partial


def test_a_free_state_is_expanded_once(monkeypatch):
    # the freeness test and the start weights share one W'rho W, wherever it is called from
    calls = []
    expansion = measures.free_expansion
    for module in (measures, states):
        monkeypatch.setattr(module, "free_expansion", lambda *args: calls.append(1) or expansion(*args))
    b = qubit_free_basis(0.6)
    rep = rel_entropy_measure(free_mixture(b, [0.3, 0.7]), b)
    assert len(calls) == 1 and rep.value < 1e-8


def plain_rel_ent_terms(rho_mat, basis, q):
    """The earlier kernel: the gradient through T = U(L o rho~)U' and a three-operand einsum."""
    w, u = np.linalg.eigh(_mixture(basis, q))
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


def plain_multiplicative_update(rho, basis, tol=1e-9, max_iter=10_000) -> float:
    """The earlier loop: q <- q * -grad until the Frank-Wolfe gap is at most tol."""
    if is_free(rho, basis):
        q = np.clip(np.diag(free_expansion(rho, basis)).real, 0.0, None)
        q /= q.sum()
    else:
        q = np.full(basis.d, 1.0 / basis.d)
    for _ in range(max_iter):
        cross, grad = plain_rel_ent_terms(rho.mat, basis, q)
        if grad @ q - grad.min() <= tol:
            return max(_entropy_terms(rho.mat) + cross, 0.0)
        q = q * -grad
        q /= q.sum()
    raise AssertionError("oracle did not converge")


def test_rel_entropy_matches_plain_update():
    # the loop of plain updates and Newton steps and the plain update alone
    # both stop within tol of the minimum, on pure, mixed, S3 and S2b states at
    # d = 2..8
    rng = make_rng(1919)
    tol = 1e-9
    for d in range(2, 9):
        for j in range(8):
            b = random_basis(d, rng)
            if j % 4 == 0:
                rho = haar_state(d, rng).density()
            elif j % 4 == 1:
                rho = random_density(d, rng)
            elif j % 4 == 2:
                w = float(rng.random())
                rho = DensityMatrix(w * haar_state(d, rng).density().mat
                                    + (1 - w) * random_density(d, rng).mat)
            else:
                ch = free_channel(random_subnormalized_free_ops(b, rng, n_ops=2), b)
                outcomes = measure_selective(ch, random_density(d, rng))
                rho = outcomes[int(rng.integers(len(outcomes)))][1]
            rep = rel_entropy_measure(rho, b, tol=tol)
            oracle = plain_multiplicative_update(rho, b, tol=tol)
            assert abs(rep.value - oracle) <= tol + 1e-12, (d, j, rep.value - oracle)
            assert 0.0 <= rep.extra["fw_gap"] <= tol, (d, j, rep.extra["fw_gap"])
            assert rep.extra["weights"].min() >= 0.0
            assert abs(rep.extra["weights"].sum() - 1.0) <= 1e-12


def s2b_draws() -> list:
    """300 (basis, free operators, state, outcome) draws at d = 2..4, in draw order (seed 2027).

    Each outcome is one selective outcome, drawn at random, of the random free
    channel of the 2 operators and their completion on a Haar state (even
    draws) or a Ginibre state (odd draws).
    """
    rng = make_rng(2027)
    out = []
    for draw in range(300):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        ops = random_subnormalized_free_ops(b, rng, n_ops=2)
        rho = haar_state(d, rng).density() if draw % 2 == 0 else random_density(d, rng)
        outcomes = measure_selective(free_channel(ops, b), rho)
        out.append((b, ops, rho, outcomes[int(rng.integers(len(outcomes)))][1]))
    return out


def s2b_outcomes() -> list:
    """The (basis, outcome) pairs of ``s2b_draws``."""
    return [(b, outcome) for b, _, _, outcome in s2b_draws()]


def test_rel_entropy_tail_of_s2b_outcomes():
    # outcomes of random free channels at d = 2..4, where weights decay to a
    # face of the simplex: draw 148 (d = 4) took 4,022 evaluations under the
    # plain update alone; with Newton steps on the face after every two plain
    # updates the largest count is 18
    evaluations = []
    for b, rho in s2b_outcomes():
        rep = rel_entropy_measure(rho, b)
        assert rep.extra["fw_gap"] <= 1e-9
        evaluations.append(rep.extra["evaluations"])
    assert max(evaluations) <= 40, (int(np.argmax(evaluations)), max(evaluations))


def test_rel_entropy_reports_every_evaluation(monkeypatch):
    # extra["evaluations"] counts the _rel_ent_terms calls, Newton trial points
    # included, and extra["newton_steps"] the Newton steps tried
    calls = []
    terms = _rel_ent_terms

    def counted(*args):
        calls.append(1)
        return terms(*args)

    monkeypatch.setattr("superpos.measures._rel_ent_terms", counted)
    rng = make_rng(2029)
    newton_steps = 0
    for d in (2, 3, 4, 8):
        b = random_basis(d, rng)
        for rho in (random_density(d, rng), haar_state(d, rng).density(), random_free_state(b, rng)):
            calls.clear()
            rep = rel_entropy_measure(rho, b)
            assert rep.extra["evaluations"] == len(calls)
            assert 0 <= rep.extra["newton_steps"] < len(calls)
            newton_steps += rep.extra["newton_steps"]
    assert newton_steps > 0


def test_rel_entropy_hessian_matches_central_differences():
    # the Daleckii-Krein Hessian against central differences (step 1e-6) of the
    # gradient, on a full-rank sigma of a random basis
    rng = make_rng(2031)
    for d in (2, 4, 8):
        b = random_basis(d, rng)
        rho = random_density(d, rng)
        q = rng.dirichlet(np.ones(d))
        _, _, parts = _rel_ent_terms(rho.mat, b, q)
        hess = _rel_ent_hessian(*parts)
        step = 1e-6 * np.eye(d)
        central = np.array([(_rel_ent_terms(rho.mat, b, q + e)[1] - _rel_ent_terms(rho.mat, b, q - e)[1])
                            for e in step]) / 2e-6
        assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
        assert np.abs(hess - central).max() <= 1e-6 * np.abs(hess).max(), d
        # -tr rho ln sigma(q) is convex in q
        assert np.linalg.eigvalsh(hess)[0] >= -1e-9 * np.abs(hess).max()


def test_rel_entropy_hessian_is_none_off_full_support():
    # sigma of a weight vector with a zero weight is singular: no Newton step there
    b = random_basis(3, make_rng(2033))
    _, _, parts = _rel_ent_terms(np.eye(3) / 3, b, np.array([0.5, 0.5, 0.0]))
    assert parts is None
    assert _newton_point(np.array([0.5, 0.5, 0.0]), np.zeros(3), None, 1e-9) is None


def test_import_leaves_scipy_optimize_out():
    # SciPy is blocked before the import: the library and both SDP shapes,
    # a conversion (solve_lmi) and a d = 3 mixed-state cover (solve_cover,
    # called directly, since robustness certifies this state by its phase
    # step), run on numpy alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np",
        "import superpos",
        "from superpos.basis import symmetric_basis_d3",
        "from superpos.measures import robustness",
        "from superpos.sampling import make_rng, random_density",
        "from superpos.sdp import solve_cover",
        "from superpos.states import PureState, free_expansion",
        "from superpos.transform import candidate_states_d3, max_conversion_prob",
        "b = symmetric_basis_d3()",
        "target = PureState(np.array([1, 0, 0], dtype=complex))",
        "print(repr(max_conversion_prob(candidate_states_d3()[0], target, b).primal))",
        "rho = random_density(3, make_rng(606))",
        "rep = robustness(rho, b)",
        "cover = solve_cover(free_expansion(rho, b))",
        "print(rep.extra['method'], repr(rep.value + 1.0 - cover.primal))",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    primal, method, diff = proc.stdout.split()
    assert abs(float(primal) - 4 / 7) <= 1e-7 and method == "phase" and abs(float(diff)) <= 1e-8


def test_rank_measure_examples():
    b = symmetric_basis_d3()
    assert rank_measure(PureState(b.state(0)), b).value == 0.0
    target = PureState(np.array([1, 0, 0], dtype=complex))
    assert abs(rank_measure(target, b).value - np.log(3)) < 1e-12
    mixed = free_mixture(b, [0.5, 0.5, 0.0])
    rep = rank_measure(mixed, b)
    assert rep.value == 0.0
    assert not rep.upper_bound


def test_rank_measure_mixed_upper_bound():
    rng = make_rng(602)
    b = qubit_free_basis(0.4)
    rho = random_density(2, rng)
    rep = rank_measure(rho, b)
    assert rep.upper_bound
    assert 0.0 <= rep.value <= np.log(2) + 1e-12


def _reshuffling_oracle(rho, basis, mixings=1000, rng_seed=7):
    """The search rank_measure once ran on mixed states: the least average log-rank
    over the eigendecomposition rows sqrt(lam) psi and ``mixings`` Haar-random
    reshufflings U (sqrt(lam) psi) of them. Same seed, draws, QR and rank rule as
    that search; its per-row loop is evaluated here for all reshufflings at once.
    """
    decomp = eigen_decomposition(rho)
    weights = np.array([lam for lam, _ in decomp])
    vectors = np.stack([np.sqrt(lam) * psi.amp for lam, psi in decomp])
    m = len(decomp)
    best = float(np.sum(weights * [np.log(superposition_rank(psi, basis)) for _, psi in decomp]))
    z = make_rng(rng_seed).normal(size=(mixings, 2, m, m))
    u, _ = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2))
    rows = u @ vectors
    p = np.linalg.norm(rows, axis=2) ** 2
    coeffs = np.abs(rows @ basis.reciprocal.conj())
    ranks = np.sum(coeffs > RANK_TOL * coeffs.max(axis=2, keepdims=True), axis=2)
    values = np.where(p > 1e-12, p * np.log(np.maximum(ranks, 1)), 0.0).sum(axis=1)
    return max(min(best, float(values.min())), 0.0)


def _low_rank_pure(basis, k, rng):
    """Random pure state on k randomly chosen free states (superposition rank k)."""
    labels = rng.choice(basis.d, size=k, replace=False)
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    return PureState.normalized(basis.vectors[:, labels] @ coeffs).amp


def test_rank_measure_matches_reshuffling_oracle():
    # generic and rank-deficient spectra, mixtures of low-superposition-rank
    # pure states, and degenerate spectra (a pure state plus white noise, the
    # flat state on the span of two low-rank pure states)
    rng = make_rng(611)
    checked = 0
    for d in range(2, 7):
        basis = random_basis(d, rng)
        for case in range(48):
            kind = case % 4
            k = int(rng.integers(1, max(d - 1, 2) + 1))
            if kind == 0:
                mat = random_density(d, rng, rank=int(rng.integers(2, d + 1))).mat
            elif kind == 1:
                vecs = [_low_rank_pure(basis, k, rng) for _ in range(int(rng.integers(2, 4)))]
                weights = rng.dirichlet(np.ones(len(vecs)))
                mat = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
            elif kind == 2:
                v, p = _low_rank_pure(basis, k, rng), rng.uniform(0.2, 0.9)
                mat = (1 - p) * np.eye(d) / d + p * np.outer(v, v.conj())
            else:
                q, _ = np.linalg.qr(np.column_stack([_low_rank_pure(basis, k, rng) for _ in range(2)]))
                mat = q @ q.conj().T / 2
            rho = DensityMatrix(mat)
            if is_free(rho, basis):
                continue
            value, oracle = rank_measure(rho, basis).value, _reshuffling_oracle(rho, basis)
            assert oracle - 1e-12 <= value <= oracle + 1e-12
            checked += 1
    assert checked >= 200


def entropy(mat_or_probs) -> float:
    """von Neumann entropy (nats) of a density matrix, or Shannon entropy of a distribution."""
    w = np.linalg.eigvalsh(mat_or_probs) if np.ndim(mat_or_probs) == 2 else np.asarray(mat_or_probs)
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def test_coherence_limit_closed_forms():
    # on an orthonormal basis U, the relative entropy of coherence is S(diag U'rho U) - S(rho),
    # and the robustness is sum |C_ij| - 1 with C = U'rho U on pure states and at d = 2
    # (Napoli et al., PRL 116, 150502, 2016)
    rng = make_rng(31337)
    for d in range(2, 9):
        for b in (orthonormal_basis(d), FreeBasis(haar_unitary(d, rng))):
            cases = ((random_density(d, rng), False), (random_density(d, rng, rank=2), False),
                     (haar_state(d, rng).density(), True))
            for rho, pure in cases:
                c = dagger(b.vectors) @ rho.mat @ b.vectors
                rep = rel_entropy_measure(rho, b)
                assert abs(rep.value - (entropy(np.diag(c).real) - entropy(rho.mat))) <= rep.extra["fw_gap"] + 1e-12
                if pure or d == 2:
                    assert abs(robustness(rho, b).value - (np.abs(c).sum() - 1)) <= 1e-12


def test_robustness_examples():
    b = qubit_free_basis(0.5)
    assert robustness(free_mixture(b, [0.2, 0.8]), b).value < 1e-6
    b0 = orthonormal_basis(2)
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    rep = robustness(plus.density(), b0)
    assert abs(rep.value - 1.0) < 1e-6
    cert = rep.certificate
    assert is_free(cert["delta"], b0, 1e-6)
    # the witness reconstructs the state: rho = (1+s) delta - s tau
    recon = (1 + cert["s"]) * cert["delta"].mat - cert["s"] * cert["tau"].mat
    assert np.abs(recon - plus.density().mat).max() < 1e-4


def basis_near_dependent(d, rng):
    """Random basis with sigma_min in [0.1, 0.15), the floor random_basis allows."""
    while True:
        b = random_basis(d, rng)
        if b.sigma_min < 0.15:
            return b


def test_robustness_closed_form_matches_sdp():
    rng = make_rng(607)
    mixed_rng = make_rng(617)
    for d in (2, 3, 4, 8):
        for make in (lambda: random_basis(d, rng), lambda: orthonormal_basis(d),
                     lambda: basis_near_dependent(d, rng)):
            for j in range(4):
                b = make()
                psi = haar_state(d, rng) if j % 2 == 0 else PureState(b.state(int(rng.integers(d))))
                rhos = [psi.density()]
                if d == 2:   # every qubit state: free, Ginibre, rank-deficient, pure + mixed
                    t = mixed_rng.random()
                    rhos += [random_free_state(b, mixed_rng), random_density(2, mixed_rng),
                             random_density(2, mixed_rng, rank=1),
                             DensityMatrix(t * haar_state(2, mixed_rng).density().mat
                                           + (1 - t) * random_density(2, mixed_rng).mat)]
                else:   # C = W' rho W is diagonal for a free rho, where the closed form is exact
                    rhos.append(random_free_state(b, mixed_rng))
                for rho in rhos:
                    rep = robustness(rho, b)
                    assert rep.extra["method"] == "closed_form"
                    assert 0.0 <= rep.extra["gap"] <= 1e-8
                    coeffs = free_expansion(rho, b)
                    sol = solve_cover(coeffs)
                    # the SDP brackets the optimum between its dual and primal values
                    assert sol.dual - 1e-12 <= rep.value + 1.0 <= sol.primal + 1e-12
                    assert abs(rep.value - (sol.primal - 1.0)) <= 1e-8
                    # the closed-form dual passes the checks every solve_cover dual passes
                    _, cover = _phase_cover(coeffs, 1e-8)
                    # the certified primal is sum_j |C_ij| itself, bit for bit
                    assert np.array_equal(cover.p, np.abs(coeffs).sum(axis=1))
                    y = cover.dual_matrix
                    assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9
                    assert np.diag(y).real.max() <= 1 + 1e-9
                    assert abs(cover.dual - np.trace(coeffs @ y).real) <= 1e-12
                    if b.sigma_min == 1.0:
                        assert abs(rep.value - l1_measure(rho, b).value) <= 1e-9
                    cert = rep.certificate
                    if cert["tau"] is not None:
                        s = cert["s"]
                        resid = rho.mat + s * cert["tau"].mat - (1 + s) * cert["delta"].mat
                        assert np.abs(resid).max() <= 1e-8 * (1 + s)


@functools.cache
def near_dependent_batch(eps: float = 1e-2, free: bool = False) -> list:
    """60 (basis, Ginibre state) draws, 10 at each d = 3..8, in draw order (seed 77).

    Column 0 of a ``random_basis`` is replaced by column 1 plus eps times a
    complex Gaussian and normalised, so sigma_min falls to ~eps (median 8e-3
    at eps = 1e-2) and R + 1 grows like 1/sigma_min^2. With ``free`` each
    state is a free mixture with Dirichlet(1) weights instead.
    """
    rng = make_rng(77)
    out = []
    for d in range(3, 9):
        for _ in range(10):
            v = random_basis(d, rng).vectors.copy()
            v[:, 0] = v[:, 1] + eps * (rng.normal(size=d) + 1j * rng.normal(size=d))
            v[:, 0] /= np.linalg.norm(v[:, 0])
            b = new_free_basis(list(v.T))
            out.append((b, free_mixture(b, rng.dirichlet(np.ones(d))) if free else random_density(d, rng)))
    return out


@pytest.mark.parametrize("draw", range(60))
def test_robustness_certifies_near_dependent_bases(draw):
    # every draw, in order; solved over the rank-one |c_i><c_i| in place of the
    # free frame's unit projectors, none of these 60 certifies
    b, rho = near_dependent_batch()[draw]
    rep = robustness(rho, b)
    assert 0.0 <= rep.extra["gap"] <= 1e-8, rep.extra["gap"]
    cert = rep.certificate
    s, tau = cert["s"], cert["tau"]
    resid = rho.mat + s * (0.0 if tau is None else tau.mat) - (1 + s) * cert["delta"].mat
    assert np.abs(resid).max() <= 1e-8 * (1 + s), (b.sigma_min, s)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_robustness_certifies_free_mixtures_on_near_dependent_bases(eps):
    # C = W' rho W of a free mixture is diagonal up to rounding of order
    # u / sigma_min^2, and its anti-Hermitian part grows with it: 3, 43 and 47
    # of these 60 draws used to raise NonHermitian from solve_cover's input
    # check on C; free_expansion returns C's Hermitian part, which certifies
    methods = []
    for b, rho in near_dependent_batch(eps, free=True):
        rep = robustness(rho, b)
        assert 0.0 <= rep.extra["gap"] <= 1e-8, (b.d, b.sigma_min, rep.extra["gap"])
        methods.append(rep.extra["method"])
    assert "sdp" in methods


def test_rel_entropy_certifies_near_dependent_bases():
    # the 60 eps = 1e-2 draws: two plain updates, then Newton steps, take at
    # most 6 evaluations on them and agree with the plain update alone to tol
    evaluations = []
    for b, rho in near_dependent_batch():
        rep = rel_entropy_measure(rho, b, tol=1e-9)
        assert 0.0 <= rep.extra["fw_gap"] <= 1e-9, b.sigma_min
        assert rep.extra["weights"].min() > 0.0
        assert abs(rep.value - plain_multiplicative_update(rho, b, tol=1e-9)) <= 1e-9 + 1e-12
        evaluations.append(rep.extra["evaluations"])
    assert max(evaluations) <= 15, (int(np.argmax(evaluations)), max(evaluations))


def test_rel_entropy_certifies_eps_1e3_bases():
    # the 60 eps = 1e-3 draws certify with every weight positive, in at most
    # 273 evaluations (draw 51). Values are not compared with the plain
    # update: sigma(q)'s smallest eigenvalue falls to ~max q sigma_min^2, so
    # the gradient carries fewer digits than tol asks for
    evaluations = []
    for b, rho in near_dependent_batch(1e-3):
        rep = rel_entropy_measure(rho, b, tol=1e-9)
        assert 0.0 <= rep.extra["fw_gap"] <= 1e-9, b.sigma_min
        assert rep.extra["weights"].min() > 0.0
        evaluations.append(rep.extra["evaluations"])
    assert max(evaluations) <= 500, (int(np.argmax(evaluations)), max(evaluations))


def test_robustness_mixed_state_uses_phase():
    rng = make_rng(608)
    b = random_basis(3, rng)
    rep = robustness(random_density(3, rng), b)
    assert rep.extra["method"] == "phase"
    assert rep.extra["gap"] <= 1e-8


def test_robustness_mixed_state_uses_sdp():
    # on this orthonormal d = 8 Ginibre state the phase iteration settles on a
    # fixed point where diag|Cy| - C has a negative eigenvalue (-2.8e-2), a
    # rank-one dual that is not optimal, so the cover goes to solve_cover
    b = orthonormal_basis(8)
    rho = random_density(8, make_rng(806))
    coeffs = free_expansion(rho, b)
    assert _phase_cover(coeffs, 1e-8) is None
    rep = robustness(rho, b)
    assert rep.extra["method"] == "sdp"
    assert rep.extra["gap"] <= 1e-8


@pytest.mark.parametrize("free", [False, True])
def test_free_expansion_is_exactly_hermitian_on_near_dependent_bases(free):
    # W' rho W carries a rounding asymmetry, up to 2.5e-7 ||C|| on these free
    # mixtures and 3e-16 ||C|| on the Ginibre states, above solve_cover's
    # Hermitian check on 7 of the former; the free frame drops it where it is formed
    for b, rho in near_dependent_batch(1e-4, free):
        c = free_expansion(rho, b)
        assert np.array_equal(c, c.conj().T)


@pytest.mark.parametrize("case", ["orthonormal d = 8", "eps = 1e-4 draw 30"])
def test_robustness_covers_the_free_expansion_itself(case, monkeypatch):
    # both reach the SDP, the second after the bracket stalls on a nearly
    # dependent basis: the bracket and the cover read one and the same C
    if case == "orthonormal d = 8":
        b, rho = orthonormal_basis(8), random_density(8, make_rng(806))
    else:
        b, rho = near_dependent_batch(1e-4)[30]
    seen = []

    def recording_cover(coeffs, gap_tol):
        seen.append(coeffs)
        return solve_cover(coeffs, gap_tol=gap_tol)

    monkeypatch.setattr("superpos.measures.solve_cover", recording_cover)
    assert robustness(rho, b).extra["method"] == "sdp"
    assert len(seen) == 1 and np.array_equal(seen[0], free_expansion(rho, b))


def test_phase_cover_certificates_check_independently():
    # random, orthonormal and eps = 1e-2 near-dependent bases at d = 3..8:
    # every pair the phase step returns is rebuilt from its x and Y and
    # checked here, and its value is within gap_tol of solve_cover's
    rng, gap_tol, certified = make_rng(626), 1e-8, 0
    for d in range(3, 9):
        for kind in ("random", "orthonormal", "near"):
            for _ in range(4):
                if kind == "orthonormal":
                    b = orthonormal_basis(d)
                else:
                    v = random_basis(d, rng).vectors.copy()
                    if kind == "near":
                        v[:, 0] = v[:, 1] + 1e-2 * (rng.normal(size=d) + 1j * rng.normal(size=d))
                        v[:, 0] /= np.linalg.norm(v[:, 0])
                    b = new_free_basis(list(v.T))
                coeffs = free_expansion(random_density(d, rng), b)
                cover = _phase_cover(coeffs, gap_tol)
                if cover is None:
                    continue
                method, sol = cover
                assert method == "phase"
                certified += 1
                y = sol.dual_matrix[:, 0]
                assert np.abs(np.abs(y) - 1.0).max() <= 1e-12
                assert np.allclose(sol.dual_matrix, np.outer(y, y.conj()), rtol=0, atol=1e-12)
                assert abs(sol.dual - (y.conj() @ coeffs @ y).real) <= 1e-9 * max(1.0, sol.dual)
                x = sol.p
                assert sol.primal == float(x.sum())
                np.linalg.cholesky(np.diag(x) - coeffs)
                assert 0.0 <= sol.primal - sol.dual <= gap_tol and sol.gap <= gap_tol
                ref = solve_cover(coeffs, gap_tol=gap_tol)
                assert abs(sol.primal - ref.primal) <= gap_tol
    assert certified >= 60, certified


def test_robustness_honours_a_loose_gap_tol():
    # the caller's gap_tol is the only tolerance: a loose one returns a value
    # certified to it, within gap_tol of the tightly solved optimum
    rng = make_rng(609)
    for d in (2, 3, 4):
        for _ in range(5):
            b = random_basis(d, rng)
            rho = random_density(d, rng)
            loose = robustness(rho, b, gap_tol=1e-4)
            assert 0.0 <= loose.extra["gap"] <= 1e-4, (d, loose.extra["gap"])
            assert abs(loose.value - robustness(rho, b).value) <= 1e-4 + 1e-8


def robustness_grid_oracle(rho: DensityMatrix, basis, n: int = 200_001) -> float:
    """Qubit grid oracle: scan x1, resolve the minimal feasible x2 exactly.

    Both constraint matrices are rank one, so det(x1 B1 + x2 B2 - rho) is
    linear in x2 and the PSD boundary solves in closed form per grid point.
    """
    v = basis.vectors
    b1 = np.outer(v[:, 0], v[:, 0].conj())
    b2 = np.outer(v[:, 1], v[:, 1].conj())
    x1 = np.linspace(0.0, 2.5, n)
    c = x1[:, None, None] * b1 - rho.mat
    det0 = (c[:, 0, 0] * c[:, 1, 1] - np.abs(c[:, 0, 1]) ** 2).real
    c_plus = c + b2
    det1 = (c_plus[:, 0, 0] * c_plus[:, 1, 1] - np.abs(c_plus[:, 0, 1]) ** 2).real
    slope = det1 - det0
    diag_bound = np.maximum(-c[:, 0, 0].real / b2[0, 0].real,
                            -c[:, 1, 1].real / b2[1, 1].real)
    x2 = np.maximum(diag_bound, 0.0)
    need_more = det0 + slope * x2 < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        boundary = -det0 / slope
    feasible = ~need_more | (slope > 0)
    x2 = np.where(need_more & (slope > 0), np.maximum(x2, boundary), x2)
    totals = np.where(feasible, x1 + x2, np.inf)
    return float(totals.min() - 1.0)


def test_robustness_grid_oracle_overlapping_qubit():
    b = qubit_free_basis(0.5)
    psi = PureState.normalized(b.state(0) + b.state(1))
    rep = robustness(psi.density(), b)
    oracle = robustness_grid_oracle(psi.density(), b)
    assert abs(rep.value - oracle) < 1e-5


def test_faithfulness_both_directions():
    rng = make_rng(603)
    for _ in range(40):
        d = int(rng.integers(2, 4))
        b = random_basis(d, rng)
        free = random_free_state(b, rng)
        assert l1_measure(free, b).value <= 1e-6
        assert rel_entropy_measure(free, b).value <= 1e-6
        assert robustness(free, b).value <= 1e-6
        psi = sample_resourceful_pure(b, rng)
        assert l1_measure(psi.density(), b).value > 1e-4
        assert rel_entropy_measure(psi.density(), b).value > 1e-4
        assert robustness(psi.density(), b).value > 1e-4
        assert rank_measure(psi, b).value > 1e-4


def test_monotonicity_on_average_sampled():
    rng = make_rng(604)
    for _ in range(60):
        d = int(rng.integers(2, 4))
        b = random_basis(d, rng)
        ch = free_channel(random_subnormalized_free_ops(b, rng, n_ops=2), b)
        rho = haar_state(d, rng).density() if rng.random() < 0.5 else random_density(d, rng)
        outcomes = measure_selective(ch, rho)
        for measure in (l1_measure, rel_entropy_measure, robustness):
            before = measure(rho, b).value
            after = sum(p * measure(out, b).value for p, out in outcomes)
            assert after <= before + 1e-6


def test_convexity_sampled():
    rng = make_rng(605)
    for _ in range(60):
        d = int(rng.integers(2, 4))
        b = random_basis(d, rng)
        rho1 = haar_state(d, rng).density()
        rho2 = random_density(d, rng)
        w = float(rng.random())
        mix = DensityMatrix(w * rho1.mat + (1 - w) * rho2.mat)
        for measure in (l1_measure, rel_entropy_measure, robustness):
            lhs = measure(mix, b).value
            rhs = w * measure(rho1, b).value + (1 - w) * measure(rho2, b).value
            assert lhs <= rhs + 1e-6


def test_reports_carry_convention():
    b = orthonormal_basis(2)
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    assert rel_entropy_measure(plus.density(), b).convention == "nat"
    assert rank_measure(plus, b).convention == "nat"


@functools.cache
def certificate_corpus() -> list:
    """(basis, state) draws: at each d = 2..8 three Haar pure states, three Ginibre
    states and three free mixtures on random bases (seed 4801), then the 300
    ``s2b_outcomes``."""
    rng = make_rng(4801)
    out = []
    for d in range(2, 9):
        for _ in range(3):
            b = random_basis(d, rng)
            out += [(b, haar_state(d, rng).density()), (b, random_density(d, rng)),
                    (b, random_free_state(b, rng))]
    return out + s2b_outcomes()


def eager_certificates(rho, b, rob, rel):
    """The certificates as the measures built them eagerly, from the reports' own weights."""
    sigma = free_mixture(b, rel.extra["weights"])
    s, x = rob.value, rob.extra["weights"]
    delta, tau = free_mixture(b, x / x.sum()), None
    if s > 1e-10:
        excess = psd_part((1.0 + s) * delta.mat - rho.mat)
        tau = DensityMatrix(excess / np.trace(excess).real)
    return sigma, {"s": s, "delta": delta, "tau": tau}


def assert_same_certificates(rob_cert, sigma, expected):
    """Bit equality of a robustness certificate and sigma with the eager ones."""
    assert sigma.mat.tobytes() == expected[0].mat.tobytes()
    assert rob_cert["s"] == expected[1]["s"]
    assert rob_cert["delta"].mat.tobytes() == expected[1]["delta"].mat.tobytes()
    assert (rob_cert["tau"] is None) == (expected[1]["tau"] is None)
    if rob_cert["tau"] is not None:
        assert rob_cert["tau"].mat.tobytes() == expected[1]["tau"].mat.tobytes()


def test_value_only_measures_build_no_density_matrix(monkeypatch):
    # a report builds its certificate on the first read of .certificate and
    # keeps it: a caller that reads only .value builds no DensityMatrix
    built = []
    post_init = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: built.append(1) or post_init(self))
    witnessed = 0
    for b, rho in certificate_corpus()[:63]:
        built.clear()
        rob, rel = robustness(rho, b), rel_entropy_measure(rho, b)
        assert built == []
        cert, sigma = rob.certificate, rel.certificate
        assert len(built) == 2 + (cert["tau"] is not None)
        assert rob.certificate is cert and rel.certificate is sigma
        assert len(built) == 2 + (cert["tau"] is not None)
        witnessed += cert["tau"] is not None
    assert witnessed >= 40


def test_read_certificates_match_the_eager_ones():
    # every read sigma, delta, tau and s is bit-identical to the expressions
    # the measures evaluated before the certificate was built on first read
    checked = 0
    for b, rho in certificate_corpus():
        try:
            rob = robustness(rho, b)
        except NoConvergence:
            continue
        rel = rel_entropy_measure(rho, b)
        assert_same_certificates(rob.certificate, rel.certificate, eager_certificates(rho, b, rob, rel))
        checked += 1
    assert checked >= 350, checked


def test_writing_into_the_weights_leaves_an_unread_certificate_unchanged():
    # extra["weights"] is the caller's to change: the builder keeps its own copy
    for b, rho in certificate_corpus()[:63]:
        rob, rel = robustness(rho, b), rel_entropy_measure(rho, b)
        expected = eager_certificates(rho, b, rob, rel)
        for rep in (rob, rel):
            rep.extra["weights"][:] = rep.extra["weights"][::-1] * 2.0
        assert_same_certificates(rob.certificate, rel.certificate, expected)


@pytest.mark.parametrize("clone", [lambda rep: pickle.loads(pickle.dumps(rep)), copy.copy],
                         ids=["pickle", "copy"])
def test_an_unread_certificate_survives_pickle_and_copy(clone):
    # the builder is a partial of module-level functions, so a report pickles
    # before its certificate is read; the clone builds the original's certificate
    for b, rho in certificate_corpus()[:63:4]:
        rob, rel = robustness(rho, b), rel_entropy_measure(rho, b)
        rob_clone, rel_clone = clone(rob), clone(rel)
        assert (rob_clone.value, rel_clone.value) == (rob.value, rel.value)
        assert_same_certificates(rob_clone.certificate, rel_clone.certificate, (rel.certificate, rob.certificate))


def test_rel_entropy_update_cap_raises(monkeypatch):
    rng = make_rng(608)
    b = random_basis(3, rng)
    rho = random_density(3, rng)
    assert not is_free(rho, b)
    monkeypatch.setattr("superpos.measures._MAX_FW_ITER", 1)
    with pytest.raises(NoConvergence, match="after 1 updates"):
        rel_entropy_measure(rho, b)


def test_newton_steps_count_toward_the_update_cap(monkeypatch):
    # this state takes two plain updates and then only kept Newton steps (5
    # evaluations: the start, 2 updates and 2 Newton steps), so the cap counts
    # 2 + newton_steps updates
    rng = make_rng(608)
    b = random_basis(3, rng)
    rho = random_density(3, rng)
    rep = rel_entropy_measure(rho, b)
    steps = rep.extra["newton_steps"]
    assert steps >= 1 and rep.extra["evaluations"] - steps <= 4
    monkeypatch.setattr("superpos.measures._MAX_FW_ITER", 2 + steps)
    assert rel_entropy_measure(rho, b).value == rep.value
    monkeypatch.setattr("superpos.measures._MAX_FW_ITER", 1 + steps)
    with pytest.raises(NoConvergence, match=f"after {1 + steps} updates"):
        rel_entropy_measure(rho, b)


def test_newton_point_is_none_when_the_solve_fails():
    # a zero Hessian leaves the bordered system singular
    parts = (np.ones(2), np.ones((2, 2)), np.zeros((2, 2)), np.eye(2))
    assert _newton_point(np.array([0.5, 0.5]), np.array([-1.0, -1.0]), parts, 1e-9) is None


def test_rel_entropy_falls_back_to_plain_updates(monkeypatch):
    # with no Newton point the loop goes back to two plain updates each time
    # and still certifies, near the value that the Newton steps reach
    rng = make_rng(608)
    b = random_basis(3, rng)
    rho = random_density(3, rng)
    rep = rel_entropy_measure(rho, b)
    monkeypatch.setattr("superpos.measures._newton_point", lambda *args: None)
    plain = rel_entropy_measure(rho, b)
    assert (plain.extra["evaluations"], plain.extra["newton_steps"]) == (10, 0)
    assert plain.extra["fw_gap"] <= 1e-9
    assert abs(plain.value - rep.value) <= 9e-16
