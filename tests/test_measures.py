import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from superpos.basis import new_free_basis, orthonormal_basis, symmetric_basis_d3
from superpos.errors import NoConvergence
from superpos.kraus import free_channel, measure_selective
from superpos.linalg import hermitian_part
from superpos.measures import (
    _closed_form_cover,
    _cross_entropy_eig,
    _entropy_terms,
    _extrapolate,
    _free_sigma,
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
        return rho_entropy + _cross_entropy(rho.mat, _free_sigma(basis, qv))

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


def plain_rel_ent_terms(rho_mat, basis, q):
    """The earlier kernel: the gradient through T = U(L o rho~)U' and a three-operand einsum."""
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
    # the extrapolated update and the plain one both stop within tol of the
    # minimum, on pure, mixed, S3 and S2b states at d = 2..8
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


def test_rel_entropy_tail_of_s2b_outcomes(monkeypatch):
    # outcomes of random free channels at d = 2..4, where weights decay to a
    # face of the simplex: draw 148 (d = 4) took 4,022 evaluations under the
    # plain update
    evaluations = []
    terms = _rel_ent_terms

    def counted(*args):
        evaluations[-1] += 1
        return terms(*args)

    monkeypatch.setattr("superpos.measures._rel_ent_terms", counted)
    rng = make_rng(2027)
    for draw in range(300):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        ch = free_channel(random_subnormalized_free_ops(b, rng, n_ops=2), b)
        rho = haar_state(d, rng).density() if draw % 2 == 0 else random_density(d, rng)
        outcomes = measure_selective(ch, rho)
        evaluations.append(0)
        rep = rel_entropy_measure(outcomes[int(rng.integers(len(outcomes)))][1], b)
        assert rep.extra["fw_gap"] <= 1e-9
    assert max(evaluations) <= 500, (int(np.argmax(evaluations)), max(evaluations))


def test_extrapolate_keeps_weights_positive():
    # alpha = -|r|/|v| = -5 lands on a zero weight, so it moves halfway to -1,
    # to -3; a fixed point has no step
    q0, q1, q2 = np.array([0.5, 0.5]), np.array([0.6, 0.4]), np.array([0.68, 0.32])
    assert np.allclose(_extrapolate(q0, q1, q2), [0.92, 0.08], atol=1e-15)
    assert _extrapolate(q0, q0, q0) is None


def test_import_leaves_scipy_optimize_out():
    # SciPy is blocked before the import: the library and both SDP shapes,
    # a conversion (solve_lmi) and a d = 3 mixed-state cover (solve_cover),
    # run on numpy alone
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
        "from superpos.states import PureState",
        "from superpos.transform import candidate_states_d3, max_conversion_prob",
        "b = symmetric_basis_d3()",
        "target = PureState(np.array([1, 0, 0], dtype=complex))",
        "print(repr(max_conversion_prob(candidate_states_d3()[0], target, b).primal))",
        "print(robustness(random_density(3, make_rng(606)), b).extra['method'])",
    ])
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    primal, method = proc.stdout.split()
    assert abs(float(primal) - 4 / 7) <= 1e-7 and method == "sdp"


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
                    mats = [np.outer(b.vectors[:, i], b.vectors[:, i].conj()) for i in range(d)]
                    sol = solve_cover(rho.mat, mats)
                    # the SDP brackets the optimum between its dual and primal values
                    assert sol.dual - 1e-12 <= rep.value + 1.0 <= sol.primal + 1e-12
                    assert abs(rep.value - (sol.primal - 1.0)) <= 1e-8
                    # the closed-form dual passes the checks every barrier dual passes
                    # (in the free frame: tr(B_i Y) is Y_ii and tr(rho Y) is tr(C Y))
                    coeffs = free_expansion(rho, b)
                    cover = _closed_form_cover(coeffs)
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
def near_dependent_batch() -> list:
    """60 (basis, Ginibre state) draws, 10 at each d = 3..8, in draw order (seed 77).

    Column 0 of a ``random_basis`` is replaced by column 1 plus eps = 1e-2
    times a complex Gaussian and normalised, so sigma_min falls to ~eps
    (median 8e-3) and R + 1 grows like 1/sigma_min^2.
    """
    rng, eps = make_rng(77), 1e-2
    out = []
    for d in range(3, 9):
        for _ in range(10):
            v = random_basis(d, rng).vectors.copy()
            v[:, 0] = v[:, 1] + eps * (rng.normal(size=d) + 1j * rng.normal(size=d))
            v[:, 0] /= np.linalg.norm(v[:, 0])
            out.append((new_free_basis(list(v.T)), random_density(d, rng)))
    return out


_STALLED_DRAWS = {
    51: "d = 8, sigma_min 3.5e-4, R + 1 ~ 1.79e6: C's spectrum spans 6e-4 to 8e5 and "
        "_center stops on an ill-conditioned Newton system at a sum x above the optimum",
}


@pytest.mark.parametrize("draw", [
    pytest.param(k, marks=pytest.mark.xfail(strict=True, raises=NoConvergence,
                                            reason=_STALLED_DRAWS[k]))
    if k in _STALLED_DRAWS else k for k in range(60)])
def test_robustness_certifies_near_dependent_bases(draw):
    # every draw, in order; solved over the rank-one |c_i><c_i| in place of the
    # free frame's unit projectors, 54 of these 60 raise NoConvergence
    b, rho = near_dependent_batch()[draw]
    rep = robustness(rho, b)
    assert 0.0 <= rep.extra["gap"] <= 1e-8, rep.extra["gap"]
    cert = rep.certificate
    s, tau = cert["s"], cert["tau"]
    resid = rho.mat + s * (0.0 if tau is None else tau.mat) - (1 + s) * cert["delta"].mat
    assert np.abs(resid).max() <= 1e-8 * (1 + s), (b.sigma_min, s)


def test_robustness_mixed_state_uses_sdp():
    rng = make_rng(608)
    b = random_basis(3, rng)
    rep = robustness(random_density(3, rng), b)
    assert rep.extra["method"] == "sdp"
    assert rep.extra["gap"] <= 1e-6


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
