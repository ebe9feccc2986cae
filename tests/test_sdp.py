import numpy as np
import pytest

from superpos import sdp
from superpos.basis import symmetric_basis_d3
from superpos.errors import BadData, NoConvergence, NonHermitian
from superpos.linalg import dagger, hermitian_part
from superpos.measures import robustness
from superpos.kraus import free_channel, measure_selective
from superpos.sampling import (
    haar_state,
    make_rng,
    random_basis,
    random_density,
    random_free_state,
    random_subnormalized_free_ops,
)
from superpos.sdp import (
    DEFAULT_GAP_TOL,
    LmiProblem,
    _center,
    _polish_dual,
    _purify_dual,
    solve_cover,
    solve_lmi,
    verify_dual,
)
from superpos.states import PureState, free_expansion
from superpos.transform import candidate_states_d3, enumerate_transformers, max_conversion_prob


def random_psd(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T / d
    return m + 0.05 * np.eye(d)


def brute_force_two_operator(a1: np.ndarray, a2: np.ndarray, steps: int = 4001) -> float:
    """Grid oracle: every feasible p is s*(t, 1-t); maximize s over the mixing grid."""
    best = 0.0
    for t in np.linspace(0.0, 1.0, steps):
        top = np.linalg.eigvalsh(t * a1 + (1 - t) * a2)[-1]
        if top > 1e-12:
            best = max(best, 1.0 / top)
    return best


def test_single_identity_operator():
    problem = LmiProblem.from_matrices([np.eye(3, dtype=complex)])
    sol = solve_lmi(problem)
    assert abs(sol.primal - 1.0) < 1e-7
    assert abs(sol.dual - 1.0) < 1e-6
    assert sol.gap <= 1e-7


def test_self_conversion_reaches_one():
    b = symmetric_basis_d3()
    psi = PureState.normalized(b.state(0) + 0.5 * b.state(1) + 0.25 * b.state(2))
    ts = enumerate_transformers(psi, psi, b)
    problem = LmiProblem.from_matrices([dagger(f) @ f for f in ts.operators])
    sol = solve_lmi(problem)
    assert abs(sol.primal - 1.0) < 1e-6
    assert sol.gap <= 1e-7


def test_maximal_candidate_bounded_by_dual():
    b = symmetric_basis_d3()
    target = PureState(np.array([1, 0, 0], dtype=complex))
    cand = candidate_states_d3()[0]
    ts = enumerate_transformers(cand, target, b)
    problem = LmiProblem.from_matrices([dagger(f) @ f for f in ts.operators])
    sol = solve_lmi(problem)
    assert sol.primal <= 16 / 17 + 1e-6
    lam = (16 / 17) * np.eye(3) / 3
    feasible, bound = verify_dual(lam, problem)
    assert feasible
    assert abs(bound - 16 / 17) < 1e-12
    assert sol.primal <= bound + 1e-8


def test_verify_dual_examples():
    problem = LmiProblem.from_matrices([np.eye(4, dtype=complex)])
    feasible, bound = verify_dual(np.eye(4, dtype=complex), problem)
    assert feasible
    assert abs(bound - 4.0) < 1e-12
    infeasible, _ = verify_dual(-np.eye(4, dtype=complex), problem)
    assert not infeasible


def _dual_bound(lam):
    feasible, bound = verify_dual(lam, LmiProblem.from_matrices([np.eye(2)]))
    assert feasible
    return bound


@pytest.mark.parametrize("entry, value, tol", [
    (_dual_bound, 2.0, 1e-12),
    (lambda a: solve_lmi(LmiProblem.from_matrices([a])).primal, 1.0, 1e-7),
    (lambda rho: solve_cover(rho / 2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).primal,
     1.0, 1e-8),
], ids=["verify_dual", "from_matrices", "solve_cover"])
def test_verify_dual_rejects_non_hermitian(entry, value, tol):
    # the Hermitian part of the matrix is the identity, valid input whose
    # optimum or bound is ``value``, but the matrix itself is no valid input
    with pytest.raises(NonHermitian):
        entry(np.array([[1.0, 5.0], [-5.0, 1.0]]))
    assert abs(entry(np.eye(2) + 1e-12j * np.array([[0, 1], [0, 0]])) - value) <= tol


def test_verify_dual_qubit_landscape():
    # at a = 1/2 from the equatorial initial state, t/2 * identity is feasible
    # with t = 1/(3 - 2 cos(z) sin(x)) < 1 away from the initial state
    from superpos.qubit import qubit_free_basis, qubit_state

    b = qubit_free_basis(0.5)
    psi = qubit_state(np.pi / 2, 0.0)
    for (x, z) in [(np.pi / 3, 0.4), (2.2, 1.0), (np.pi / 2, 2.0)]:
        phi = qubit_state(x, z)
        ts = enumerate_transformers(psi, phi, b)
        problem = LmiProblem.from_matrices([dagger(f) @ f for f in ts.operators])
        t = 1.0 / (3.0 - 2.0 * np.cos(z) * np.sin(x))
        assert t < 1.0
        feasible, bound = verify_dual((t / 2) * np.eye(2), problem)
        assert feasible
        assert abs(bound - t) < 1e-12


def test_weak_duality_every_solve():
    rng = make_rng(501)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        problem = LmiProblem.from_matrices([random_psd(d, rng) for _ in range(n)])
        sol = solve_lmi(problem)
        assert sol.gap >= -1e-8
        assert sol.primal <= sol.dual + 1e-8
        feasible, bound = verify_dual(sol.dual_matrix, problem)
        assert feasible
        slack = np.eye(d) - sum(p * a for p, a in zip(sol.p, problem.operators))
        assert np.linalg.eigvalsh(hermitian_part(slack))[0] >= -1e-8
        assert np.all(sol.p >= 0)


def test_agrees_with_brute_force_grid():
    rng = make_rng(502)
    for _ in range(30):
        a1, a2 = random_psd(2, rng), random_psd(2, rng)
        problem = LmiProblem.from_matrices([a1, a2])
        sol = solve_lmi(problem)
        oracle = brute_force_two_operator(a1, a2)
        assert abs(sol.primal - oracle) < 1e-4


def test_adding_operator_never_decreases_optimum():
    rng = make_rng(503)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        mats = [random_psd(d, rng) for _ in range(3)]
        small = solve_lmi(LmiProblem.from_matrices(mats[:2])).primal
        large = solve_lmi(LmiProblem.from_matrices(mats)).primal
        assert large >= small - 1e-7


def test_rejects_non_psd_data():
    with pytest.raises(BadData):
        LmiProblem.from_matrices([np.diag([1.0, -0.5])])


def test_rejects_zero_operator():
    # p_2 of a zero operator is unbounded; the solve used to chase it until
    # matmul overflowed
    with pytest.raises(BadData, match="zero"):
        solve_lmi(LmiProblem.from_matrices([np.eye(2), np.zeros((2, 2))]))


def test_solve_cover_diagonal_case():
    # cover diag(0.7, 0.3) with projectors e_1, e_2: optimum x = (0.7, 0.3)
    rho = np.diag([0.7, 0.3]).astype(complex)
    mats = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    sol = solve_cover(rho, mats)
    assert abs(sol.primal - 1.0) < 1e-7
    assert np.allclose(sol.p, [0.7, 0.3], atol=1e-5)
    assert sol.gap <= 1e-8


def _cover_cases(rng):
    for d in (2, 3, 4, 8):
        for kind in ("free", "pure", "ginibre"):
            for _ in range(3):
                b = random_basis(d, rng)
                if kind == "free":
                    rho = random_free_state(b, rng)
                elif kind == "pure":
                    rho = haar_state(d, rng).density()
                else:
                    rho = random_density(d, rng)
                yield d, kind, b, rho


def test_cover_certificate_every_solve():
    # each input is solved twice: over rho and the |c_i><c_i|, and in the free
    # frame over C = W' rho W and the unit projectors, where diag(x) >= C is the
    # same constraint on the same x
    gap_tol = 1e-8
    for d, kind, b, rho in _cover_cases(make_rng(504)):
        mats = [np.outer(b.vectors[:, i], b.vectors[:, i].conj()) for i in range(d)]
        coeffs, units = free_expansion(rho, b), [np.diag(e) for e in np.eye(d)]
        primals = []
        for data, ops in ((rho.mat, mats), (coeffs, units)):
            sol = solve_cover(data, ops, gap_tol=gap_tol)
            y = sol.dual_matrix
            assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9, (d, kind)
            assert max(np.trace(m @ y).real for m in ops) <= 1 + 1e-9, (d, kind)
            assert abs(sol.dual - np.trace(data @ y).real) <= 1e-12, (d, kind)
            assert 0.0 <= sol.gap <= gap_tol, (d, kind, sol.gap)
            primals.append(sol.primal)
        assert abs(primals[0] - primals[1]) <= gap_tol, (d, kind)


def test_solve_cover_rejects_singular_constraint_sum():
    # two copies of diag(1, 0) cover nothing along e_2
    half = np.diag([1.0, 0.0])
    with pytest.raises(BadData, match="positive definite sum"):
        solve_cover(np.eye(2) / 2, [half, half])


@pytest.mark.parametrize("seed", [14, 173, 260])
def test_cover_certifies_d8_mixtures(seed):
    # the central-path dual alone stalls here at gaps 1.1e-6, 1.1e-5 and 2.4e-6:
    # the slack's near-null space is lost in rounding long before mu is small
    rng = make_rng(seed)
    b = random_basis(8, rng)
    t = rng.random()
    rho = t * haar_state(8, rng).density().mat + (1 - t) * random_density(8, rng).mat
    mats = [np.outer(b.vectors[:, i], b.vectors[:, i].conj()) for i in range(8)]
    sol = solve_cover(rho, mats, gap_tol=1e-8)
    y = sol.dual_matrix
    assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9
    assert max(np.trace(m @ y).real for m in mats) <= 1 + 1e-9
    assert 0.0 <= sol.gap <= 1e-8, sol.gap


@pytest.mark.parametrize("seed", [18, 30, 32])
def test_cover_certifies_rank_deficient_measurement_outcomes(seed):
    # outcomes of a selective free measurement at d = 8 (rank 5-6): here the
    # polish alone stalls at gaps 1.8 to 3.2, and the central-path dual certifies
    rng = make_rng(seed)
    b = random_basis(8, rng)
    channel = free_channel(random_subnormalized_free_ops(b, rng), b)
    outcomes = measure_selective(channel, random_density(8, rng))
    rho = outcomes[int(rng.integers(len(outcomes)))][1].mat
    mats = [np.outer(b.vectors[:, i], b.vectors[:, i].conj()) for i in range(8)]
    sol = solve_cover(rho, mats, gap_tol=1e-8)
    y = sol.dual_matrix
    assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9
    assert max(np.trace(m @ y).real for m in mats) <= 1 + 1e-9
    assert 0.0 <= sol.gap <= 1e-8, sol.gap


def _hermitian_coords(k: int) -> np.ndarray:
    """Real orthonormal basis of k x k Hermitian matrices, stacked (k^2, k, k)."""
    unit = np.eye(k, dtype=complex)
    out = [np.outer(unit[i], unit[i]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            e_ij, e_ji = np.outer(unit[i], unit[j]), np.outer(unit[j], unit[i])
            out += [(e_ij + e_ji) / np.sqrt(2), 1j * (e_ji - e_ij) / np.sqrt(2)]
    return np.array(out)


def _coordinate_polish(ops, x, slack):
    """The polish as a least-squares solve in Hermitian coordinates of null(slack)."""
    w, u = np.linalg.eigh(hermitian_part(slack))
    null_mask = w <= 1e-6 * max(float(w[-1]), 1.0)
    k = int(np.sum(null_mask))
    nbasis = u[:, null_mask]
    active = np.where(x > 1e-7 * max(float(x.max()), 1e-300))[0]
    compressed = nbasis.conj().T @ ops[active] @ nbasis
    coords = _hermitian_coords(k)
    rows = np.einsum("cij,bji->bc", coords, compressed).real
    sol, *_ = np.linalg.lstsq(rows, np.ones(active.size), rcond=None)
    return nbasis @ np.tensordot(sol, coords, 1) @ nbasis.conj().T


@pytest.mark.parametrize("k", range(1, 9))
def test_polish_matches_hermitian_coordinate_solve(k):
    rng = make_rng(510 + k)
    d = 8
    for n in (3, 12, 40):
        ops = np.array([random_psd(d, rng) for _ in range(n)])
        x = rng.random(n)
        x[0] = 1e-12   # one inactive constraint
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u, _ = np.linalg.qr(g)
        w = np.concatenate([np.zeros(k), 0.5 + rng.random(d - k)])
        slack = (u * w) @ u.conj().T
        expected = _coordinate_polish(ops, x, slack)
        got = _polish_dual(ops, x, slack)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected), (k, n)


def test_robustness_vanishes_on_free_d8_mixtures():
    rng = make_rng(505)
    for _ in range(6):
        b = random_basis(8, rng)
        assert robustness(random_free_state(b, rng), b).value <= 1e-6


def _explicit_newton(cost, m0, mats, x, mu):
    """Inverse slack and Newton decrement g'H^{-1}g, built one operator pair at a time."""
    slack = m0 + sum(xi * mi for xi, mi in zip(x, mats))
    sinv = np.linalg.inv(slack)
    n = len(mats)
    grad = np.array([cost[i] - mu * np.trace(sinv @ mats[i]).real - mu / x[i] for i in range(n)])
    hess = np.array([[mu * np.trace(sinv @ mats[i] @ sinv @ mats[j]).real for j in range(n)]
                     for i in range(n)])
    hess += np.diag(mu / x**2)
    return sinv, float(grad @ np.linalg.solve(hess, grad))


@pytest.mark.parametrize("n", [2, 6, 24])
@pytest.mark.parametrize("d", [2, 4])
def test_center_matches_explicit_newton_system(n, d, monkeypatch):
    # the solve_lmi shape: maximise sum x subject to 1 - sum x_n A_n >= 0
    rng = make_rng(506 + 10 * n + d)
    ops = [random_psd(d, rng) for _ in range(n)]
    mats = -np.array(ops)
    m0 = np.eye(d, dtype=complex)
    cost = -np.ones(n)
    x = np.full(n, 0.5 / (sum(np.linalg.norm(a, 2) for a in ops) + 1.0))
    sinv = np.linalg.inv(m0 + np.tensordot(x, mats, 1))
    for mu in (1.0, 1e-1, 1e-2, 1e-3):
        x, sinv = _center(cost, m0, mats, x, mu, sinv)
        if mu in (1.0, 1e-3):
            expected, decrement = _explicit_newton(cost, m0, mats, x, mu)
            assert np.linalg.norm(sinv - expected) <= 1e-9 * np.linalg.norm(expected), (n, d, mu)
            assert decrement <= 1e-9, (n, d, mu, decrement)
    # the carried inverse slack: re-centring a centred point factors nothing
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: factored.append(m) or cholesky(m))
    again, again_sinv = _center(cost, m0, mats, x, 1e-3, sinv)
    assert not factored and np.array_equal(again, x) and np.array_equal(again_sinv, sinv), (n, d)


@pytest.mark.parametrize("support", [4, 5])
def test_conversion_certificate_at_transformer_sizes(support):
    gap_tol = 1e-7
    rng = make_rng(507 + support)
    for _ in range(2):
        b = random_basis(support, rng)
        psi, phi = haar_state(support, rng), haar_state(support, rng)
        ts = enumerate_transformers(psi, phi, b)
        problem = LmiProblem.from_matrices([dagger(f) @ f for f in ts.operators])
        assert len(problem.operators) == {4: 24, 5: 120}[support]
        sol = max_conversion_prob(psi, phi, b, gap_tol=gap_tol)
        feasible, bound = verify_dual(sol.dual_matrix, problem)
        assert feasible
        assert bound >= sol.primal - 1e-9
        assert 0.0 <= sol.gap <= gap_tol, sol.gap


def barrier_lmi(problem):
    """The log-det barrier on the solve_lmi shape, as an oracle: centre with
    ``_center`` at mu = 1, 0.1, ... and bound the optimum by the purified
    central-path and polished duals. Returns the last (feasible) primal value and
    the smallest certified dual bound; they may stay apart where ``_center`` stalls."""
    ops = np.array(problem.operators)
    n, k = len(ops), problem.dim
    m0, mats, cost = np.eye(k, dtype=complex), -ops, -np.ones(n)
    x = np.full(n, 0.5 / (sum(np.linalg.norm(a, 2) for a in ops) + 1.0))
    sinv = np.linalg.inv(m0 + np.tensordot(x, mats, 1))
    primal, dual = 0.0, np.inf
    for mu in 0.1 ** np.arange(40):
        x, sinv = _center(cost, m0, mats, x, mu, sinv)
        primal = float(np.sum(x))
        for raw in (mu * sinv, _polish_dual(ops, x, m0 + np.tensordot(x, mats, 1))):
            y = None if raw is None else _purify_dual(raw, ops, -1)
            if y is not None:
                dual = min(dual, float(np.trace(y).real))
        if dual - primal <= DEFAULT_GAP_TOL:
            break
    return primal, dual


def assert_lmi_certified(sol, problem):
    """A p >= 0 inside the LMI, a dual verify_dual accepts (its pairings at least
    one up to rounding, not only to verify_dual's 1e-9) and a gap within DEFAULT_GAP_TOL."""
    feasible, bound = verify_dual(sol.dual_matrix, problem)
    assert feasible and abs(bound - sol.dual) <= 1e-12
    assert np.einsum("ij,nji->n", sol.dual_matrix, np.array(problem.operators)).real.min() >= 1 - 1e-12
    assert 0.0 <= sol.gap <= DEFAULT_GAP_TOL and abs(sol.dual - sol.primal - sol.gap) <= 1e-15
    assert np.min(sol.p) >= 0.0 and abs(np.sum(sol.p) - sol.primal) <= 1e-15
    slack = np.eye(problem.dim) - np.tensordot(sol.p, np.array(problem.operators), 1)
    assert np.linalg.eigvalsh(slack)[0] >= -1e-12


def conversion_problem(support, rng):
    """The conversion LMI between two Haar states on a random basis of full support."""
    b = random_basis(support, rng)
    psi, phi = haar_state(support, rng), haar_state(support, rng)
    ts = enumerate_transformers(psi, phi, b)
    return LmiProblem.from_matrices([dagger(f) @ f for f in ts.operators])


@pytest.mark.parametrize("support, draws", [(3, 8), (4, 6), (5, 3)])
def test_lmi_agrees_with_barrier(support, draws):
    # each solver's feasible value sits below the other's certified bound, and
    # where the barrier certifies too the two values agree within gap_tol
    rng = make_rng(520 + support)
    for _ in range(draws):
        problem = conversion_problem(support, rng)
        sol = solve_lmi(problem)
        assert_lmi_certified(sol, problem)
        primal, dual = barrier_lmi(problem)
        assert primal <= sol.dual + 1e-12 and sol.primal <= dual + 1e-12, (primal, dual, sol)
        if dual - primal <= DEFAULT_GAP_TOL:
            assert abs(sol.primal - primal) <= DEFAULT_GAP_TOL


@pytest.mark.parametrize("seed", [1501, 77])
def test_lmi_certifies_support_five_conversions(seed, monkeypatch):
    # the barrier raised NoConvergence on draws 4 and 14 of seed 1501 and on
    # draws 5, 6 and 8 of seed 77, where _center stalls once mu <= 1e-4; each
    # primal-dual iteration sizes two steps (predictor and corrector), and these
    # solves take 10-16 iterations (some over 20 without the corrector's dY dZ term)
    steps = []
    step_lengths = sdp._step_lengths
    monkeypatch.setattr(sdp, "_step_lengths", lambda *args: steps.append(1) or step_lengths(*args))
    rng = make_rng(seed)
    for _ in range(15):
        problem = conversion_problem(5, rng)
        steps.clear()
        assert_lmi_certified(solve_lmi(problem), problem)
        assert len(steps) <= 2 * 20, len(steps) // 2


def test_lmi_negative_tolerance_raises():
    # a certified gap is never below zero by more than rounding
    with pytest.raises(NoConvergence):
        solve_lmi(LmiProblem.from_matrices([np.eye(3)]), gap_tol=-1e-3)
