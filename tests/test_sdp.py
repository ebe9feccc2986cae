import numpy as np
import pytest

from superpos.basis import symmetric_basis_d3
from superpos.errors import BadData
from superpos.linalg import dagger, hermitian_part
from superpos.measures import robustness
from superpos.sampling import haar_state, make_rng, random_basis, random_density, random_free_state
from superpos.sdp import LmiProblem, _center, solve_cover, solve_lmi, verify_dual
from superpos.states import PureState
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
    gap_tol = 1e-8
    for d, kind, b, rho in _cover_cases(make_rng(504)):
        mats = [np.outer(b.vectors[:, i], b.vectors[:, i].conj()) for i in range(d)]
        sol = solve_cover(rho.mat, mats, gap_tol=gap_tol)
        y = sol.dual_matrix
        assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9, (d, kind)
        assert max(np.trace(m @ y).real for m in mats) <= 1 + 1e-9, (d, kind)
        assert abs(sol.dual - np.trace(rho.mat @ y).real) <= 1e-12, (d, kind)
        assert 0.0 <= sol.gap <= gap_tol, (d, kind, sol.gap)


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
def test_center_matches_explicit_newton_system(n, d):
    # the solve_lmi shape: maximise sum x subject to 1 - sum x_n A_n >= 0
    rng = make_rng(506 + 10 * n + d)
    ops = [random_psd(d, rng) for _ in range(n)]
    mats = -np.array(ops)
    m0 = np.eye(d, dtype=complex)
    cost = -np.ones(n)
    x = np.full(n, 0.5 / (sum(np.linalg.norm(a, 2) for a in ops) + 1.0))
    for mu in (1.0, 1e-1, 1e-2, 1e-3):
        x, sinv = _center(cost, m0, mats, x, mu)
        if mu in (1.0, 1e-3):
            expected, decrement = _explicit_newton(cost, m0, mats, x, mu)
            assert np.linalg.norm(sinv - expected) <= 1e-9 * np.linalg.norm(expected), (n, d, mu)
            assert decrement <= 1e-9, (n, d, mu, decrement)


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
        assert 0.0 <= sol.gap <= 10 * gap_tol, sol.gap
