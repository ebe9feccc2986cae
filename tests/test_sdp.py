import numpy as np
import pytest

from superpos import sdp
from superpos.basis import orthonormal_basis, symmetric_basis_d3
from superpos.errors import BadData, DimensionMismatch, NoConvergence, NonHermitian
from superpos.linalg import dagger, hermitian_part
from superpos.measures import rel_entropy_measure, robustness
from superpos.kraus import Channel, free_channel, is_free_kraus, is_mfo, measure_selective
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
    _purify_dual,
    solve_cover,
    solve_lmi,
    verify_dual,
)
from superpos.states import DensityMatrix, PureState, free_expansion, is_free, schmidt_rank, superposition_rank
from superpos.transform import candidate_states_d3, enumerate_transformers, max_conversion_prob
from test_measures import near_dependent_batch


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
    # 0.9 Y stays PSD, but its pairings tr(0.9 Y A_n) fall to about 0.9 < 1
    assert verify_dual(sol.dual_matrix, problem)[0]
    feasible, bound = verify_dual(0.9 * sol.dual_matrix, problem)
    assert not feasible
    assert abs(bound - 0.9 * sol.dual) < 1e-12


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
    (lambda rho: solve_cover(rho / 2).primal, 1.0, 1e-8),
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


def test_lmi_operators_are_read_only():
    # the start point comes from each operator's cached largest eigenvalue
    mats = np.array([np.eye(2, dtype=complex), np.diag([1.0, 0.0]).astype(complex)])
    problem = LmiProblem.from_matrices(mats)
    with pytest.raises(ValueError, match="read-only"):
        problem.operators[0] *= 10
    mats[0] *= 2  # the stack is a copy: the caller's array stays writable


def test_verify_dual_rejects_wrong_size():
    with pytest.raises(DimensionMismatch, match="lam"):
        verify_dual(np.eye(3), LmiProblem.from_matrices([np.eye(2)]))


def test_purify_dual_is_none_without_a_positive_pairing():
    # under sense -1 a positive rescale must lift every tr(y B_i) to >= 1
    ops = np.array([np.diag([0.0, 1.0])])
    assert _purify_dual(np.diag([1.0, 0.0]), ops, -1) is None
    assert _purify_dual(-np.eye(2), ops, -1) is None   # its PSD part is 0


def test_certifying_tolerances_must_be_finite_and_positive():
    # nan used to skip the Frank-Wolfe loop (fw_gap 0.357 reported as done),
    # and 0 or a negative tolerance ran to an iteration cap or a failed
    # factorisation; the rank and freeness predicates follow the same rule,
    # where nan gave rank 0, called every operator free and a free channel
    # not free, and -1 called the identity not free; a tolerance that is not a
    # real number raised TypeError from the comparison, and True, an int, was
    # taken as a tolerance of 1
    rng = make_rng(11)
    b = random_basis(4, rng)
    rho = random_density(4, rng)
    problem = LmiProblem.from_matrices([np.eye(3)])
    psi = haar_state(3, make_rng(5))
    calls = [
        lambda tol: rel_entropy_measure(rho, b, tol=tol),
        lambda tol: robustness(rho, b, gap_tol=tol),
        lambda tol: max_conversion_prob(psi, psi, symmetric_basis_d3(), gap_tol=tol),
        lambda tol: solve_lmi(problem, gap_tol=tol),
        lambda tol: solve_cover(free_expansion(rho, b), gap_tol=tol),
        lambda tol: superposition_rank(psi, symmetric_basis_d3(), tol=tol),
        lambda tol: schmidt_rank(haar_state(4, make_rng(6)), 2, 2, tol=tol),
        lambda tol: is_free(rho, b, tol=tol),
        lambda tol: is_free_kraus(np.eye(4), b, tol=tol),
        lambda tol: is_mfo(Channel([np.eye(4)]), b, tol=tol),
    ]
    for call in calls:
        for tol in (np.nan, np.inf, -np.inf, 0.0, -1e-3, "x", None, [1e-6], 1e-6j, True):
            with pytest.raises(ValueError, match="finite positive"):
                call(tol)
        call(1e-6)


def test_lmi_data_rejects_empty_and_mixed_shapes():
    with pytest.raises(DimensionMismatch, match="at least one"):
        LmiProblem.from_matrices([])
    with pytest.raises(DimensionMismatch, match="share one shape"):
        LmiProblem.from_matrices([np.eye(2), np.eye(3)])


def test_lmi_data_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            LmiProblem.from_matrices([np.eye(2), np.diag([1.0, bad])])


def test_hermitian_rule_holds_per_matrix_of_a_stack():
    # a large Hermitian member does not widen the tolerance of a small
    # non-Hermitian one beside it
    for skew in (np.array([[1.0, 5.0], [-5.0, 1.0]]), np.array([[1.0, 1e-7], [0.0, 1.0]])):
        with pytest.raises(NonHermitian):
            LmiProblem.from_matrices([100 * np.eye(2), skew])


def test_rejects_zero_operator():
    # p_2 of a zero operator is unbounded; the solve used to chase it until
    # matmul overflowed
    with pytest.raises(BadData, match="zero"):
        solve_lmi(LmiProblem.from_matrices([np.eye(2), np.zeros((2, 2))]))


def test_solve_cover_diagonal_case():
    # cover diag(0.7, 0.3) with projectors e_1, e_2: optimum x = (0.7, 0.3)
    sol = solve_cover(np.diag([0.7, 0.3]).astype(complex))
    assert abs(sol.primal - 1.0) < 1e-7
    assert np.allclose(sol.p, [0.7, 0.3], atol=1e-5)
    assert sol.gap <= 1e-8


@pytest.mark.parametrize("coeffs, optimum", [
    (-np.eye(3), 0.0),
    (np.diag([1.0, -2.0, -3.0]), 1.0),
    (np.array([[0.0, 1.0], [1.0, -5.0]]), 0.2),
], ids=["negative", "diagonal_indefinite", "indefinite"])
def test_solve_cover_certifies_from_its_unit_start(coeffs, optimum):
    # C <= 0 takes the start x = 1, since x = 2 lam_max(C) <= 0 is not strictly
    # feasible, and its optimum x = 0 lies on the boundary x >= 0; an indefinite C starts at
    # 2 lam_max(C) and ends with weights at 0 as well. Optima: 0; 1, at
    # x = (1, 0, 0); and 0.2, at x = (0.2, 0), where x_1 (x_2 + 5) >= 1 binds
    sol = solve_cover(coeffs.astype(complex), gap_tol=1e-8)
    assert abs(sol.primal - optimum) <= 1e-8
    assert sol.gap <= 1e-8
    assert np.linalg.eigvalsh(np.diag(sol.p) - coeffs)[0] >= -1e-12


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
    # each input is solved in the free frame over C = W' rho W, where
    # diag(x) >= C is the same constraint on the same x as
    # sum x_i |c_i><c_i| >= rho, so x covers rho too; the certified value is
    # robustness + 1, which the phase bracket or closed form certifies alone
    gap_tol = 1e-8
    for d, kind, b, rho in _cover_cases(make_rng(504)):
        coeffs = free_expansion(rho, b)
        sol = solve_cover(coeffs, gap_tol=gap_tol)
        cover = (b.vectors * sol.p) @ b.vectors.conj().T - rho.mat
        assert np.linalg.eigvalsh(hermitian_part(cover))[0] >= -1e-9, (d, kind)
        y = sol.dual_matrix
        assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9, (d, kind)
        assert np.diag(y).real.max() <= 1 + 1e-9, (d, kind)
        assert abs(sol.dual - np.trace(coeffs @ y).real) <= 1e-12, (d, kind)
        assert 0.0 <= sol.gap <= gap_tol, (d, kind, sol.gap)
        assert abs(sol.primal - (robustness(rho, b, gap_tol=gap_tol).value + 1.0)) <= gap_tol, (d, kind)


@pytest.mark.parametrize("seed", [14, 173, 260])
def test_cover_certifies_d8_mixtures(seed):
    # the barrier's central-path dual alone stalled here at gaps 1.1e-6, 1.1e-5
    # and 2.4e-6 (over rho and the |c_i><c_i|); in the free frame the purified
    # primal-dual iterate certifies after 11-12 steps
    rng = make_rng(seed)
    b = random_basis(8, rng)
    t = rng.random()
    rho = DensityMatrix(t * haar_state(8, rng).density().mat + (1 - t) * random_density(8, rng).mat)
    sol = solve_cover(free_expansion(rho, b), gap_tol=1e-8)
    y = sol.dual_matrix
    assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9
    assert np.diag(y).real.max() <= 1 + 1e-9
    assert 0.0 <= sol.gap <= 1e-8, sol.gap


@pytest.mark.parametrize("seed", [18, 30, 32])
def test_cover_certifies_rank_deficient_measurement_outcomes(seed):
    # outcomes of a selective free measurement at d = 8 (rank 5-6): here the
    # barrier's polish alone stalled at gaps 1.8 to 3.2 (over rho and the
    # |c_i><c_i|); in the free frame the purified primal-dual iterate
    # certifies after 9-10 steps
    rng = make_rng(seed)
    b = random_basis(8, rng)
    channel = free_channel(random_subnormalized_free_ops(b, rng), b)
    outcomes = measure_selective(channel, random_density(8, rng))
    rho = outcomes[int(rng.integers(len(outcomes)))][1]
    sol = solve_cover(free_expansion(rho, b), gap_tol=1e-8)
    y = sol.dual_matrix
    assert np.linalg.eigvalsh(hermitian_part(y))[0] >= -1e-9
    assert np.diag(y).real.max() <= 1 + 1e-9
    assert 0.0 <= sol.gap <= 1e-8, sol.gap



# The log-det barrier that solved the cover before the primal-dual loop took
# both shapes, kept as an oracle: damped Newton centering at barrier weights
# mu = 1, 0.1, ..., each certified by purified central-path and polished duals.

def _inverse_slack(m0: np.ndarray, mats: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """(m0 + sum x_i mats_i)^-1 = L^-H L^-1 from a Cholesky factor L; None off the domain."""
    if (x <= 0).any():
        return None
    try:
        chol = np.linalg.cholesky(m0 + (x @ mats.reshape(len(x), -1)).reshape(m0.shape))
    except np.linalg.LinAlgError:   # not positive definite
        return None
    linv = np.linalg.inv(chol)
    return linv.conj().T @ linv


def _center(cost: np.ndarray, m0: np.ndarray, mats: np.ndarray, x: np.ndarray,
            mu: float, minv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton for min cost.x - mu*(logdet(m0 + sum x mats) + sum log x).

    ``mats`` is (n, k, k) and ``minv`` the inverse slack at the strictly feasible
    ``x``. Steps take the largest t in 1, 1/2, ... (above 1e-13) that stays in
    the domain; returns the centered point and the inverse slack there.
    """
    for _ in range(80):
        prods = minv @ mats
        grad = cost - mu * np.einsum("nii->n", prods).real - mu / x
        hess = mu * np.einsum("aij,bji->ab", prods, prods).real + np.diag(mu / x**2)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        if float(-grad @ step) <= 1e-12:
            break
        t = 1.0
        while (trial := _inverse_slack(m0, mats, x + t * step)) is None:
            t *= 0.5
            if t <= 1e-13:
                return x, minv
        x, minv = x + t * step, trial
    return x, minv


def _polish_dual(ops: np.ndarray, x: np.ndarray, slack: np.ndarray) -> np.ndarray | None:
    """Solve the cover's complementary-slackness system for the dual on null(slack).

    Any PSD Y supported on the null space of the optimal slack
    sum x_i B_i - rho whose pairings with the active constraints equal one has
    tr(rho Y) equal to the primal optimum, so a least-squares solve there
    recovers the exact dual even when the central-path estimate is noisy. For
    Hermitian X and C_a, tr(X C_a) = [Re vec X, Im vec X] . [Re vec C_a, Im vec C_a],
    and the min-norm solution lies in the span of these rows, so X is Hermitian.
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


def _barrier(rho: np.ndarray, ops, gap_tol: float = 1e-8) -> tuple[float, float]:
    """The cover "minimise sum x s.t. sum x_i B_i >= rho, x >= 0" by the barrier.

    Starts from t * 1 with t = 2 lam_max(L^-1 rho L^-H) (L a Cholesky factor
    of sum B_i) and certifies with the static dual (sum B_i)^-1, the
    central-path point mu * S^-1 and the polish, all purified. Returns the last
    (feasible) primal value and the largest certified dual bound, once they
    are within ``gap_tol`` or after 40 weights; they stay apart where
    ``_center`` stalls.
    """
    mats = np.array(ops)
    linv = np.linalg.inv(np.linalg.cholesky(mats.sum(axis=0)))
    top = float(np.linalg.eigvalsh(linv @ rho @ linv.conj().T)[-1])
    x = np.full(len(mats), 2.0 * top if top > 0 else 1.0)
    m0, cost = -rho, np.ones(len(mats))
    primal, dual, sinv = np.inf, -np.inf, _inverse_slack(m0, mats, x)
    for mu in 0.1 ** np.arange(40):
        x, sinv = _center(cost, m0, mats, x, mu, sinv)
        primal = float(np.sum(x))
        slack = m0 + np.tensordot(x, mats, 1)
        for raw in (linv.conj().T @ linv, mu * sinv, _polish_dual(mats, x, slack)):
            if raw is not None:
                dual = max(dual, float(np.trace(_purify_dual(raw, mats, 1) @ rho).real))
        if primal - dual <= gap_tol:
            break
    return primal, dual


@pytest.mark.parametrize("batch", ["near_dependent", "random"])
def test_cover_agrees_with_barrier(batch):
    # free-frame covers diag(x) >= C: each solver's feasible value sits above
    # the other's certified bound (up to rounding at R + 1 ~ 1.8e6), and where
    # the barrier certifies too the two values agree within gap_tol
    gap_tol = 1e-8
    if batch == "near_dependent":
        draws = near_dependent_batch()
    else:
        rng = make_rng(530)
        draws = [(random_basis(int(d), rng), random_density(int(d), rng)) for d in rng.integers(2, 9, 40)]
    for b, rho in draws:
        coeffs, units = free_expansion(rho, b), [np.diag(e) for e in np.eye(b.d)]
        sol = solve_cover(coeffs, gap_tol=gap_tol)
        primal, dual = _barrier(coeffs, units, gap_tol)
        rounding = 1e-13 * max(1.0, primal)
        assert sol.primal >= dual - rounding and primal >= sol.dual - rounding, (b.d, sol, primal, dual)
        if primal - dual <= gap_tol:
            assert abs(sol.primal - primal) <= gap_tol, (b.d, sol.primal, primal)


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
        assert 0 < len(steps) <= 2 * 20 and len(steps) % 2 == 0, len(steps)


def test_support_three_solve_calls_numpy_linalg_at_call_time(monkeypatch):
    # the np.linalg report of tests/ci_report.py and perfbench's kernel spans both
    # patch numpy.linalg from outside: a factorisation bound to a name when sdp
    # is imported would run unseen by either
    calls = dict.fromkeys(("cholesky", "inv", "eigvalsh"), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    steps = []
    step_lengths = sdp._step_lengths
    monkeypatch.setattr(sdp, "_step_lengths", lambda *args: steps.append(1) or step_lengths(*args))
    problem = conversion_problem(3, make_rng(523))
    calls.update(cholesky=0, inv=0, eigvalsh=0)   # LmiProblem's own check called eigvalsh
    assert_lmi_certified(solve_lmi(problem), problem)
    # each iteration factors the stacked (Y, Z) and the Schur matrix, and each
    # of its two steps takes the smallest eigenvalues of the scaled directions
    iterations = len(steps) // 2
    assert iterations > 0 and len(steps) == 2 * iterations
    assert calls["cholesky"] >= 2 * iterations and calls["inv"] >= 2 * iterations, calls
    assert calls["eigvalsh"] >= 2 * iterations, calls


# The primal-dual loop as first written, one numpy call per formula of the HKM
# step, kept as a bit-for-bit oracle: ``_path_following`` issues the same
# arithmetic in fewer, larger calls, so every iterate, and so every solution and
# every NoConvergence message, must match it byte for byte.

def _reference_step_lengths(yz_linv, dy, dz, s, ds, p, dp):
    w = np.linalg.eigvalsh(yz_linv @ np.array([dy, dz]) @ yz_linv.conj().transpose(0, 2, 1))[:, 0]
    rates = (max(-w[0], float(np.max(-ds / s))), max(-w[1], float(np.max(-dp / p))))
    return tuple(sdp._STEP / max(rate, sdp._STEP) for rate in rates)


def _reference_path_following(f0, ops, sign, p, candidates, gap_tol):
    n, k = ops.shape[:2]
    flat = ops.reshape(n, k * k)
    eye = np.eye(k, dtype=complex)
    signed_ops = sign * ops
    y, s = eye, np.ones(n)
    best, complementarity, done = np.inf, np.inf, 0
    try:
        for done in range(sdp._MAX_PD_ITER):
            z = f0 - (p @ flat).reshape(k, k)
            yz_linv = np.linalg.inv(np.linalg.cholesky(np.array([y, z])))
            zinv = yz_linv[1].conj().T @ yz_linv[1]
            complementarity = float(np.trace(y @ z).real) + float(s @ p)
            if complementarity <= gap_tol * max(1.0, primal := float(p.sum())):
                duals = [(float(np.trace(f0 @ cert).real), cert) for raw in candidates(y)
                         if (cert := _purify_dual(raw, signed_ops, -sign)) is not None]
                if duals:
                    bound, cert = min(duals, key=lambda pair: pair[0])
                    dual = sign * bound
                    if (gap := sign * (dual - primal)) <= gap_tol:
                        return sdp.SdpSolution(p=p, primal=primal, dual_matrix=cert, dual=dual, gap=gap)
                    best = min(best, gap)
            mu = complementarity / (k + n)
            ay, az = ops @ y, ops @ zinv
            schur = (ay.reshape(n, -1) @ az.transpose(0, 2, 1).reshape(n, -1).T).real
            schur_linv = np.linalg.inv(np.linalg.cholesky(schur + np.diag(s / p)))

            def direction(target, lp_target):
                rhs = sign - (flat @ target.T.reshape(-1)).real + lp_target / p
                dp = schur_linv.T @ (schur_linv @ rhs)
                dz = -(dp @ flat).reshape(k, k)
                dy = hermitian_part(target - y - y @ dz @ zinv)
                return dp, dz, dy, lp_target / p - s - s * dp / p

            dp, dz, dy, ds = direction(np.zeros((k, k)), np.zeros(n))
            a_primal, a_dual = _reference_step_lengths(yz_linv, dy, dz, s, ds, p, dp)
            mu_aff = (float(np.trace((y + a_primal * dy) @ (z + a_dual * dz)).real)
                      + float((s + a_primal * ds) @ (p + a_dual * dp))) / (k + n)
            sigma_mu = (mu_aff / mu) ** 3 * mu
            dp, dz, dy, ds = direction((sigma_mu * eye - dy @ dz) @ zinv, sigma_mu - ds * dp)
            a_primal, a_dual = _reference_step_lengths(yz_linv, dy, dz, s, ds, p, dp)
            y, s = y + a_primal * dy, s + a_primal * ds
            p = p + a_dual * dp
        done, why = sdp._MAX_PD_ITER, "no certified gap"
    except np.linalg.LinAlgError as err:
        why = f"factorisation failed ({err})"
    seen = f"smallest certified gap {best:.3e}" if np.isfinite(best) else "no dual certified"
    raise NoConvergence(f"{why} after {done} iterations: {seen} against gap_tol {gap_tol:.1e}, "
                        f"complementarity {complementarity:.3e}")


def _cover_corpus():
    rng = make_rng(540)
    for d in range(3, 9):
        for _ in range(4):
            b = random_basis(d, rng)
            for rho in (random_density(d, rng), haar_state(d, rng).density(), random_free_state(b, rng)):
                yield lambda b=b, rho=rho: solve_cover(free_expansion(rho, b), gap_tol=1e-8)
    # the seed-806 orthonormal d = 8 state, where the phase bracket stalls
    rho = random_density(8, make_rng(806))
    yield lambda: solve_cover(free_expansion(rho, orthonormal_basis(8)), gap_tol=1e-8)
    for coeffs in (np.diag([1.0, -2.0, -3.0]), np.array([[0.0, 1.0], [1.0, -5.0]])):
        yield lambda coeffs=coeffs: solve_cover(coeffs.astype(complex), gap_tol=1e-8)


def _conversion_corpus():
    for support, draws in ((3, 6), (4, 4), (5, 2)):
        rng = make_rng(540 + support)
        for _ in range(draws):
            problem = conversion_problem(support, rng)
            yield lambda problem=problem: solve_lmi(problem)


def _criterion_06_corpus():
    b, target = symmetric_basis_d3(), PureState(np.array([1, 0, 0], dtype=complex))
    for cand in candidate_states_d3():
        yield lambda cand=cand: max_conversion_prob(cand, target, b)
    # a tolerance below what the iterates reach: the Z factorisation fails
    yield lambda: max_conversion_prob(candidate_states_d3()[0], target, b, gap_tol=1e-9)
    yield lambda: solve_lmi(LmiProblem.from_matrices([np.eye(3)]), gap_tol=1e-300)


@pytest.mark.parametrize("corpus, solves", [
    (_cover_corpus, 6 * 4 * 3 + 3),
    (_conversion_corpus, 12),
    (_criterion_06_corpus, 6),
], ids=["covers", "conversions", "criterion_06_and_tolerances"])
def test_path_following_matches_reference_bit_for_bit(corpus, solves, monkeypatch):
    def outcome(solve):
        try:
            sol = solve()
        except NoConvergence as err:
            return str(err)
        return (sol.p.dtype, sol.p.tobytes(), np.array([sol.primal, sol.dual, sol.gap]).tobytes(),
                sol.dual_matrix.dtype, sol.dual_matrix.shape, sol.dual_matrix.tobytes())

    calls, failures = [], []

    def reference(*args):
        calls.append(1)
        return _reference_path_following(*args)

    for solve in corpus():
        got = outcome(solve)
        with monkeypatch.context() as patched:
            patched.setattr(sdp, "_path_following", reference)
            expected = outcome(solve)
        assert got == expected, len(calls)
        failures += [got] if isinstance(got, str) else []
    assert len(calls) == solves
    if corpus is _criterion_06_corpus:
        assert [f.split(":")[0] for f in failures] == [
            "factorisation failed (Matrix is not positive definite) after 7 iterations",
            "factorisation failed (Matrix is not positive definite) after 14 iterations"]


def test_lmi_negative_tolerance_raises():
    # a negative tolerance is refused up front; a positive one below what the
    # iterates can reach still raises NoConvergence
    problem = LmiProblem.from_matrices([np.eye(3)])
    with pytest.raises(ValueError, match="finite positive"):
        solve_lmi(problem, gap_tol=-1e-3)
    with pytest.raises(NoConvergence):
        solve_lmi(problem, gap_tol=1e-300)



def test_lmi_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(sdp, "_MAX_PD_ITER", 1)
    with pytest.raises(NoConvergence, match="no certified gap after 1 iterations"):
        solve_lmi(LmiProblem.from_matrices([np.eye(3)]))
