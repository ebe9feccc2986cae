import itertools
import math

import numpy as np
import pytest

from superpos.basis import orthonormal_basis, symmetric_basis_d3
from superpos.errors import NoConvergence, RankMismatch
from superpos.kraus import Channel, apply_channel, is_free_kraus
from superpos.linalg import dagger
from superpos.qubit import PAULI, free_qubit_kraus, qubit_free_basis, qubit_state
from superpos.sampling import haar_state, make_rng, random_basis
from superpos.sdp import DEFAULT_GAP_TOL, LmiProblem, solve_lmi, verify_dual
from superpos.states import DensityMatrix, PureState, superposition_rank
from superpos.transform import (
    _closed_form,
    _qubit_optimum,
    candidate_states_d3,
    enumerate_transformers,
    max_conversion_prob,
)


def test_transformer_operators_are_read_only():
    b = symmetric_basis_d3()
    psi = haar_state(3, make_rng(7))
    ts = enumerate_transformers(psi, psi, b)
    with pytest.raises(ValueError, match="read-only"):
        ts.operators[0] *= 2


def test_rank_one_transformer():
    b = qubit_free_basis(0.3)
    psi = PureState(b.state(0))
    ts = enumerate_transformers(psi, psi, b)
    assert len(ts.operators) == 1
    expected = np.outer(b.vectors[:, 0], b.reciprocal[:, 0].conj())
    assert np.abs(ts.operators[0] - expected).max() < 1e-10


def test_rank_two_pair():
    rng = make_rng(701)
    b = qubit_free_basis(0.5)
    psi = PureState.normalized(b.state(0) + 0.7 * b.state(1))
    phi = haar_state(2, rng)
    while superposition_rank(phi, b) != 2:
        phi = haar_state(2, rng)
    ts = enumerate_transformers(psi, phi, b)
    assert len(ts.operators) == 2
    for f in ts.operators:
        assert np.linalg.norm(f @ psi.amp - phi.amp) < 1e-10
        assert is_free_kraus(f, b) is not None


def test_rank_three_enumeration_count():
    b = symmetric_basis_d3()
    cand = candidate_states_d3()[0]
    target = PureState(np.array([1, 0, 0], dtype=complex))
    ts = enumerate_transformers(cand, target, b)
    assert len(ts.operators) == 6
    for f in ts.operators:
        assert np.linalg.norm(f @ cand.amp - target.amp) < 1e-10
        assert is_free_kraus(f, b) is not None


def test_oversized_support_refused():
    from superpos.errors import SupportTooLarge

    rng = make_rng(704)
    b = random_basis(6, rng)
    psi, phi = haar_state(6, rng), haar_state(6, rng)
    with pytest.raises(SupportTooLarge):
        enumerate_transformers(psi, phi, b)


def test_rank_mismatch_refused_both_ways():
    b = qubit_free_basis(0.5)
    free = PureState(b.state(0))
    full = PureState.normalized(b.state(0) + b.state(1))
    with pytest.raises(RankMismatch):
        enumerate_transformers(full, free, b)
    with pytest.raises(RankMismatch):
        enumerate_transformers(free, full, b)
    with pytest.raises(RankMismatch):
        max_conversion_prob(free, full, b)


def test_self_conversion_probability_one():
    b = symmetric_basis_d3()
    psi = PureState.normalized(b.state(0) + 0.4j * b.state(1) + 0.9 * b.state(2))
    sol = max_conversion_prob(psi, psi, b)
    assert abs(sol.value - 1.0) < 1e-7
    assert sol.completion is not None


def test_coherence_limit_maximally_coherent_source():
    # orthonormal basis: the uniform superposition converts to any full-rank
    # target deterministically; oracle is the explicit two-operator channel
    rng = make_rng(702)
    b = orthonormal_basis(2)
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    for _ in range(10):
        phi = haar_state(2, rng)
        while superposition_rank(phi, b) != 2:
            phi = haar_state(2, rng)
        c = phi.amp
        k1 = np.sqrt(2) / 2 * np.array([[c[0] * np.sqrt(2), 0], [0, c[1] * np.sqrt(2)]]) \
            * np.sqrt(2) / np.sqrt(2)
        f1 = np.sqrt(2) * np.diag([c[0], c[1]])
        f2 = np.sqrt(2) * np.array([[0, c[0]], [c[1], 0]])
        total = 0.5 * (dagger(f1) @ f1 + dagger(f2) @ f2)
        assert np.abs(total - np.eye(2)).max() < 1e-12  # deterministic channel exists
        sol = max_conversion_prob(plus, phi, b)
        assert abs(sol.value - 1.0) < 1e-6
        assert sol.completion is not None


def test_maximal_candidates_bounded_by_16_17():
    b = symmetric_basis_d3()
    target = PureState(np.array([1, 0, 0], dtype=complex))
    for cand in candidate_states_d3():
        sol = max_conversion_prob(cand, target, b)
        assert sol.value <= 16 / 17 + 1e-6
        assert sol.gap <= 1e-7


def test_relabeling_symmetry():
    rng = make_rng(703)
    for _ in range(20):
        d = 3
        b = random_basis(d, rng)
        psi, phi = haar_state(d, rng), haar_state(d, rng)
        perm = rng.permutation(d)
        from superpos.basis import new_free_basis

        b2 = new_free_basis([b.vectors[:, i] for i in perm])
        v1 = max_conversion_prob(psi, phi, b).value
        v2 = max_conversion_prob(psi, phi, b2).value
        assert abs(v1 - v2) <= 1e-7


def assert_certified_optimum(sol, problem):
    """The closed form against solve_lmi on the same LMI: a feasible p >= 0,
    a dual that verify_dual accepts, a gap at rounding level and a value at
    or above solve_lmi's by at most its gap tolerance."""
    feasible, bound = verify_dual(sol.dual_matrix, problem)
    assert feasible and abs(bound - sol.dual) <= 1e-12
    assert abs(sol.gap) <= 1e-12 and abs(sol.dual - sol.primal - sol.gap) <= 1e-15
    assert np.min(sol.p) >= 0.0 and abs(np.sum(sol.p) - sol.primal) <= 1e-15
    slack = np.eye(problem.dim) - sum(pn * a for pn, a in zip(sol.p, problem.operators))
    assert np.linalg.eigvalsh(slack)[0] >= -1e-12
    solved = solve_lmi(problem)
    assert 0.0 <= sol.primal - solved.primal <= DEFAULT_GAP_TOL


def test_closed_form_matches_solve_lmi_on_random_supports():
    rng = make_rng(708)
    for d in range(2, 9):
        b = random_basis(d, rng)
        for r in (1, 2):
            for _ in range(3):
                states = []
                for _ in range(2):
                    coeffs = np.zeros(d, dtype=complex)
                    support = rng.choice(d, r, replace=False)
                    coeffs[support] = rng.normal(size=r) + 1j * rng.normal(size=r)
                    states.append(PureState.normalized(b.vectors @ coeffs))
                sol = max_conversion_prob(*states, b)
                ts = enumerate_transformers(*states, b)
                assert len(sol.p) == len(ts.operators) == r
                assert_certified_optimum(sol, LmiProblem.from_matrices(
                    [dagger(f) @ f for f in ts.operators]))


def bloch_operator(a, b):
    """The square root of a*1 + b.sigma (a > |b|), an operator F with F'F = a*1 + b.sigma."""
    w, v = np.linalg.eigh(a * PAULI[0] + sum(bk * pk for bk, pk in zip(b, PAULI[1:])))
    return (v * np.sqrt(w)) @ dagger(v)


BRANCH_CASES = [
    # |da| < |db| with h > 0: the stationary point
    pytest.param(((1.0, (0.3, 0.0, 0.5)), (1.1, (0.3, 0.0, -0.4))), None, id="interior"),
    # |da| < |db| with the stationary point at -0.125, clipped to 0
    pytest.param(((1.0, (0.2, 0.0, 0.9)), (1.0, (0.2, 0.0, 0.1))), 0.0, id="clipped"),
    # |da| >= |db|: the top eigenvalue grows with alpha, or falls with it
    pytest.param(((2.0, (0.1, 0.0, 0.0)), (1.0, (0.0, 0.0, 0.1))), 0.0, id="end-0"),
    pytest.param(((1.0, (0.0, 0.0, 0.1)), (2.0, (0.1, 0.0, 0.0))), 1.0, id="end-1"),
    # equal Bloch parts: L = 0, decided by da alone
    pytest.param(((1.5, (0.1, -0.2, 0.3)), (1.0, (0.1, -0.2, 0.3))), 0.0, id="db-zero"),
    pytest.param(((1.0, (0.1, -0.2, 0.3)), (1.0, (0.1, -0.2, 0.3))), 1.0, id="db-zero-da-zero"),
    # collinear Bloch parts: the optimum is the kink b(alpha) = 0, where the
    # top eigenvalue is double and the dual is fixed by the pairings alone
    pytest.param(((1.1, (0.0, 0.0, 0.5)), (1.0, (0.0, 0.0, -0.5))), 0.5, id="h-zero"),
    pytest.param(((1.0, (0.0, 0.0, 0.5)), (1.0, (0.0, 0.0, -0.5))), 0.5, id="h-zero-da-zero"),
]


@pytest.mark.parametrize("pair, alpha", BRANCH_CASES)
def test_closed_form_branches(pair, alpha):
    ops = [bloch_operator(a, np.array(b)) for a, b in pair]
    a, b = np.array([pair[0][0], pair[1][0]]), np.array([pair[0][1], pair[1][1]])
    got = _qubit_optimum(a, b)[0]
    if alpha is None:
        assert 0.0 < got < 1.0
    else:
        assert abs(got - alpha) <= 1e-15
    sol = _closed_form(ops, np.eye(2, dtype=complex))
    assert_certified_optimum(sol, LmiProblem.from_matrices([dagger(f) @ f for f in ops]))


def numpy_qubit_optimum(a, b):
    """The numpy form of _qubit_optimum that the Python-float one replaced, kept as an oracle."""
    da, db = a[0] - a[1], b[0] - b[1]
    ell = float(np.sqrt(db @ db))
    dirs = [bn / np.sqrt(bn @ bn) for bn in b if bn.any()]
    if abs(da) >= ell:
        alpha = 0.0 if da > 0 else 1.0
    else:
        beta = float(db @ b[1]) / ell**2
        normal = np.cross(b[1], db)
        h = float(np.sqrt(normal @ normal)) / ell
        alpha = min(max(-beta - da * h / (ell * np.sqrt(ell**2 - da**2)), 0.0), 1.0)
        perp = np.cross(db, normal)
        if not perp.any():
            perp = np.cross(db, np.eye(3)[np.argmin(np.abs(db))])
        dirs.append(-da * db / ell**2 + np.sqrt(1.0 - (da / ell)**2) * perp / np.sqrt(perp @ perp))
    dirs = np.array(dirs or [np.eye(3)[2]])
    return alpha, dirs[np.argmax((a + dirs @ b.T).min(axis=1))]


def numpy_bloch_parts(operators, span):
    """Q from the QR of span, and the numpy (a, b) of the blocks Q'F_n'F_nQ = a_n 1 + b_n.sigma."""
    q, _ = np.linalg.qr(span)
    g = operators @ q
    blocks = g.conj().transpose(0, 2, 1) @ g
    diag = blocks[:, [0, 1], [0, 1]].real
    b = np.stack([blocks[:, 0, 1].real, -blocks[:, 0, 1].imag,
                  (diag[:, 0] - diag[:, 1]) / 2], axis=1)
    return q, diag.mean(axis=1), b


def numpy_closed_form(operators, span):
    """The numpy form of _closed_form at r = 2, kept as an oracle: (p, primal, dual, y)."""
    q, a, b = numpy_bloch_parts(operators, span)
    alpha, r = numpy_qubit_optimum(a, b)
    weights = np.array([alpha, 1.0 - alpha])
    top = weights @ b
    p = weights / (weights @ a + float(np.sqrt(top @ top)))
    proj = 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]])
    proj /= float(np.min(a + b @ r))
    y = q @ proj @ q.conj().T
    return p, float(np.sum(p)), float(np.trace(y).real), y


def support_two_problems():
    """2,068 seeded support-2 problems as (operators, span): 1,500 qubit
    conversions between Haar states (300 at each overlap a = 0, 0.25, 0.5,
    0.75, 0.9), 560 random Bloch pairs a_n 1 + b_n.sigma, of which 120 have
    collinear, 120 equal and 120 zero-difference-perpendicular Bloch parts,
    and the eight branch cases of test_closed_form_branches."""
    rng = make_rng(709)
    problems = []
    for a in (0.0, 0.25, 0.5, 0.75, 0.9):
        basis = qubit_free_basis(a)
        for _ in range(300):
            states = [haar_state(2, rng) for _ in range(2)]
            while any(superposition_rank(state, basis) != 2 for state in states):
                states = [haar_state(2, rng) for _ in range(2)]
            problems.append((enumerate_transformers(*states, basis).operators, basis.reciprocal))
    pairs = []
    for kind in ("random",) * 200 + ("collinear", "equal", "perp-zero") * 120:
        b1 = rng.normal(size=3)
        if kind == "random":
            b2 = rng.normal(size=3)
        elif kind == "collinear":
            b2 = rng.normal() * b1
        elif kind == "equal":
            b2 = b1.copy()
        else:   # b_2 along db: the cross products vanish and perp falls back to an axis
            b1 = np.array([0.0, 0.0, rng.normal()])
            b2 = np.array([0.0, 0.0, rng.normal()])
        a1, a2 = (np.linalg.norm(bn) + rng.uniform(0.1, 2.0) for bn in (b1, b2))
        if rng.uniform() < 0.1:   # da = 0: the stationary point is then -beta
            a1 = a2 = max(a1, a2)
        pairs.append(((a1, tuple(b1)), (a2, tuple(b2))))
    pairs += [case.values[0] for case in BRANCH_CASES]
    for pair in pairs:
        ops = np.array([bloch_operator(a, np.array(b)) for a, b in pair])
        problems.append((ops, np.eye(2, dtype=complex)))
    return problems


def test_closed_form_matches_numpy_oracle():
    # the Python-float closed form against the numpy one it replaced: the
    # arithmetic is the same but for the order of BLAS dot-product sums
    problems = support_two_problems()
    assert len(problems) >= 2000
    for operators, span in problems:
        _, a, b = numpy_bloch_parts(operators, span)
        alpha, r = numpy_qubit_optimum(a, b)
        got_alpha, got_r, _ = _qubit_optimum(a.tolist(), b.tolist())
        assert abs(got_alpha - alpha) <= 1e-14
        assert np.abs(np.subtract(got_r, r)).max() <= 1e-14
        p, primal, dual, y = numpy_closed_form(operators, span)
        sol = _closed_form(operators, span)
        assert np.abs(sol.p - p).max() <= 1e-14
        assert abs(sol.primal - primal) <= 1e-14 and abs(sol.dual - dual) <= 1e-14
        assert np.abs(sol.dual_matrix - y).max() <= 1e-14


def test_closed_form_keeps_the_gap_contract():
    # a closed-form gap above the tolerance raises as solve_lmi does; this
    # pair's gap is rounding residue (5.6e-17 with numpy 2.4, the closed form
    # in Python floats), and a negative tolerance is refused up front
    b = qubit_free_basis(0.5)
    source, target = qubit_state(np.pi / 2, 0.0), qubit_state(0.2, 0.0)
    gap = max_conversion_prob(source, target, b).gap
    assert gap > 0
    with pytest.raises(NoConvergence, match="duality gap"):
        max_conversion_prob(source, target, b, gap_tol=gap / 2)
    with pytest.raises(ValueError, match="finite positive"):
        max_conversion_prob(source, target, b, gap_tol=-1e-3)


def test_support_two_source_to_source_is_deterministic():
    # the identity is one of the two transformers, so the value reaches 1 and
    # the optimal operators get a free trace-preserving completion
    basis = qubit_free_basis(0.5)
    psi = qubit_state(np.pi / 2, 0.0)
    sol = max_conversion_prob(psi, psi, basis)
    assert abs(sol.value - 1.0) <= 1e-12 and abs(sol.gap) <= 1e-12
    ts = enumerate_transformers(psi, psi, basis)
    scaled = [np.sqrt(pn) * f for pn, f in zip(sol.p, ts.operators)]
    channel = Channel(tuple(scaled) + sol.completion)
    assert channel.is_trace_preserving
    assert all(is_free_kraus(k, basis) is not None for k in sol.completion)
    pure = np.outer(psi.amp, psi.amp.conj())
    assert np.abs(apply_channel(channel, DensityMatrix(pure)).mat - pure).max() <= 1e-10


@pytest.mark.xfail(strict=True, reason="at support r < d max_conversion_prob optimizes only "
                   "over the r! transformers that vanish off the support")
def test_support_two_self_conversion_reaches_one():
    b = symmetric_basis_d3()
    psi = PureState.normalized(b.state(0) + b.state(1))
    assert max_conversion_prob(psi, psi, b).value >= 1.0 - 1e-6


def kraus_tp_residuals(type1, type2, type3, type4, a):
    """Free-frame entries (0,0), (1,1) and (0,1) of -V'(1 - sum K'K)V over the
    operators free_qubit_kraus builds from the grouped coefficient pairs; all
    three vanish exactly when those operators form a trace-preserving set."""
    defect = np.eye(2, dtype=complex)
    for kind, group in enumerate((type1, type2, type3, type4), start=1):
        for pair in group:
            k = free_qubit_kraus(kind, pair, a)
            defect -= dagger(k) @ k
    v = qubit_free_basis(a).vectors
    r = -dagger(v) @ defect @ v
    return float(r[0, 0].real), float(r[1, 1].real), complex(r[0, 1])


def test_tp_residuals_identity_and_not():
    r1, r2, r3 = kraus_tp_residuals([(0, 0)], [(1, 1)], [(0, 0)], [(0, 0)], 0.5)
    assert abs(r1) < 1e-14 and abs(r2) < 1e-14 and abs(r3) < 1e-14
    r1, r2, r3 = kraus_tp_residuals([(0, 0)], [(0, 0)], [(0, 0)], [(1, 1)], 0.5)
    assert abs(r1) < 1e-14 and abs(r2) < 1e-14 and abs(r3) < 1e-14


def test_tp_residuals_row_pair():
    # two row-type operators with coefficients (1, 1)/sqrt2 and (1, -1)/sqrt2:
    # residuals (0, 0, -a)
    s = 1 / np.sqrt(2)
    r1, r2, r3 = kraus_tp_residuals([(s, s), (s, -s)], [], [], [], 0.5)
    assert abs(r1) < 1e-14
    assert abs(r2) < 1e-14
    assert abs(r3 - (-0.5)) < 1e-14
    # the operators preserve the trace in the orthonormal frame but miss it
    # by the cross term against an overlap
    k1 = free_qubit_kraus(1, (s, s), 0.5)
    k2 = free_qubit_kraus(1, (s, -s), 0.5)
    total = dagger(k1) @ k1 + dagger(k2) @ k2
    assert np.abs(total - np.eye(2)).max() > 0.1  # not trace preserving at a = 0.5


def transcribed_tp_sums(type1, type2, type3, type4, a):
    """Reference: the residuals written out as eight per-type sums."""
    a1, b1, g2, d2, m3, n3, e4, x4 = (
        np.asarray([pair[k] for pair in group], dtype=complex)
        for group in (type1, type2, type3, type4) for k in (0, 1))
    r1 = float(np.sum(np.abs(a1) ** 2) + np.sum(np.abs(g2) ** 2)
               + np.sum(np.abs(m3) ** 2) + np.sum(np.abs(e4) ** 2) - 1.0)
    r2 = float(np.sum(np.abs(b1) ** 2) + np.sum(np.abs(d2) ** 2)
               + np.sum(np.abs(n3) ** 2) + np.sum(np.abs(x4) ** 2) - 1.0)
    r3 = complex(np.sum(a1.conj() * b1) + np.sum(m3.conj() * n3)
                 + a * (np.sum(g2.conj() * d2) + np.sum(e4.conj() * x4) - 1.0))
    return r1, r2, r3


def test_tp_residuals_match_kraus_oracle():
    # free_qubit_kraus checked against the per-type sums: with no operators
    # the residuals are -G's entries (-1, -1, -a)
    rng = make_rng(706)
    assert np.abs(np.subtract(kraus_tp_residuals([], [], [], [], 0.4),
                              (-1.0, -1.0, -0.4))).max() < 1e-15
    for _ in range(300):
        a = float(rng.uniform(0.0, 0.9))
        groups = [[tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
                   for _ in range(int(rng.integers(0, 3)))] for _ in range(4)]
        got = kraus_tp_residuals(*groups, a)
        scale = 1.0 + np.abs(got).max()
        assert np.abs(np.subtract(got, transcribed_tp_sums(*groups, a))).max() <= 1e-10 * scale


def test_candidate_states_properties():
    b = symmetric_basis_d3()
    cands = candidate_states_d3()
    assert len(cands) == 4
    for cand in cands:
        assert abs(np.linalg.norm(cand.amp) - 1.0) < 1e-10
        assert superposition_rank(cand, b) == 3
        mags = np.abs(b.to_free_frame(cand.amp))
        assert np.abs(mags - np.sqrt(2 / 3)).max() < 1e-10


def loop_transformers(psi, phi, basis, support_r, support_s):
    """The per-label outer-product loop that built the transformers before
    FreeKrausForm.matrix became their constructor, kept as an oracle."""
    src = basis.to_free_frame(psi.amp)
    dst = basis.to_free_frame(phi.amp)
    v, w = basis.vectors, basis.reciprocal
    ops = []
    for image in itertools.permutations(support_s):
        f = np.zeros((basis.d, basis.d), dtype=complex)
        for j, fj in zip(support_r, image):
            f += (dst[fj] / src[j]) * np.outer(v[:, fj], w[:, j].conj())
        ops.append(f)
    return ops


def test_enumerate_transformers_matches_outer_product_loop():
    rng = make_rng(207)
    for r in range(2, 6):
        # d > r leaves the columns outside the source support zero
        for d in range(r, min(r + 3, 8) + 1):
            b = random_basis(d, rng)
            supports, states = [], []
            for _ in range(2):
                support = tuple(int(i) for i in np.sort(rng.choice(d, r, replace=False)))
                coeffs = np.zeros(d, dtype=complex)
                coeffs[list(support)] = rng.normal(size=r) + 1j * rng.normal(size=r)
                supports.append(support)
                states.append(PureState.normalized(b.vectors @ coeffs))
            ts = enumerate_transformers(states[0], states[1], b)
            assert (ts.support_source, ts.support_target) == tuple(supports)
            expected = loop_transformers(states[0], states[1], b, *supports)
            assert ts.operators.shape == (math.factorial(r), d, d)
            assert np.array_equal(ts.operators, np.array(expected))
