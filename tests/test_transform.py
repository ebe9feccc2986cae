import itertools
import json
import math
import pickle

import numpy as np
import pytest

from superpos import transform
from superpos.basis import new_free_basis, orthonormal_basis, symmetric_basis_d3, tensor_basis
from superpos.errors import LinearlyDependent, NoConvergence, RankMismatch
from superpos.cli import dispatch
from superpos.kraus import Channel, apply_channel, complete_free, is_free_kraus
from superpos.linalg import dagger
from superpos.qubit import PAULI, free_qubit_kraus, qubit_free_basis, qubit_state
from superpos.sampling import haar_state, haar_unitary, make_rng, random_basis
from superpos.sdp import DEFAULT_GAP_TOL, LmiProblem, solve_lmi, verify_dual
from superpos.serialize import basis_to_json, canonical_dumps, pure_state_to_json
from superpos.states import DensityMatrix, PureState, free_support, superposition_rank
from superpos.transform import (
    _closed_form,
    _gram_blocks,
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
    with pytest.raises(RankMismatch):
        max_conversion_prob(full, free, b)


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
    sol = _closed_form([(dagger(f) @ f).tolist() for f in ops], [[1.0, 0.0], [0.0, 1.0]])
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


def numpy_bloch_parts(operators, q):
    """The numpy (a, b) of the blocks Q'F_n'F_nQ = a_n 1 + b_n.sigma, q orthonormal columns."""
    g = operators @ q
    blocks = g.conj().transpose(0, 2, 1) @ g
    diag = blocks[:, [0, 1], [0, 1]].real
    b = np.stack([blocks[:, 0, 1].real, -blocks[:, 0, 1].imag,
                  (diag[:, 0] - diag[:, 1]) / 2], axis=1)
    return diag.mean(axis=1), b


def numpy_closed_form(operators, q):
    """The numpy form of the r = 2 closed form on the operators' products, kept as an
    oracle: (p, primal, dual, y) on the orthonormal columns q."""
    a, b = numpy_bloch_parts(operators, q)
    alpha, r = numpy_qubit_optimum(a, b)
    weights = np.array([alpha, 1.0 - alpha])
    top = weights @ b
    p = weights / (weights @ a + float(np.sqrt(top @ top)))
    proj = 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]])
    proj /= float(np.min(a + b @ r))
    y = q @ proj @ q.conj().T
    return p, float(np.sum(p)), float(np.trace(y).real), y


def bloch_pair_operators():
    """568 seeded operator pairs F_n with F_n'F_n = a_n 1 + b_n.sigma: 560 random
    Bloch pairs, of which 120 have collinear, 120 equal and 120
    zero-difference-perpendicular Bloch parts, and the eight branch cases of
    test_closed_form_branches."""
    rng = make_rng(709)
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
    return [np.array([bloch_operator(a, np.array(b)) for a, b in pair]) for pair in pairs]


def test_closed_form_matches_numpy_oracle():
    # the Python-float closed form on the blocks against the numpy one on the
    # operators: the arithmetic is the same but for the order of BLAS sums
    eye = np.eye(2, dtype=complex)
    for operators in bloch_pair_operators():
        a, b = numpy_bloch_parts(operators, eye)
        alpha, r = numpy_qubit_optimum(a, b)
        got_alpha, got_r, _ = _qubit_optimum(a.tolist(), b.tolist())
        assert abs(got_alpha - alpha) <= 1e-14
        assert np.abs(np.subtract(got_r, r)).max() <= 1e-14
        p, primal, dual, y = numpy_closed_form(operators, eye)
        sol = _closed_form([(dagger(f) @ f).tolist() for f in operators], eye.tolist())
        assert np.abs(sol.p - p).max() <= 1e-14
        assert abs(sol.primal - primal) <= 1e-14 and abs(sol.dual - dual) <= 1e-14
        assert np.abs(sol.dual_matrix - y).max() <= 1e-14


def supported_state(rng, basis, support=(0, 1)):
    """A state whose free-frame coefficients are complex Gaussian on ``support``, 0 off it."""
    coeffs = np.zeros(basis.d, dtype=complex)
    coeffs[list(support)] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return PureState.normalized(basis.vectors @ coeffs)


def gram_path_conversions():
    """2,110 seeded support-2 conversions as (psi, phi, basis): 1,500 between
    Haar qubit states (300 at each overlap a = 0, 0.25, 0.5, 0.75, 0.9) and 120 at
    partial support on random bases (20 at each d = 3..8, each state on two labels
    of its own); and 490 on near-dependent bases, column 0 of a
    random basis replaced by column 1 plus eps times a complex Gaussian (10 at
    each d = 2..8 for each eps = 1e-2, 1e-3, ..., 1e-7 and 3e-8, the last close
    to the independence threshold: a basis new_free_basis refuses is redrawn)."""
    rng = make_rng(709)
    out = []
    for a in (0.0, 0.25, 0.5, 0.75, 0.9):
        basis = qubit_free_basis(a)
        for _ in range(300):
            states = [haar_state(2, rng) for _ in range(2)]
            while any(superposition_rank(state, basis) != 2 for state in states):
                states = [haar_state(2, rng) for _ in range(2)]
            out.append((*states, basis))
    for d in range(3, 9):
        for _ in range(20):
            basis = random_basis(d, rng)
            states = [supported_state(rng, basis, rng.choice(d, 2, replace=False))
                      for _ in range(2)]
            out.append((*states, basis))
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 3e-8):
        for d in range(2, 9):
            for _ in range(10):
                basis = None
                while basis is None:
                    v = random_basis(d, rng).vectors.copy()
                    v[:, 0] = v[:, 1] + eps * (rng.normal(size=d) + 1j * rng.normal(size=d))
                    v[:, 0] /= np.linalg.norm(v[:, 0])
                    try:
                        basis = new_free_basis(list(v.T))
                    except LinearlyDependent:
                        pass
                states = [supported_state(rng, basis) for _ in range(2)]
                out.append((*states, basis))
    return out


def test_gram_blocks_match_numpy_oracle():
    # the blocks read off the Gram matrix against Q'F'FQ from the enumerated
    # operators, and max_conversion_prob against the numpy closed form on the
    # same Q, within 1e-14 of the largest entry compared. Gram-Schmidt run
    # twice keeps Q orthonormal to rounding also on the near-dependent bases,
    # where one pass left it off by ~4e-16/eps (1.4e-8 at eps = 3e-8). The
    # returned dual passes verify_dual and pairs every K'K to 1 within 1e-13
    conversions = gram_path_conversions()
    assert len(conversions) == 2110
    for psi, phi, basis in conversions:
        src, dst = basis.to_free_frame(psi.amp), basis.to_free_frame(phi.amp)
        support_r, support_s = free_support(src), free_support(dst)
        assert len(support_r) == len(support_s) == 2
        blocks, q = _gram_blocks(basis, src, dst, support_r, support_s)
        q = np.array(q)   # the d rows of Q, as Python numbers
        span = basis.reciprocal[:, list(support_r)]
        assert np.abs(dagger(q) @ q - np.eye(2)).max() <= 1e-15
        assert np.abs(q @ (dagger(q) @ span) - span).max() <= 1e-14 * np.abs(span).max()
        operators = enumerate_transformers(psi, phi, basis).operators
        g = operators @ q
        products = g.conj().transpose(0, 2, 1) @ g
        assert np.abs(np.array(blocks) - products).max() <= 1e-14 * np.abs(products).max()
        p, primal, dual, y = numpy_closed_form(operators, q)
        sol = max_conversion_prob(psi, phi, basis)
        scale = max(1.0, np.abs(y).max(), primal)
        assert np.abs(sol.p - p).max() <= 1e-14 * scale
        assert abs(sol.primal - primal) <= 1e-14 * scale
        assert abs(sol.dual - dual) <= 1e-14 * scale
        assert np.abs(sol.dual_matrix - y).max() <= 1e-14 * scale
        problem = LmiProblem.from_matrices(operators.conj().transpose(0, 2, 1) @ operators)
        assert verify_dual(sol.dual_matrix, problem)[0]
        pairings = np.einsum("nij,ji->n", problem.operators, sol.dual_matrix).real
        assert pairings.min() >= 1.0 - 1e-13


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


def test_deterministic_needs_a_value_within_gap_tol_of_one(tmp_path, capsys):
    # a certified primal lies within gap_tol of the optimum, so a value below
    # 1 - gap_tol is no deterministic pair: at gap_tol 0.1 and 0.5 this
    # value-0.17 pair gets no completion, and `convert prob --tol 0.1` says so;
    # every full-support self-conversion (optimum 1) still gets one at the
    # default tolerance, at r = 1 on orthonormal bases and at r = d = 2..5
    basis = qubit_free_basis(0.5)
    source, target = qubit_state(np.pi / 2, 0.3), qubit_state(1.1, 2.0)
    for gap_tol in (0.1, 0.5):
        sol = max_conversion_prob(source, target, basis, gap_tol=gap_tol)
        assert sol.value < 0.2 and sol.completion is None
    paths = [tmp_path / name for name in ("from.json", "to.json", "basis.json")]
    for path, payload in zip(paths, (pure_state_to_json(source), pure_state_to_json(target),
                                     basis_to_json(basis))):
        path.write_text(canonical_dumps(payload), encoding="utf-8")
    assert dispatch(["convert", "prob", "--from", str(paths[0]), "--to", str(paths[1]),
                     "--basis", str(paths[2]), "--tol", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["deterministic"] is False
    rng = make_rng(710)
    for d in range(2, 6):
        ortho, rand = orthonormal_basis(d), random_basis(d, rng)
        for psi, b in ((PureState(ortho.state(d - 1)), ortho), (haar_state(d, rng), rand)):
            assert max_conversion_prob(psi, psi, b).completion is not None


def operator_form_p(operators, span):
    """p of the operator-product closed form: Q from one QR of span, blocks Q'F'FQ."""
    q, _ = np.linalg.qr(span)
    if len(operators) == 1:
        g = operators[0] @ q
        return np.array([1.0 / float((dagger(g) @ g)[0, 0].real)])
    return numpy_closed_form(operators, q)[0]


def test_self_conversion_completion_matches_the_operator_form(monkeypatch):
    # self-conversions at r = 1, 2 on the five qubit overlaps (the heatmap
    # source (pi/2, 0) among them) and on random and orthonormal d = 3..5
    # bases: the completion is present exactly where the operator-product
    # closed form reaches 1 - gap_tol, and then equals the completion of its
    # weighted operators within 1e-15, is free, and makes them trace
    # preserving. It is built on first read by one complete_free call, bit for
    # bit that of the solution's own weights, and kept; None reads call nothing
    calls = []
    monkeypatch.setattr(transform, "complete_free", lambda *args: calls.append(args) or complete_free(*args))
    rng = make_rng(711)
    cases = []
    for a in (0.0, 0.25, 0.5, 0.75, 0.9):
        basis = qubit_free_basis(a)
        cases += [(PureState(basis.state(0)), basis), (qubit_state(np.pi / 2, 0.0), basis)]
        cases += [(supported_state(rng, basis), basis) for _ in range(4)]
    for d in range(3, 6):
        # on the orthonormal basis the r < d self-conversions leave a defect to complete
        for basis in [random_basis(d, rng) for _ in range(3)] + [orthonormal_basis(d)] * 2:
            cases.append((PureState(basis.state(int(rng.integers(d)))), basis))
            cases.append((supported_state(rng, basis, rng.choice(d, 2, replace=False)), basis))
    present = absent = 0
    for psi, basis in cases:
        sol = max_conversion_prob(psi, psi, basis)
        assert not calls
        ts = enumerate_transformers(psi, psi, basis)
        p = operator_form_p(ts.operators, basis.reciprocal[:, list(ts.support_source)])
        scaled = np.sqrt(np.clip(p, 0.0, None))[:, None, None] * ts.operators
        if float(np.sum(p)) < 1.0 - 1e-7:
            absent += 1
            assert sol.completion is None and not calls
            continue
        present += 1
        completion = sol.completion
        assert sol.completion is completion and len(calls) == 1
        calls.clear()
        eager = complete_free(np.sqrt(np.clip(sol.p, 0.0, None))[:, None, None] * ts.operators, basis)
        assert len(completion) == len(eager)
        assert all(np.array_equal(got, want) for got, want in zip(completion, eager))
        expected = complete_free(scaled, basis)
        assert len(completion) == len(expected)
        for got, want in zip(completion, expected):
            assert np.abs(got - want).max() <= 1e-15
            assert is_free_kraus(got, basis) is not None
        assert Channel(tuple(scaled) + completion).is_trace_preserving
    assert present >= 30 and absent >= 1


def test_conversion_solutions_pickle_with_the_completion_unread_and_read():
    # a deterministic solution keeps its completion builder as a partial of a
    # module-level function, so it pickles before and after the first read, and
    # the copy builds, or keeps, the completion the original read: none at the
    # qubit self-conversion, one operator at support 2 of 3 and three at the
    # support-3 candidate; a pair below 1 - gap_tol pickles and reads None
    qubit = qubit_free_basis(0.5)
    source = qubit_state(np.pi / 2, 0.0)
    plane = orthonormal_basis(3)
    two = PureState.normalized(plane.state(0) + plane.state(1))
    candidate = candidate_states_d3()[0]
    sizes = []
    for psi, basis in ((source, qubit), (two, plane), (candidate, symmetric_basis_d3())):
        sol = max_conversion_prob(psi, psi, basis)
        unread = pickle.loads(pickle.dumps(sol))
        completion = sol.completion
        read = pickle.loads(pickle.dumps(sol))
        sizes.append(len(completion))
        for copy in (unread, read):
            assert np.array_equal(copy.p, sol.p) and (copy.value, copy.gap) == (sol.value, sol.gap)
            assert len(copy.completion) == len(completion)
            assert all(np.array_equal(got, want) for got, want in zip(copy.completion, completion))
    assert sizes == [0, 1, 3]
    sol = max_conversion_prob(source, qubit_state(1.1, 2.0), qubit)
    copy = pickle.loads(pickle.dumps(sol))
    assert sol.value < 1.0 - 1e-7 and copy.value == sol.value and copy.completion is None


def test_writing_into_p_leaves_the_unread_completion_alone():
    # the completion is built on first read from the optimal weights; it once read
    # the returned p itself, so zeroing p first gave the qubit self-conversion two
    # completion operators where a fresh solve has none
    plane = orthonormal_basis(3)
    cases = ((qubit_state(np.pi / 2, 0.0), qubit_free_basis(0.5)),
             (PureState.normalized(plane.state(0) + plane.state(1)), plane),
             (candidate_states_d3()[0], symmetric_basis_d3()))
    for psi, basis in cases:
        sol = max_conversion_prob(psi, psi, basis)
        sol.p[:] = 0.0
        fresh = max_conversion_prob(psi, psi, basis).completion
        assert len(sol.completion) == len(fresh)
        assert all(np.array_equal(got, want) for got, want in zip(sol.completion, fresh))


def _product_pair(basis, product, x, y):
    """x (x) y, and whether its support on the product basis is the product of the supports."""
    sx, sy = (free_support(basis.to_free_frame(s.amp)) for s in (x, y))
    xy = PureState(np.kron(x.amp, y.amp))
    return xy, free_support(product.to_free_frame(xy.amp)) == tuple(2 * i + j for i in sx for j in sy)


def test_two_copy_and_catalytic_conversions_bound_the_single_copy():
    # on tensor_basis(b, b) the product of two enumerated transformers is one of
    # the product pair's, and the identity is one of chi -> chi's, so wherever the
    # product supports are the products of the supports:
    #   p(psi psi -> phi phi) >= p(psi -> phi)^2 and p(psi chi -> phi chi) >= p(psi -> phi),
    # with the product solve's certified gap as the only slack. A support-4 solve
    # whose Schur factorisation fails at the default gap_tol (a = 0.3 pairs 58 and
    # 68, a = 0.6 pairs 49 and 83 for two copies; a = 0 pair 34, p = 1, for the
    # catalyst) is counted, then solved again at gap_tol 1e-6
    failures, checked = [], 0
    for a, seed in ((0.0, 11), (0.3, 311), (0.6, 611)):
        basis = qubit_free_basis(a)
        product = tensor_basis(basis, basis)
        rng = make_rng(seed)
        for n in range(120):
            psi, phi, chi = (haar_state(2, rng) for _ in range(3))
            p1 = max_conversion_prob(psi, phi, basis).value
            for kind, x, y, bound in (("two copies", psi, phi, p1 ** 2), ("catalyst", chi, chi, p1)):
                (src, src_ok), (dst, dst_ok) = (_product_pair(basis, product, psi, x),
                                                _product_pair(basis, product, phi, y))
                if not (src_ok and dst_ok):
                    continue
                try:
                    sol = max_conversion_prob(src, dst, product)
                except NoConvergence as exc:
                    assert "factorisation failed" in str(exc), (a, n, kind, str(exc))
                    failures.append((a, n, kind))
                    sol = max_conversion_prob(src, dst, product, gap_tol=1e-6)
                checked += 1
                assert sol.value >= bound - sol.gap, (a, n, kind, sol.value, bound, sol.gap)
    assert checked == 720
    assert len(failures) <= 5, failures


def vidal_tails(weights):
    """E_l for l = 0..r-1: the sum of all but the l largest of ``weights``."""
    return np.cumsum(np.sort(weights))[::-1]


def test_orthonormal_conversions_follow_vidals_formula():
    # on an orthonormal basis V every K'K is V diag(|phi_s(k)|^2 / |psi_k|^2) V',
    # so the conversion LMI is a linear program, and its optimum is Vidal's
    # min_l E_l(psi) / E_l(phi) over the free-frame coefficients (PRL 83, 1046),
    # E_l the sum of all but the l largest |c_k|^2 on the support. Its dual, at the
    # minimising l, is V diag(y) V' with y_k = |psi_k|^2 / E_l(phi) on psi's r - l
    # smallest labels: every pairing is a sum of r - l of phi's weights over
    # E_l(phi), so at least 1, and its trace is the formula. Checked on the
    # identity and on a Haar-rotated basis at d = 2..8 and equal supports
    # r = 2..5, 8 pairs each, with the certified gap as the only slack beyond
    # rounding (1.2e-15 seen). Two solves lose the Schur factor at the default
    # gap_tol on 1 to 8 OpenBLAS threads (d = 7, r = 3 pair 7 rotated; d = 7,
    # r = 5 pair 3 on the identity), and a third (d = 8, r = 5 pair 4 rotated)
    # only on one thread, whose summation order differs; they are counted, then
    # solved at gap_tol 1e-6
    rounding = 1e-14
    rng = make_rng(123)
    failures, checked = [], 0
    for d in range(2, 9):
        for r in range(2, min(d, transform.MAX_SUPPORT) + 1):
            bases = orthonormal_basis(d), new_free_basis(list(haar_unitary(d, rng).T))
            for rotated, basis in enumerate(bases):
                for n in range(8):
                    psi, phi = (supported_state(rng, basis, np.sort(rng.choice(d, r, replace=False)))
                                for _ in range(2))
                    label = (d, r, "rotated" if rotated else "identity", n)
                    cp, cf = basis.to_free_frame(psi.amp), basis.to_free_frame(phi.amp)
                    sp, sf = list(free_support(cp)), list(free_support(cf))
                    wp, ef = np.abs(cp[sp]) ** 2, vidal_tails(np.abs(cf[sf]) ** 2)
                    ratios = vidal_tails(wp) / ef
                    l = int(np.argmin(ratios))
                    formula = float(ratios[l])
                    y = np.zeros(d)
                    smallest = np.array(sp)[np.argsort(wp, kind="stable")[:r - l]]
                    y[smallest] = np.abs(cp[smallest]) ** 2 / ef[l]
                    ops = enumerate_transformers(psi, phi, basis).operators
                    problem = LmiProblem.from_matrices(ops.conj().transpose(0, 2, 1) @ ops)
                    feasible, trace = verify_dual(basis.vectors @ np.diag(y) @ dagger(basis.vectors), problem)
                    assert feasible and abs(trace - formula) <= rounding, (label, trace, formula)
                    try:
                        sol = max_conversion_prob(psi, phi, basis)
                    except NoConvergence as exc:
                        assert "factorisation failed" in str(exc), (label, str(exc))
                        failures.append(label)
                        sol = max_conversion_prob(psi, phi, basis, gap_tol=1e-6)
                    checked += 1
                    assert formula - sol.gap - rounding <= sol.value <= formula + rounding, \
                        (label, sol.value, formula, sol.gap)
    assert checked == 352
    single_thread_only = (8, 5, "rotated", 4)
    assert [label for label in failures if label != single_thread_only] == \
        [(7, 3, "rotated", 7), (7, 5, "identity", 3)], failures


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
