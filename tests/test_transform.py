import itertools

import numpy as np
import pytest

from superpos.basis import orthonormal_basis, symmetric_basis_d3
from superpos.errors import RankMismatch
from superpos.kraus import is_free_kraus
from superpos.linalg import dagger
from superpos.qubit import qubit_free_basis
from superpos.sampling import haar_state, make_rng, random_basis
from superpos.states import PureState, superposition_rank
from superpos.transform import (
    candidate_states_d3,
    enumerate_transformers,
    max_conversion_prob,
    qubit_tp_residuals,
)


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


def test_tp_residuals_identity_and_not():
    zero = [(0.0, 0.0)]
    r1, r2, r3 = qubit_tp_residuals([(0, 0)], [(1, 1)], [(0, 0)], [(0, 0)], 0.5)
    assert abs(r1) < 1e-14 and abs(r2) < 1e-14 and abs(r3) < 1e-14
    r1, r2, r3 = qubit_tp_residuals([(0, 0)], [(0, 0)], [(0, 0)], [(1, 1)], 0.5)
    assert abs(r1) < 1e-14 and abs(r2) < 1e-14 and abs(r3) < 1e-14


def test_tp_residuals_row_pair():
    # two row-type operators with coefficients (1, 1)/sqrt2 and (1, -1)/sqrt2:
    # residuals (0, 0, -a)
    s = 1 / np.sqrt(2)
    r1, r2, r3 = qubit_tp_residuals([(s, s), (s, -s)], [], [], [], 0.5)
    assert abs(r1) < 1e-14
    assert abs(r2) < 1e-14
    assert abs(r3 - (-0.5)) < 1e-14
    # oracle: the transformed operators really do preserve the trace in the
    # orthonormal frame but miss it by the cross term against an overlap
    from superpos.qubit import free_qubit_kraus

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
    # the residuals are the free-frame entries (0,0), (1,1), (0,1) of
    # -V'(1 - sum K'K)V over the operators free_qubit_kraus builds
    from superpos.qubit import free_qubit_kraus

    rng = make_rng(706)
    assert qubit_tp_residuals([], [], [], [], 0.4) == (-1.0, -1.0, -0.4 + 0j)
    for _ in range(300):
        a = float(rng.uniform(0.0, 0.9))
        groups = [[tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
                   for _ in range(int(rng.integers(0, 3)))] for _ in range(4)]
        v = qubit_free_basis(a).vectors
        defect = np.eye(2, dtype=complex)
        for kind, group in enumerate(groups, start=1):
            for pair in group:
                k = free_qubit_kraus(kind, pair, a)
                defect -= dagger(k) @ k
        oracle = -dagger(v) @ defect @ v
        got = qubit_tp_residuals(*groups, a)
        expected = (oracle[0, 0].real, oracle[1, 1].real, oracle[0, 1])
        scale = 1.0 + np.abs(oracle).max()
        assert np.abs(np.subtract(got, expected)).max() <= 1e-10 * scale
        assert np.abs(np.subtract(got, transcribed_tp_sums(*groups, a))).max() <= 1e-13


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
            assert len(ts.operators) == len(expected)
            assert all(np.array_equal(f, g) for f, g in zip(ts.operators, expected))
