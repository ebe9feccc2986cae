import numpy as np
import pytest

from superpos.basis import (
    FreeBasis,
    filter_probability,
    new_free_basis,
    orthonormal_basis,
    symmetric_basis_d3,
    tensor_basis,
)
from superpos.errors import DimensionMismatch, LinearlyDependent, NotNormalized
from superpos.game import build_game, simulate
from superpos.kraus import Channel, is_mfo
from superpos.linalg import dagger, herm_eig
from superpos.sampling import make_rng, random_basis, random_free_state
from superpos.states import PureState, free_mixture


def test_basis_arrays_are_read_only():
    # the reciprocal frame and the Gram matrix are computed from the vectors
    # once, so none of the three may change after the check
    b = symmetric_basis_d3()
    for array in (b.vectors, b.gram, b.reciprocal, b._reciprocal_dagger):
        with pytest.raises(ValueError, match="read-only"):
            array[:, 0] *= 3
    assert np.allclose(b.reciprocal.conj().T @ b.vectors, np.eye(3), atol=1e-12)
    b.state(0)[0] = 1.0  # state() returns a writable copy


def test_free_basis_keeps_its_own_copy_of_the_callers_array():
    # the basis checks and rescales the columns it is given into its own array,
    # so the caller's array stays writable and a later write does not reach it
    v = np.array([[1, 0.6], [0, 0.8]], dtype=complex)
    b = FreeBasis(v)
    assert v.flags.writeable and not b.vectors.flags.writeable
    v[:, 1] = [0, 1]
    assert np.array_equal(b.vectors, [[1, 0.6], [0, 0.8]]) and abs(b.gram[0, 1] - 0.6) < 1e-15


def test_to_free_frame_is_the_reciprocal_dagger_product():
    # the stored W' gives the bits of W' computed on each call, also for real input
    rng = make_rng(3803)
    for d in range(2, 9):
        b = random_basis(d, rng)
        for amp in (rng.normal(size=d) + 1j * rng.normal(size=d), rng.normal(size=d)):
            assert np.array_equal(b.to_free_frame(amp), dagger(b.reciprocal) @ amp)


def triangular_qubit_basis(theta: float):
    """Columns (1, 0) and (sin, cos): overlap sin(theta)."""
    return new_free_basis([[1, 0], [np.sin(theta), np.cos(theta)]])


def test_orthonormal_basis_is_self_reciprocal():
    b = orthonormal_basis(2)
    assert np.allclose(b.vectors, np.eye(2))
    assert np.allclose(b.reciprocal, np.eye(2))
    assert abs(filter_probability(b) - 1.0) < 1e-12


def test_triangular_basis_reciprocal_columns():
    b = triangular_qubit_basis(np.pi / 3)
    assert np.allclose(b.reciprocal[:, 0], [1, -np.sqrt(3)], atol=1e-12)
    assert np.allclose(b.reciprocal[:, 1], [0, 2], atol=1e-12)
    assert np.linalg.norm(b.reciprocal.conj().T @ b.vectors - np.eye(2)) < 1e-12


def test_symmetric_d3_reciprocal_vectors():
    b = symmetric_basis_d3()
    expected = np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float).T / np.sqrt(2)
    assert np.allclose(b.reciprocal, expected, atol=1e-12)


def test_gram_examples():
    assert np.allclose(orthonormal_basis(3).gram, np.eye(3), atol=1e-12)
    g3 = symmetric_basis_d3().gram
    assert np.allclose(g3, 0.5 * (np.eye(3) + np.ones((3, 3))), atol=1e-12)
    st = np.sin(np.pi / 3)
    g2 = triangular_qubit_basis(np.pi / 3).gram
    assert np.allclose(g2, [[1, st], [st, 1]], atol=1e-12)


def test_filter_probability_examples():
    assert abs(filter_probability(orthonormal_basis(4)) - 1.0) < 1e-12
    assert abs(filter_probability(symmetric_basis_d3()) - 0.5) < 1e-12
    b = triangular_qubit_basis(np.pi / 3)
    # smallest eigenvalue of the 2x2 Gram [[1, s], [s, 1]] is 1 - s
    assert abs(filter_probability(b) - (1 - np.sqrt(3) / 2)) < 1e-12


def test_filter_probability_matches_gram_eigenvalue():
    b = symmetric_basis_d3()
    eigs, _ = herm_eig(b.gram)
    assert np.allclose(eigs, [0.5, 0.5, 2.0], atol=1e-12)
    assert abs(filter_probability(b) - eigs[0]) < 1e-12


def test_biorthogonality_random_bases():
    rng = make_rng(201)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        b = random_basis(d, rng)
        assert np.linalg.norm(b.reciprocal.conj().T @ b.vectors - np.eye(d)) <= 1e-10
        overlaps = b.reciprocal.conj().T @ b.vectors
        assert np.abs(overlaps - np.eye(d)).max() <= 1e-10


def test_filter_probability_saturates_bound():
    rng = make_rng(202)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        b = random_basis(d, rng)
        p = filter_probability(b)
        inv = np.linalg.inv(b.vectors)
        top = np.linalg.eigvalsh(p * inv.conj().T @ inv)[-1]
        assert abs(top - 1.0) <= 1e-9


def test_rejects_unnormalized_columns():
    with pytest.raises(NotNormalized):
        new_free_basis([[1, 0], [1, 1]])


def test_columns_near_unit_norm_are_stored_at_unit_norm():
    # a column accepted within UNIT_NORM_TOL of norm 1 used to be stored as given,
    # and the tighter trace and norm checks downstream then refused the basis's
    # own free states; columns already within 1e-12 of norm 1 keep their bits
    rng = make_rng(4007)
    v = np.array([[1, 0.3], [0, 1]], dtype=complex)
    drafts = [v / np.linalg.norm(v, axis=0) * (1 + 5e-9)]
    for d in (2, 3, 4):
        w = random_basis(d, rng).vectors
        assert new_free_basis(list(w.T)).vectors.tobytes() == w.tobytes()
        drafts.append(w * (1 + rng.uniform(-9e-9, 9e-9, size=d)))
    for draft in drafts:
        b = new_free_basis(list(draft.T))
        assert np.abs(np.linalg.norm(b.vectors, axis=0) - 1.0).max() <= 1e-15
        free_mixture(b, np.full(b.d, 1 / b.d))
        random_free_state(b, rng)
        assert is_mfo(Channel([np.eye(b.d)]), b)
        PureState(b.state(0))
        simulate(build_game(b), "superposed", 10, 0)


def test_rejects_dependent_columns():
    with pytest.raises(LinearlyDependent):
        new_free_basis([[1, 0], [1, 1e-10]])


def test_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatch):
        new_free_basis([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionMismatch):
        new_free_basis([[1.0]])


def test_phase_freedom_accepted():
    b = new_free_basis([[1j, 0], [0, np.exp(0.3j)]])
    assert abs(filter_probability(b) - 1.0) < 1e-12


def test_tensor_basis_structure():
    rng = make_rng(203)
    a = random_basis(2, rng)
    c = random_basis(3, rng)
    prod = tensor_basis(a, c)
    assert prod.d == 6
    for i in range(2):
        for j in range(3):
            col = prod.vectors[:, i * 3 + j]
            assert np.allclose(col, np.kron(a.vectors[:, i], c.vectors[:, j]), atol=1e-12)
    assert np.allclose(prod.reciprocal, np.kron(a.reciprocal, c.reciprocal), atol=1e-9)
