import numpy as np
import pytest

from superpos.basis import (
    filter_probability,
    gram,
    new_free_basis,
    orthonormal_basis,
    symmetric_basis_d3,
    tensor_basis,
)
from superpos.errors import DimensionMismatch, LinearlyDependent, NotNormalized
from superpos.linalg import herm_eig
from superpos.sampling import make_rng, random_basis


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
    assert np.allclose(gram(orthonormal_basis(3)), np.eye(3), atol=1e-12)
    g3 = gram(symmetric_basis_d3())
    assert np.allclose(g3, 0.5 * (np.eye(3) + np.ones((3, 3))), atol=1e-12)
    st = np.sin(np.pi / 3)
    g2 = gram(triangular_qubit_basis(np.pi / 3))
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
