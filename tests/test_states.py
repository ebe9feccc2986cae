import numpy as np
import pytest

from superpos.basis import symmetric_basis_d3
from superpos.errors import DimensionMismatch, InvalidState, NotNormalized
from superpos.kraus import is_free_kraus
from superpos.qubit import qubit_free_basis
from superpos.sampling import haar_state, make_rng, random_basis, random_free_operator
from superpos.states import (
    DensityMatrix,
    PureState,
    free_expansion,
    free_mixture,
    is_free,
    schmidt_rank,
    superposition_rank,
)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_rejects_nan_amplitudes():
    with pytest.raises(NotNormalized):
        PureState(np.array([np.nan, 0.0]))


def test_density_matrix_validation():
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([0.45, 0.45]))  # trace 0.9
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian


def test_free_expansion_basis_projector():
    b = symmetric_basis_d3()
    c1 = b.state(0)
    coeffs = free_expansion(DensityMatrix(np.outer(c1, c1.conj())), b)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.abs(coeffs - expected).max() < 1e-12


def test_free_expansion_equal_mixture():
    b = qubit_free_basis(0.4)
    rho = free_mixture(b, [0.5, 0.5])
    coeffs = free_expansion(rho, b)
    assert np.abs(coeffs - np.diag([0.5, 0.5])).max() < 1e-12


def test_free_expansion_uniform_superposition_d3():
    # |phi> = sum |c_i> / sqrt(6): the Gram of pairwise overlap 1/2 forces N^2 = 1/6
    b = symmetric_basis_d3()
    phi = PureState(b.vectors.sum(axis=1) / np.sqrt(6))
    coeffs = free_expansion(phi.density(), b)
    assert np.abs(coeffs - np.full((3, 3), 1 / 6)).max() < 1e-12
    # reconstruction oracle
    recon = b.vectors @ coeffs @ b.vectors.conj().T
    assert np.abs(recon - phi.density().mat).max() < 1e-12


def test_free_expansion_reconstructs_random_states():
    rng = make_rng(301)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        b = random_basis(d, rng)
        psi = haar_state(d, rng)
        coeffs = free_expansion(psi.density(), b)
        recon = b.vectors @ coeffs @ b.vectors.conj().T
        assert np.abs(recon - psi.density().mat).max() <= 1e-9


def test_superposition_rank_examples():
    b = symmetric_basis_d3()
    assert superposition_rank(PureState(b.state(1)), b) == 1
    b2 = qubit_free_basis(0.3)
    two = PureState.normalized(b2.state(0) + b2.state(1))
    assert superposition_rank(two, b2) == 2
    # the computational vector e_1 is (-|c_1> + |c_2> + |c_3|)/sqrt(2): full rank
    target = PureState(np.array([1, 0, 0], dtype=complex))
    assert superposition_rank(target, b) == 3
    assert np.allclose(b.to_free_frame(target.amp) * np.sqrt(2), [-1, 1, 1], atol=1e-12)


def test_is_free_examples():
    b = symmetric_basis_d3()
    assert is_free(free_mixture(b, [0.2, 0.3, 0.5]), b)
    b2 = qubit_free_basis(0.5)
    psi = PureState.normalized(b2.state(0) + b2.state(1))
    assert not is_free(psi.density(), b2)


def test_is_free_image_of_phi_on_free_states():
    # the channel image of every free state is p|c1><c1| + q|c2><c2| with
    # p - q = cos(theta) sqrt((1-a)/(1+a)) / 2
    a, theta = 0.5, np.pi / 3
    b = qubit_free_basis(a)
    ct = np.cos(theta)
    kappa = np.sqrt((1 - a) / (1 + a))
    p = 0.5 + 0.25 * ct * kappa
    root = np.sqrt(1 - a * a)
    rho_c = 0.5 * np.array([[1 + 0.5 * ct * (1 - a), a], [a, 1 - 0.5 * ct * (1 - a)]])
    rho = DensityMatrix(rho_c)
    assert is_free(rho, b)
    coeffs = free_expansion(rho, b)
    assert abs(coeffs[0, 0].real - p) < 1e-12
    assert abs(coeffs[1, 1].real - (1 - p)) < 1e-12


def test_schmidt_rank_examples():
    product = PureState(np.kron([1, 0], [1, 0]).astype(complex))
    assert schmidt_rank(product, 2, 2) == 1
    bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert schmidt_rank(bell, 2, 2) == 2
    rng = make_rng(302)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d + 1))
        amps = np.zeros(d, dtype=complex)
        amps[:k] = rng.normal(size=k) + 1j * rng.normal(size=k)
        amps[:k][np.abs(amps[:k]) < 1e-3] = 0.5  # keep entries away from zero
        amps /= np.linalg.norm(amps)
        vec = np.zeros(d * d, dtype=complex)
        for i in range(d):
            vec[i * d + i] = amps[i]
        assert schmidt_rank(PureState(vec), d, d) == k
    with pytest.raises(DimensionMismatch):
        schmidt_rank(bell, 2, 3)


def test_rank_never_increases_under_free_kraus():
    rng = make_rng(303)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        psi = haar_state(d, rng)
        k = random_free_operator(b, rng)
        assert is_free_kraus(k, b) is not None
        out = k @ psi.amp
        if np.linalg.norm(out) < 1e-8:
            continue
        assert superposition_rank(PureState.normalized(out), b) <= superposition_rank(psi, b)
