import numpy as np
import pytest

from superpos.errors import DimensionMismatch, NonHermitian
from superpos.linalg import (
    dagger,
    fidelity,
    herm_eig,
    hermitian_part,
    partial_trace,
    psd_part,
)
from superpos.sampling import make_rng


def characteristic_roots(h: np.ndarray) -> np.ndarray:
    """Independent oracle: Faddeev-LeVerrier coefficients, roots via the companion matrix."""
    n = h.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(h @ m).real / k)
    return np.sort(np.roots(coeffs).real)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_matrix_rules_hold_on_stacks(n):
    # an (n, 3, 3) stack gets each matrix's own result: a transpose of the whole
    # stack, or one matrix's clipping weights broadcast over another, does not
    rng = make_rng(110 + n)
    stack = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    for rule in (dagger, hermitian_part, psd_part):
        out = rule(stack)
        assert out.shape == (n, 3, 3), rule.__name__
        for a, b in zip(out, stack):
            assert np.array_equal(a, rule(b)), rule.__name__


def test_herm_eig_identity():
    w, _ = herm_eig(np.eye(3, dtype=complex))
    assert np.allclose(w, [1, 1, 1], atol=1e-12)


def test_herm_eig_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    w, _ = herm_eig(sx)
    assert np.allclose(w, [-1, 1], atol=1e-12)


def test_herm_eig_symmetric_gram():
    # Gram matrix (1 + delta_ij)/2 has eigenvalues (1/2, 1/2, 2)
    g = 0.5 * (np.eye(3) + np.ones((3, 3)))
    w, _ = herm_eig(g)
    assert np.allclose(w, [0.5, 0.5, 2.0], atol=1e-12)
    assert np.allclose(characteristic_roots(g.astype(complex)), w, atol=1e-8)


def test_herm_eig_matches_characteristic_polynomial():
    rng = make_rng(101)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = hermitian_part(g)
        w, _ = herm_eig(h)
        assert np.abs(w - characteristic_roots(h)).max() < 1e-8


def test_herm_eig_invariants_random():
    rng = make_rng(102)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        h = hermitian_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        w, v = herm_eig(h)
        scale = max(np.linalg.norm(h), 1e-300)
        assert np.linalg.norm(v @ (w[:, None] * dagger(v)) - h) <= 1e-9 * scale
        assert np.linalg.norm(dagger(v) @ v - np.eye(d)) <= 1e-10
        assert np.all(np.diff(w) >= -1e-14)
        for lam, vec in zip(w, v.T):
            assert np.linalg.norm(h @ vec - lam * vec) <= 1e-10 * scale


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_rejects_non_matrices():
    for bad in (np.ones(3), np.ones((2, 3))):
        with pytest.raises(DimensionMismatch):
            herm_eig(bad)


def test_herm_eig_accepts_rounding_residue_near_zero():
    # 1 - sum K'K of the game's informative operators on an orthonormal basis
    # is rounding residue (norm ~2e-16) whose anti-Hermitian part is ~1e-17:
    # far below 1e-8 in absolute terms, so it must not read as non-Hermitian
    from superpos.basis import orthonormal_basis
    from superpos.game import build_game

    residue = np.eye(3, dtype=complex)
    for k in build_game(orthonormal_basis(3)).informative:
        residue -= dagger(k) @ k
    assert 0 < np.linalg.norm(residue - dagger(residue)) < 1e-15
    w, v = herm_eig(residue)
    assert np.abs(w).max() < 1e-15
    assert np.linalg.norm(dagger(v) @ v - np.eye(3)) <= 1e-10


def test_choi_of_phi_is_psd():
    from superpos.qubit import build_phi, choi

    c = choi(build_phi(0.3, np.pi / 4, 0.0))
    w = np.linalg.eigvalsh(c)
    assert w[0] >= -1e-9 * max(1.0, np.abs(w).max())


def test_fidelity_extremes():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    assert abs(fidelity(rho, np.diag([0.0, 1.0]).astype(complex))) < 1e-12


def test_fidelity_rejects_non_hermitian_sigma():
    # at rho = 1/2 the product sqrt(rho) sigma sqrt(rho) is non-Hermitian; at the
    # pure rho it is 0.5 |0><0|, Hermitian outright, so sigma itself is checked
    sigma = np.array([[0.5, 0.4], [0.0, 0.5]])
    for rho in (np.diag([0.5, 0.5]), np.diag([1.0, 0.0])):
        with pytest.raises(NonHermitian):
            fidelity(rho, sigma)
    # rounding residue in a Hermitian sigma passes
    residue = 1e-17j * np.array([[0, 1], [0, 0]])
    assert abs(fidelity(np.eye(2) / 2, np.eye(2) / 2 + residue) - 1) < 1e-12


def test_partial_trace_of_product():
    rng = make_rng(105)
    a = hermitian_part(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    b = hermitian_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, 2, 3, "a"), a * np.trace(b), atol=1e-12)
    assert np.allclose(partial_trace(joint, 2, 3, "b"), b * np.trace(a), atol=1e-12)
