import numpy as np
import pytest

from superpos.basis import orthonormal_basis, symmetric_basis_d3
from superpos.entangle import ConversionMap, faithful_conversion, verify_faithful
from superpos.errors import DimensionMismatch, LinearlyDependent, NotNormalized
from superpos.linalg import dagger
from superpos.sampling import haar_state, make_rng, random_basis
from superpos.states import PureState, schmidt_rank, superposition_rank


def filter_validity_defect(conv: ConversionMap) -> float:
    """Largest eigenvalue of filter'filter minus 1; <= 0 means trace non-increasing."""
    f = conv.local_filter
    return float(np.max(np.linalg.eigvalsh(dagger(f) @ f)) - 1.0)


def test_orthonormal_copier():
    b = orthonormal_basis(3)
    conv = faithful_conversion(b)
    assert abs(conv.probability - 1.0) < 1e-12
    assert abs(conv.success_probability - 1.0) < 1e-12
    for i in range(3):
        out = conv.splitter @ b.state(i)
        expected = np.kron(b.state(i), b.state(i))
        assert np.linalg.norm(out - expected) < 1e-12


def test_orthonormal_locals_trivial_filter():
    rng = make_rng(1001)
    b = random_basis(3, rng)
    conv = faithful_conversion(b)
    assert np.abs(conv.local_filter - np.eye(3)).max() < 1e-12
    assert abs(conv.probability - 1.0) < 1e-12


def test_symmetric_d3_self_local_probability():
    b = symmetric_basis_d3()
    conv = faithful_conversion(b, [b.state(i) for i in range(3)])
    assert abs(conv.probability - 0.5) < 1e-12
    assert abs(conv.success_probability - 0.25) < 1e-12
    assert filter_validity_defect(conv) <= 1e-9


def test_full_rank_state_converts_to_rank_three():
    b = symmetric_basis_d3()
    target = PureState(np.array([1, 0, 0], dtype=complex))
    conv = faithful_conversion(b)
    assert verify_faithful(conv, target, b)
    out = PureState.normalized(conv.convert(target))
    assert schmidt_rank(out, 3, 3) == 3


def test_single_free_state_stays_product():
    b = symmetric_basis_d3()
    conv = faithful_conversion(b)
    psi = PureState(b.state(0))
    assert verify_faithful(conv, psi, b)
    assert schmidt_rank(PureState.normalized(conv.convert(psi)), 3, 3) == 1


def test_random_conversions_preserve_rank():
    rng = make_rng(1002)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        conv = faithful_conversion(b)
        psi = haar_state(d, rng)
        assert verify_faithful(conv, psi, b)
        out = PureState.normalized(conv.convert(psi))
        assert schmidt_rank(out, d, d, 1e-8) == superposition_rank(psi, b)


def test_filters_never_increase_schmidt_rank():
    rng = make_rng(1003)
    b = symmetric_basis_d3()
    conv_nonorth = faithful_conversion(b, [b.state(i) for i in range(3)])
    for _ in range(100):
        psi = haar_state(3, rng)
        raw = conv_nonorth.splitter @ psi.amp
        before = schmidt_rank(PureState.normalized(raw), 3, 3, 1e-8)
        filtered = np.kron(conv_nonorth.local_filter, conv_nonorth.local_filter) @ raw
        after = schmidt_rank(PureState.normalized(filtered), 3, 3, 1e-8)
        assert after <= before


def test_linearly_dependent_labels_break_faithfulness():
    # appending |c_3> = (|c_1>+|c_2>)/sqrt(2) to an orthonormal pair: the
    # copier's image of that free label has Schmidt rank 2, but as a free
    # state its classical rank would be 1
    b = orthonormal_basis(2)
    conv = faithful_conversion(b)
    appended = PureState.normalized(b.state(0) + b.state(1))
    image = PureState.normalized(conv.convert(appended))
    assert schmidt_rank(image, 2, 2) == 2  # not a product state: unfaithful on the extended set


def test_rejects_dependent_locals():
    b = orthonormal_basis(2)
    with pytest.raises(LinearlyDependent):
        faithful_conversion(b, [[1, 0], [1, 1e-12]])


def test_rejects_non_unit_or_wrong_sized_locals():
    b = orthonormal_basis(2)
    with pytest.raises(NotNormalized):
        faithful_conversion(b, [[2, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        faithful_conversion(b, np.eye(3))
