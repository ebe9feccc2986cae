import copy
import pickle

import numpy as np
import pytest

from superpos.basis import symmetric_basis_d3
from superpos.entangle import faithful_conversion
from superpos.errors import DimensionMismatch, InvalidState, NotNormalized
from superpos.game import build_game
from superpos.kraus import Channel, FreeKrausForm, is_free_kraus
from superpos.linalg import dagger, hermitian_part
from superpos.measures import l1_measure, robustness
from superpos.qubit import build_phi, qubit_free_basis, qubit_state
from superpos.sdp import LmiProblem, solve_lmi
from superpos.sampling import haar_state, make_rng, random_basis, random_free_operator
from superpos.states import (
    PURE_NORM_TOL,
    RANK_TOL,
    DensityMatrix,
    PureState,
    free_expansion,
    free_mixture,
    free_support,
    is_free,
    schmidt_rank,
    superposition_rank,
)
from superpos.transform import enumerate_transformers


def test_pure_state_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_rejects_nan_amplitudes():
    with pytest.raises(NotNormalized):
        PureState(np.array([np.nan, 0.0]))


def test_pure_state_takes_one_dimensional_amplitudes_only():
    # a matrix is not a vector of amplitudes, however its entries are laid out
    for bad in (np.eye(2) / np.sqrt(2), np.array([[1.0, 0.0]]), np.array(1.0)):
        with pytest.raises(DimensionMismatch, match=r"amplitudes must be 1-dimensional, got shape"):
            PureState(bad)
    for bad in (np.eye(2), np.ones((1, 3))):
        with pytest.raises(DimensionMismatch, match=r"amplitudes must be 1-dimensional, got shape"):
            PureState.normalized(bad)
    assert np.allclose(PureState.normalized([3.0, 4.0j]).amp, [0.6, 0.8j], rtol=0, atol=1e-15)


def test_pure_state_norm_check_is_numpy_norm():
    # amplitudes whose np.linalg.norm sits a few ulps either side of 1 -+ 1e-10
    # pass exactly when numpy's norm does, and a refusal prints numpy's norm
    rng = make_rng(3802)
    for d in range(1, 9):
        u = rng.normal(size=d) + 1j * rng.normal(size=d)
        u /= np.linalg.norm(u)
        for edge in (1.0 - PURE_NORM_TOL, 1.0 + PURE_NORM_TOL):
            outcomes = set()
            for k in range(-8, 9):
                v = u * (edge + k * 2.0**-52)
                norm = np.linalg.norm(v)
                try:
                    PureState(v)
                    outcomes.add(True)
                    assert abs(norm - 1.0) <= PURE_NORM_TOL
                except NotNormalized as exc:
                    outcomes.add(False)
                    assert not abs(norm - 1.0) <= PURE_NORM_TOL
                    assert str(exc) == f"state norm {norm:.12g} != 1"
            assert outcomes == {True, False}
        for scale in (1.0 - 0.9e-10, 1.0 + 0.9e-10):
            PureState(u * scale)
        for scale in (1.0 - 1.1e-10, 1.0 + 1.1e-10):
            with pytest.raises(NotNormalized):
                PureState(u * scale)


def numpy_free_support(coeffs, tol=RANK_TOL):
    """The numpy form of free_support that the Python-float one replaced, kept as an oracle."""
    mags = np.abs(coeffs)
    return tuple(int(i) for i in np.where(mags > tol * mags.max())[0])


def test_free_support_matches_numpy_oracle():
    # seeded d = 2..8 coefficients with zeros, one entry exactly at the cut
    # tol * max|c| (not above it, so left out) and one an ulp either side
    rng = make_rng(3801)
    for tol in (1e-12, RANK_TOL, 1e-3, 0.5):
        for d in range(2, 9):
            for _ in range(30):
                c = (rng.normal(size=d) + 1j * rng.normal(size=d)) * 10.0**rng.uniform(-5, 5)
                c[rng.uniform(size=d) < 0.3] = 0.0
                top = int(np.argmax(np.abs(c)))
                others = [i for i in range(d) if i != top]
                cut = tol * np.abs(c).max()
                c[rng.choice(others)] = cut
                if d > 2:
                    c[rng.choice(others)] = np.nextafter(cut, rng.choice([0.0, np.inf]))
                got = free_support(c, tol)
                assert got == numpy_free_support(c, tol)
                assert all(abs(c[i]) > cut for i in got)


def test_free_support_of_non_finite_and_empty_coefficients():
    # a NaN anywhere gives no support, as numpy's NaN maximum does; so does an
    # infinite entry (the cut is then infinite); no coefficients raise ValueError
    for d in range(1, 9):
        for i in range(d):
            for bad in (np.nan, complex(0.0, np.nan), np.inf):
                c = np.ones(d, dtype=complex)
                c[i] = bad
                assert free_support(c) == () == numpy_free_support(c)
    with pytest.raises(ValueError):
        free_support(np.zeros(0, dtype=complex))


def test_density_matrix_validation():
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([0.45, 0.45]))  # trace 0.9
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian


def test_density_matrix_rejects_non_finite_and_non_square():
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.diag([np.nan, 1.0]))
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.ones((2, 3)) / 2)


def test_pure_state_amplitudes_are_read_only():
    amp = np.array([0.6, 0.8j])
    psi = PureState(amp)
    with pytest.raises(ValueError, match="read-only"):
        psi.amp[0] = 1.0
    amp[0] = 1.0  # the state holds a copy: the caller's array stays writable
    assert psi.amp[0] == 0.6


def test_density_matrix_is_read_only():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[0, 1] = 0.5


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


def test_schmidt_rank_cut_is_relative_to_the_largest_singular_value():
    # the rule of superposition_rank: free_support over the singular values
    maximal = PureState(np.eye(4).ravel() / 2)   # four singular values of 1/2
    assert schmidt_rank(maximal, 4, 4, tol=0.6) == 4   # an absolute 0.6 would keep none
    tiny = PureState.normalized([1.0, 0.0, 0.0, 3e-9])   # singular values 1 and 3e-9
    assert schmidt_rank(tiny, 2, 2) == 2
    assert schmidt_rank(tiny, 2, 2, tol=2.9e-9) == 2 and schmidt_rank(tiny, 2, 2, tol=3.1e-9) == 1
    rng = make_rng(303)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        psi = haar_state(d * d, rng)
        s = np.linalg.svd(psi.amp.reshape(d, d), compute_uv=False)
        tol = float(s[-1] / s[0]) * 1.001   # just above the smallest ratio
        assert schmidt_rank(psi, d, d, tol) == len(free_support(s, tol)) == d - 1


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


def test_array_holding_dataclasses_compare_by_identity():
    # == and `in` on the library's array-holding records return a bool (identity),
    # where a field-wise == would ask numpy for the truth value of an array
    b = symmetric_basis_d3()
    psi = PureState(b.state(0))
    rho = psi.density()
    records = [
        b, psi, rho, Channel((np.eye(3),)),
        FreeKrausForm(np.ones(3, dtype=complex), np.arange(3)),
        LmiProblem.from_matrices([np.eye(2)]), solve_lmi(LmiProblem.from_matrices([np.eye(2)])),
        l1_measure(rho, b), robustness(rho, b), faithful_conversion(b), build_phi(0.5, 1.0, 0.0),
        build_game(b), enumerate_transformers(psi, psi, b),
    ]
    for record in records:
        twin = copy.copy(record)
        assert (record == record) is True and (record == twin) is False
        assert (record != twin) is True
        assert record in records and twin not in records


def test_records_unpickle_through_their_constructors():
    # a pickle rebuilds each record through its constructor: every array comes back
    # read-only and bit-equal, and so do the values the record derives when built
    b = qubit_free_basis(0.5)
    psi, phi = qubit_state(np.pi / 2, 0.0), qubit_state(1.1, 2.0)
    transformers = enumerate_transformers(psi, phi, b)
    cases = [
        (b, ("vectors", "gram", "reciprocal", "sigma_min", "_reciprocal_dagger", "d")),
        (psi, ("amp",)),
        (free_mixture(b, [0.3, 0.7]), ("mat",)),
        (Channel((np.sqrt(0.5) * np.eye(2), 0.5 * np.eye(2))), ("kraus", "defect", "defect_eig")),
        (LmiProblem.from_matrices(transformers.operators.conj().transpose(0, 2, 1) @ transformers.operators),
         ("operators", "dim", "_lambda_max")),
        (transformers, ("support_source", "support_target", "operators")),
        (build_game(b), ("p", "informative", "restart")),
        (faithful_conversion(symmetric_basis_d3()), ("splitter", "local_filter", "probability")),
    ]
    for record, names in cases:
        twin = pickle.loads(pickle.dumps(record))
        assert type(twin) is type(record)
        for name in names:
            got, want = getattr(twin, name), getattr(record, name)
            for g, w in zip(got, want, strict=True) if isinstance(want, tuple) else [(got, want)]:
                if isinstance(w, np.ndarray):
                    assert not g.flags.writeable, (type(record).__name__, name)
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                else:
                    assert type(g) is type(w) and g == w


# one planted matrix of each kind the density-matrix rule refuses, and a state it accepts
GOOD = np.eye(2, dtype=complex) / 2
BAD = {
    "not_hermitian": np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex),
    "trace": np.diag([0.5, 0.5 + 3e-9]).astype(complex),
    "eigenvalue": np.diag([1.0 + 5e-9, -5e-9]).astype(complex),
    "nan": np.diag([np.nan, 1.0]).astype(complex),
}
STACKS = [(kind,) for kind in BAD] + [(a, b) for a in BAD for b in BAD if a != b]


def one_by_one_error(mats) -> tuple:
    """The class and message that building the states one at a time raises first."""
    for mat in mats:
        try:
            DensityMatrix(mat)
        except (InvalidState, ValueError) as exc:
            return type(exc), str(exc)
    raise AssertionError("no matrix of the stack fails")


def stack_error(mats) -> tuple | None:
    """The class and message of the first matrix whose Hermitian part fails the trace or eigenvalue
    test, as building that part one at a time raises them; a NaN on the diagonal fails the trace test.
    None when every matrix passes."""
    for mat in mats:
        if np.isnan(mat.trace()):
            return InvalidState, "trace nan != 1"
        try:
            DensityMatrix(hermitian_part(mat))
        except InvalidState as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("kinds", STACKS, ids="-".join)
def test_a_stack_raises_what_one_by_one_construction_raises(kinds):
    # the stacked rule takes the Hermitian part of the stack, then runs the trace
    # and eigenvalue tests matrix by matrix: a non-Hermitian plant builds as its
    # Hermitian part, a NaN plant fails its trace test where it stands, and a
    # trace or eigenvalue plant raises what building the states one at a time raises
    mats = np.array([GOOD, *(BAD[kind] for kind in kinds), GOOD])
    want = stack_error(mats)
    if kinds[0] in ("trace", "eigenvalue"):
        assert want == one_by_one_error(mats) and want[1] == one_by_one_error([BAD[kinds[0]]])[1]
    if want is None:
        records = DensityMatrix._stack(mats)
        assert [r.mat.tobytes() for r in records] == [hermitian_part(mat).tobytes() for mat in mats]
        return
    with pytest.raises(InvalidState) as info:
        DensityMatrix._stack(mats)
    assert (type(info.value), str(info.value)) == want


def test_an_empty_stack_builds_no_record():
    assert DensityMatrix._stack(np.zeros((0, 3, 3), dtype=complex)) == []


def test_a_stack_with_anti_hermitian_residue_holds_each_hermitian_part():
    # an outcome stack formed by a product carries rounding in its anti-Hermitian
    # part; each record holds the Hermitian part of its own matrix, bit for bit
    rng = make_rng(418)
    for d in range(2, 9):
        mats = np.array([haar_state(d, rng).density().mat for _ in range(4)])
        noise = rng.normal(size=mats.shape) + 1j * rng.normal(size=mats.shape)
        anti = noise - dagger(noise)
        mats += 1e-6 * anti / np.linalg.norm(anti, axis=(1, 2))[:, None, None]   # unit-norm states
        with pytest.raises(InvalidState, match="not Hermitian"):   # a matrix from outside is checked
            DensityMatrix(mats[0])
        for record, mat in zip(DensityMatrix._stack(mats), mats, strict=True):
            assert record.mat.tobytes() == hermitian_part(mat).tobytes() and not record.mat.flags.writeable


def test_a_stack_of_states_matches_one_by_one_records():
    rng = make_rng(417)
    for d in range(2, 9):
        mats = np.array([haar_state(d, rng).density().mat for _ in range(5)]) * (1 + 1e-12)
        mats[1] += 1e-12j * np.triu(np.ones((d, d)), 1)   # rounding residue the Hermitian part removes
        records = DensityMatrix._stack(mats)
        assert [type(r) for r in records] == [DensityMatrix] * 5
        for record, mat in zip(records, mats):
            want = DensityMatrix(mat).mat
            assert record.mat.tobytes() == want.tobytes()
            assert not record.mat.flags.writeable and record.mat.base is None   # its own array
