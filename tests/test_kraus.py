import re

import numpy as np
import pytest

from superpos.basis import orthonormal_basis, symmetric_basis_d3, tensor_basis
from superpos.errors import DimensionMismatch, NotFree, NotSubnormalized, NotTracePreserving
from superpos.kraus import (
    Channel,
    FreeKrausForm,
    apply_channel,
    complete_free,
    free_channel,
    is_free_kraus,
    is_mfo,
    measure_selective,
    reduce_ancilla,
)
from superpos.linalg import dagger, partial_trace
from superpos.qubit import build_phi, channel_from_bloch, free_qubit_kraus, qubit_free_basis
from superpos.sampling import (
    haar_state,
    make_rng,
    random_basis,
    random_density,
    random_free_operator,
    random_free_state,
    random_subnormalized_free_ops,
)
from superpos.states import DensityMatrix, PureState, free_expansion, is_free


def test_identity_is_free():
    b = qubit_free_basis(0.5)
    form = is_free_kraus(np.eye(2, dtype=complex), b)
    assert form is not None
    assert np.allclose(form.coeffs, [1, 1], atol=1e-12)
    assert list(form.index_fn) == [0, 1]


def test_exact_transformer_is_free():
    # sqrt(p) sum_j (phi_f(j)/psi_j)|c_f(j)><c_j^perp| is free for any index map
    rng = make_rng(401)
    b = random_basis(3, rng)
    psi = haar_state(3, rng)
    phi = haar_state(3, rng)
    src = b.to_free_frame(psi.amp)
    dst = b.to_free_frame(phi.amp)
    f = [2, 0, 1]
    k = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        k += np.sqrt(0.3) * (dst[f[j]] / src[j]) * np.outer(b.vectors[:, f[j]],
                                                            b.reciprocal[:, j].conj())
    form = is_free_kraus(k, b)
    assert form is not None
    assert np.abs(form.matrix(b) - k).max() < 1e-9
    assert np.linalg.norm(k @ psi.amp - np.sqrt(0.3) * phi.amp) < 1e-9


def test_hadamard_not_free_on_overlapping_basis():
    b = qubit_free_basis(0.5)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert is_free_kraus(h, b) is None


def test_roundtrip_random_free_operators():
    rng = make_rng(402)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        k = random_free_operator(b, rng)
        form = is_free_kraus(k, b)
        assert form is not None
        assert np.abs(form.matrix(b) - k).max() <= 1e-9


def test_apply_channel_identity():
    rng = make_rng(403)
    rho = haar_state(2, rng).density()
    ch = Channel((np.eye(2, dtype=complex),))
    assert np.abs(apply_channel(ch, rho).mat - rho.mat).max() < 1e-12


def test_apply_channel_two_row_operators():
    # two row-type incoherent operators map |+><+| onto the first basis projector
    k1 = np.array([[1, 1], [0, 0]]) / np.sqrt(2)
    k2 = np.array([[1, -1], [0, 0]]) / np.sqrt(2)
    ch = Channel((k1, k2))
    assert ch.is_trace_preserving
    plus = PureState(np.array([1, 1]) / np.sqrt(2))
    out = apply_channel(ch, plus.density())
    assert np.abs(out.mat - np.diag([1.0, 0.0])).max() < 1e-12


def test_apply_channel_requires_trace_preserving():
    ch = Channel((np.sqrt(0.5) * np.eye(2, dtype=complex),))
    with pytest.raises(NotTracePreserving):
        apply_channel(ch, PureState(np.array([1.0, 0.0])).density())


def test_measure_selective_identity():
    rho = PureState(np.array([1.0, 0.0])).density()
    outcomes = measure_selective(Channel((np.eye(2, dtype=complex),)), rho)
    assert len(outcomes) == 1
    p, out = outcomes[0]
    assert abs(p - 1.0) < 1e-12
    assert np.abs(out.mat - rho.mat).max() < 1e-12


def test_measure_selective_uniform_on_free_input():
    from superpos.game import build_game

    b = symmetric_basis_d3()
    spec = build_game(b)
    rho = random_free_state(b, make_rng(404))
    outcomes = measure_selective(Channel(spec.informative + spec.restart), rho)
    informative = outcomes[: b.d]
    for p, out in informative:
        assert abs(p - spec.p / b.d) < 1e-10
        assert np.abs(out.mat - rho.mat).max() < 1e-9  # no information leaks


def test_measure_selective_rejects_outcomes_above_one():
    # each input passes its own check within 1e-9, but together the outcome
    # total comes to (1 + 0.9e-9)^2 = 1.0000000018 > 1 + TP_TOL
    ch = Channel((np.sqrt(1 + 0.9e-9) * np.eye(2, dtype=complex),))
    rho = DensityMatrix((0.5 + 0.45e-9) * np.eye(2, dtype=complex))
    with pytest.raises(NotSubnormalized, match="1.0000000018"):
        measure_selective(ch, rho)


def test_complete_free_trace_preserving_input():
    b = symmetric_basis_d3()
    u = np.eye(3, dtype=complex)
    assert complete_free([u], b) == []


def test_complete_free_uniform_contraction():
    b = symmetric_basis_d3()
    ops = [np.sqrt(0.5) * np.eye(3, dtype=complex)]
    comp = complete_free(ops, b)
    total = sum(dagger(k) @ k for k in comp)
    assert np.abs(total - 0.5 * np.eye(3)).max() < 1e-9
    assert all(is_free_kraus(k, b) is not None for k in comp)


def test_complete_free_matches_explicit_pair():
    # the diagonal/antidiagonal operators generating the maximal state leave
    # exactly the residue that the two row/flip operators of the channel carry
    from superpos.qubit import generate_from_m2

    a, theta, phi = 0.5, np.pi / 2, 0.0
    ch = generate_from_m2(theta, phi, a)
    k1, k2, k3, k4 = ch.kraus
    partial = [k2, k4]
    residue = np.eye(2, dtype=complex) - sum(dagger(k) @ k for k in partial)
    explicit = dagger(k1) @ k1 + dagger(k3) @ k3
    assert np.abs(residue - explicit).max() < 1e-10
    comp = complete_free(partial, qubit_free_basis(a))
    total = sum(dagger(k) @ k for k in list(partial) + comp)
    assert np.abs(total - np.eye(2)).max() < 1e-9
    assert all(is_free_kraus(k, qubit_free_basis(a)) is not None for k in comp)


def test_complete_free_random_sets_all_free():
    rng = make_rng(405)
    for trial in range(300):
        d = int(rng.integers(2, 5))
        b = orthonormal_basis(d) if trial % 4 == 0 else random_basis(d, rng)
        ops = random_subnormalized_free_ops(b, rng, n_ops=int(rng.integers(1, 4)))
        comp = complete_free(ops, b)
        total = sum(dagger(k) @ k for k in list(ops) + comp)
        assert np.abs(total - np.eye(d)).max() <= 1e-9
        assert all(is_free_kraus(k, b, 1e-8) is not None for k in comp)


def test_complete_free_rejects_oversized_sets():
    b = qubit_free_basis(0.2)
    with pytest.raises(NotSubnormalized):
        complete_free([np.sqrt(1.5) * np.eye(2, dtype=complex)], b)


def test_complete_free_rejects_empty_set():
    with pytest.raises(DimensionMismatch, match="at least one Kraus operator"):
        complete_free([], qubit_free_basis(0.2))


def test_channel_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        k = 0.5 * np.eye(2, dtype=complex)
        k[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Channel((0.5 * np.eye(2), k))


def test_channel_operators_are_read_only():
    # defect is computed once, so the stack it was computed from must not change
    ops = [np.sqrt(0.5) * np.eye(2, dtype=complex)] * 2
    ch = Channel(ops)
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus[0] *= 10
    assert np.linalg.norm(ch.defect) <= 1e-12
    ops[0] *= 2  # the stack is a copy: the caller's arrays stay writable


def test_channel_defect_is_read_only():
    # is_trace_preserving and complete_free read the defect and its eigh
    ch = Channel([np.sqrt(0.5) * np.eye(2)] * 2)
    for array in (ch.defect, *ch.defect_eig):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    assert ch.is_trace_preserving


def test_channel_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatch, match="share one shape"):
        Channel((0.5 * np.eye(2), 0.5 * np.eye(3)))
    with pytest.raises(DimensionMismatch, match="share one shape"):
        Channel((0.5 * np.eye(2), np.zeros((3, 2))))
    # one row count but two shapes, which numpy cannot stack even as objects,
    # and ragged rows within one operator
    for ragged in ((0.5 * np.eye(2), np.zeros((2, 3))), [[[0.5, 0.0], [0.0]]]):
        with pytest.raises(DimensionMismatch, match="share one shape"):
            Channel(ragged)


def test_channel_rejects_entries_that_are_not_numbers():
    # a ValueError from numpy, not a shape error: the operators share one shape
    for bad in ([[["a"]]], [[[0.5, "x"], [0.0, 0.5]]], np.array([[["a", "b"], ["c", "d"]]])):
        with pytest.raises(ValueError, match="malformed string"):
            Channel(bad)


def test_channel_rejects_non_square_operators():
    # an isometry from C^2 to C^3 cannot be applied to a state of either space
    with pytest.raises(DimensionMismatch, match=re.escape("must be square, got shape (3, 2)")):
        Channel([[[1, 0], [0, 1], [0, 0]]])
    with pytest.raises(DimensionMismatch, match=re.escape("must be square, got shape (2, 3)")):
        Channel(np.zeros((2, 2, 3)))


def test_channel_rejects_operators_that_are_not_matrices():
    for bad in (np.ones(2), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatch, match="2-dimensional"):
            Channel((bad,))
        with pytest.raises(DimensionMismatch, match="2-dimensional"):
            Channel((bad, bad))
        with pytest.raises(DimensionMismatch):
            Channel((0.5 * np.eye(2), bad))


def test_channel_takes_a_stack_whole():
    # an (n, d, d) array gives the same channel, bit for bit, as its list of
    # operators, and stays the caller's own; the defect is, bit for bit, the
    # identity minus each K'K in operator order
    rng = make_rng(419)
    for d, n in ((2, 1), (3, 4), (5, 120)):
        stack = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        stack /= np.sqrt(1.01 * np.linalg.eigvalsh((stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0))[-1])
        kept = stack.copy()
        ch, listed = Channel(stack), Channel(list(stack))
        defect = np.eye(d, dtype=complex)
        for kk in stack.conj().transpose(0, 2, 1) @ stack:
            defect -= kk
        assert ch.defect.tobytes() == defect.tobytes()
        for got, want in ((ch.kraus, listed.kraus), (ch.defect, listed.defect),
                          (ch.defect_eig[0], listed.defect_eig[0]), (ch.defect_eig[1], listed.defect_eig[1])):
            assert got.tobytes() == want.tobytes()
        assert stack.flags.writeable and np.array_equal(stack, kept)
        stack[0] = 0.0   # the channel holds a copy
        assert np.array_equal(ch.kraus, kept)
    assert Channel(0.5 * np.eye(2)[None]).kraus.dtype == complex
    with pytest.raises(DimensionMismatch, match="at least one Kraus operator"):
        Channel(np.zeros((0, 2, 2)))
    for bad in (np.eye(2), np.zeros((1, 2, 2, 2))):
        with pytest.raises(DimensionMismatch, match="2-dimensional"):
            Channel(bad)
    with pytest.raises(ValueError, match="non-finite"):
        Channel(np.full((2, 2, 2), np.nan))


def test_freeness_closure_on_free_states():
    rng = make_rng(406)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        b = random_basis(d, rng)
        k = random_free_operator(b, rng)
        rho = random_free_state(b, rng)
        out = k @ rho.mat @ dagger(k)
        tr = np.trace(out).real
        if tr < 1e-8:
            continue
        assert is_free(DensityMatrix(out / tr), b, 1e-8)


def test_fo_channels_are_mfo():
    rng = make_rng(407)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        b = random_basis(d, rng)
        ops = random_subnormalized_free_ops(b, rng, n_ops=2)
        ch = free_channel(ops, b)
        assert ch.is_trace_preserving
        assert is_mfo(ch, b, 1e-8)


def test_is_mfo_examples():
    b = qubit_free_basis(0.5)
    assert is_mfo(Channel((np.eye(2, dtype=complex),)), b)
    # the free-state-preserving Bloch channel is maximally free
    ch = channel_from_bloch(build_phi(0.5, np.pi / 4, 0.3))
    assert is_mfo(ch, b, 1e-8)
    # replacing every state by |+><+| is not
    plus = np.array([1, 1]) / np.sqrt(2)
    replace = Channel((np.outer(plus, [1, 0]), np.outer(plus, [0, 1])))
    assert not is_mfo(replace, b)


def test_is_mfo_rejects_trace_decreasing_channel():
    with pytest.raises(NotTracePreserving):
        is_mfo(Channel((0.5 * np.eye(2, dtype=complex),)), qubit_free_basis(0.5))


def test_reduce_ancilla_identity():
    rng = make_rng(408)
    ba, bb = random_basis(2, rng), random_basis(2, rng)
    sigma = DensityMatrix(np.outer(bb.state(0), bb.state(0).conj()))
    fam = reduce_ancilla(np.eye(4, dtype=complex), sigma, ba, bb)
    rho = haar_state(2, rng).density()
    out = sum(f @ rho.mat @ dagger(f) for f in fam)
    assert np.abs(out - rho.mat).max() < 1e-9


def reduced_action(l_op: np.ndarray, rho_a: np.ndarray, sigma_b: DensityMatrix,
                   dim_a: int, dim_b: int) -> np.ndarray:
    """Direct evaluation of ``tr_B L (rho_A (x) sigma_B) L'``."""
    joint = np.kron(np.asarray(rho_a, dtype=complex), sigma_b.mat)
    return partial_trace(l_op @ joint @ dagger(l_op), dim_a, dim_b, keep="a")


def test_reduce_ancilla_swap_like_operator():
    ba = qubit_free_basis(0.3)
    bb = qubit_free_basis(0.3)
    prod = tensor_basis(ba, bb)
    # |c_1 c_1><(c_1 c_1)^perp| + |c_2 c_1><(c_2 c_2)^perp|: a free projector family
    l_op = (np.outer(prod.vectors[:, 0], prod.reciprocal[:, 0].conj())
            + np.outer(prod.vectors[:, 2], prod.reciprocal[:, 3].conj()))
    sigma = DensityMatrix(np.outer(bb.state(0), bb.state(0).conj()))
    fam = reduce_ancilla(l_op, sigma, ba, bb)
    for i in range(2):
        for j in range(2):
            rho = np.outer(ba.vectors[:, i], ba.vectors[:, j].conj())
            direct = reduced_action(l_op, rho, sigma, 2, 2)
            via = sum(f @ rho @ dagger(f) for f in fam)
            assert np.abs(direct - via).max() < 1e-9
    assert all(is_free_kraus(f, ba, 1e-8) is not None for f in fam)


def test_reduce_ancilla_random_spanning_set():
    rng = make_rng(409)
    for _ in range(50):
        ba, bb = random_basis(2, rng), random_basis(2, rng)
        prod = tensor_basis(ba, bb)
        l_op = random_free_operator(prod, rng)
        l_op /= np.linalg.norm(l_op, 2) * 1.1
        sigma = random_free_state(bb, rng)
        fam = reduce_ancilla(l_op, sigma, ba, bb)
        for i in range(2):
            for j in range(2):
                rho = np.outer(ba.vectors[:, i], ba.vectors[:, j].conj())
                direct = reduced_action(l_op, rho, sigma, 2, 2)
                via = sum(f @ rho @ dagger(f) for f in fam)
                assert np.abs(direct - via).max() <= 1e-9
        assert all(is_free_kraus(f, ba, 1e-7) is not None for f in fam)


def test_reduce_ancilla_rejects_non_free_inputs():
    ba, bb = qubit_free_basis(0.4), qubit_free_basis(0.4)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(NotFree):
        reduce_ancilla(np.kron(h, h), DensityMatrix(np.outer(bb.state(0), bb.state(0).conj())),
                       ba, bb)
    plus = PureState(np.array([1, 1]) / np.sqrt(2)).density()
    with pytest.raises(NotFree):
        reduce_ancilla(np.eye(4, dtype=complex), plus, ba, bb)


# The per-label loops that built and recognised free operators before
# FreeKrausForm.matrix became their one constructor, kept as oracles.
def loop_matrix(coeffs, index_fn, basis):
    v, w = basis.vectors, basis.reciprocal
    out = np.zeros((basis.d, basis.d), dtype=complex)
    for k, (c, f) in enumerate(zip(coeffs, index_fn)):
        out += c * np.outer(v[:, f], w[:, k].conj())
    return out


def loop_is_free_kraus(k, basis, tol=1e-9):
    m = dagger(basis.reciprocal) @ k @ basis.vectors
    coeffs = np.zeros(basis.d, dtype=complex)
    index_fn = np.arange(basis.d)
    for j in range(basis.d):
        live = np.where(np.abs(m[:, j]) > tol)[0]
        if live.size > 1:
            return None
        if live.size == 1:
            coeffs[j] = m[live[0], j]
            index_fn[j] = live[0]
    return coeffs, index_fn


def test_free_kraus_matrix_matches_outer_product_loop():
    rng = make_rng(410)
    for d in range(2, 9):
        for trial in range(40):
            b = random_basis(d, rng)
            coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
            coeffs[rng.random(d) < 0.3] = 0.0
            # every other trial draws from d // 2 labels, so some labels repeat
            index_fn = rng.integers(d if trial % 2 else d // 2, size=d)
            built = FreeKrausForm(coeffs, index_fn).matrix(b)
            assert np.array_equal(built, loop_matrix(coeffs, index_fn, b))


def test_free_qubit_kraus_matches_conjugated_template():
    rng = make_rng(411)
    for a in (0.0, 0.3, 0.6, 0.9):
        v = qubit_free_basis(a).vectors
        for _ in range(10):
            x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
            templates = {1: [[x, y], [0, 0]], 2: [[x, 0], [0, y]],
                         3: [[0, 0], [x, y]], 4: [[0, y], [x, 0]]}
            for kind, t in templates.items():
                expected = v @ np.array(t) @ np.linalg.inv(v)
                assert np.abs(free_qubit_kraus(kind, (x, y), a) - expected).max() < 1e-12


def test_is_free_kraus_matches_per_column_loop():
    rng = make_rng(412)
    for d in range(2, 9):
        for _ in range(20):
            b = random_basis(d, rng)
            m = dagger(b.reciprocal) @ random_free_operator(b, rng) @ b.vectors
            j = int(rng.integers(d))
            zero_column, two_live = m.copy(), m.copy()
            zero_column[:, j] = 0.0
            two_live[(np.argmax(np.abs(m[:, j])) + 1) % d, j] = 0.5
            for mat in (m, zero_column, two_live):
                k = b.vectors @ mat @ dagger(b.reciprocal)
                form, expected = is_free_kraus(k, b), loop_is_free_kraus(k, b)
                if expected is None:
                    assert form is None
                else:
                    assert np.array_equal(form.coeffs, expected[0])
                    assert np.array_equal(form.index_fn, expected[1])
            assert is_free_kraus(b.vectors @ two_live @ dagger(b.reciprocal), b) is None


@pytest.mark.parametrize("d", range(2, 9))
def test_free_kraus_form_stack_matches_row_builds(d):
    # a stack of forms builds, bit for bit, the operators its rows build one by one
    rng = make_rng(430 + d)
    b = random_basis(d, rng)
    coeffs = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
    index_fn = rng.integers(d, size=(6, d))
    stack = FreeKrausForm(coeffs, index_fn).matrix(b)
    assert stack.shape == (6, d, d)
    rows = [FreeKrausForm(c, f).matrix(b) for c, f in zip(coeffs, index_fn)]
    assert np.array_equal(stack, np.array(rows))


# The per-operator loops of apply_channel, measure_selective and reduce_ancilla
# before they read the Kraus stack in one batched product, kept as oracles.
def loop_apply_channel(ch, rho):
    out = np.zeros_like(rho.mat)
    for k in ch.kraus:
        out += k @ rho.mat @ dagger(k)
    return DensityMatrix(out).mat


def loop_measure_selective(ch, rho):
    outcomes = []
    for k in ch.kraus:
        m = k @ rho.mat @ dagger(k)
        p = float(np.trace(m).real)
        if p >= 1e-12:
            outcomes.append((p, DensityMatrix(m / p).mat))
    return outcomes


def loop_reduce_ancilla(l_op, sigma_b, basis_a, basis_b):
    da, db = basis_a.d, basis_b.d
    form = is_free_kraus(l_op, tensor_basis(basis_a, basis_b))
    weights = np.clip(np.diag(free_expansion(sigma_b, basis_b)).real, 0.0, None)
    out = []
    for j in range(db):
        if weights[j] < 1e-14:
            continue
        k_in = np.arange(da) * db + j
        g, h = np.divmod(form.index_fn[k_in], db)
        for x in range(db):
            amp = np.sqrt(weights[j]) * form.coeffs[k_in] * basis_b.vectors[x, h]
            out.append(FreeKrausForm(amp, g).matrix(basis_a))
    return np.array(out)


def test_channel_stack_matches_per_operator_loop():
    rng = make_rng(413)
    for d in range(2, 9):
        for trial in range(20):
            b = random_basis(d, rng)
            ops = random_subnormalized_free_ops(b, rng, n_ops=int(rng.integers(1, 4)))
            ch = free_channel(ops, b)
            rho = haar_state(d, rng).density() if trial % 2 else random_density(d, rng)
            assert np.array_equal(apply_channel(ch, rho).mat, loop_apply_channel(ch, rho))
            for channel in (ch, Channel(ops)):
                outcomes = measure_selective(channel, rho)
                expected = loop_measure_selective(channel, rho)
                assert len(outcomes) == len(expected)
                for (p, out), (q, mat) in zip(outcomes, expected):
                    assert p == q and np.array_equal(out.mat, mat)


def test_reduce_ancilla_matches_per_label_loop():
    rng = make_rng(414)
    for trial in range(40):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        ba, bb = random_basis(da, rng), random_basis(db, rng)
        l_op = random_free_operator(tensor_basis(ba, bb), rng)
        # every third sigma_B is a single free state, so some labels carry no weight
        sigma = (DensityMatrix(np.outer(bb.state(1), bb.state(1).conj())) if trial % 3 == 0
                 else random_free_state(bb, rng))
        fam = reduce_ancilla(l_op, sigma, ba, bb)
        assert np.array_equal(fam, loop_reduce_ancilla(l_op, sigma, ba, bb))
