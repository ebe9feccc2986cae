import re

import numpy as np
import pytest

from superpos import transform
from superpos.errors import DimensionMismatch, NoConvergence, NonHermitian, NotUnitary
from superpos.basis import tensor_basis
from superpos.kraus import FreeKrausForm, apply_channel, complete_free, is_free_kraus, is_mfo
from superpos.linalg import dagger, fidelity, herm_eig, partial_trace
from superpos.qubit import (
    PAULI,
    BlochMap,
    bloch_vector,
    build_phi,
    channel_from_bloch,
    choi,
    conversion_heatmap,
    fo_certificate_residual,
    free_qubit_kraus,
    generate_from_m2,
    heatmap_cell,
    inject_unitary,
    kraus_from_choi,
    max_superposition_state,
    qubit_free_basis,
    qubit_state,
    state_from_bloch,
)
from superpos.sampling import haar_unitary, make_rng, random_density
from superpos.states import DensityMatrix, PureState, is_free, superposition_rank


def phi_choi_eigenvalues(a: float, theta: float, phi: float) -> np.ndarray:
    """Closed-form Choi spectrum of the free-state-preserving channel."""
    radius = np.sqrt(2) * np.sqrt(1 - 2 * a + 9 * a**2
                                  - (a - 1) ** 2 * np.cos(2 * theta)
                                  + 8 * (a - 1) * a * np.cos(phi) * np.sin(theta))
    pair = (2 + 2 * a + np.array([-radius, radius])) / (4 * (1 + a))
    return np.sort(np.concatenate(([0.0, 1.0], pair)))


def test_qubit_state_matches_the_numpy_formula_on_the_grid():
    # math and cmath give numpy's bits on the grid-32 angles, as numpy
    # floats (conversion_heatmap's) and as Python floats (the CLI's source)
    thetas = np.linspace(0.0, np.pi, 32)
    phis = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    for theta in thetas:
        for phi in phis:
            want = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
            assert np.array_equal(qubit_state(theta, phi).amp, want)
            assert np.array_equal(qubit_state(float(theta), float(phi)).amp, want)


def test_bloch_roundtrip_examples():
    assert np.allclose(bloch_vector(DensityMatrix(0.5 * np.eye(2))), [0, 0, 0], atol=1e-12)
    for a in (0.0, 0.3, 0.8):
        b = qubit_free_basis(a)
        r1 = bloch_vector(DensityMatrix(np.outer(b.state(0), b.state(0).conj())))
        assert np.allclose(r1, [a, 0, np.sqrt(1 - a * a)], atol=1e-12)
    rm = bloch_vector(max_superposition_state().density())
    assert np.allclose(rm, [-1, 0, 0], atol=1e-12)


def test_bloch_roundtrip_bijective():
    rng = make_rng(801)
    for _ in range(100):
        rho = random_density(2, rng)
        r = bloch_vector(rho)
        back = state_from_bloch(r)
        assert np.abs(back.mat - rho.mat).max() < 1e-12


def test_pauli_expansion_matches_the_per_matrix_loop():
    # the expansion over the (4, 2, 2) PAULI stack against one trace, and one
    # weighted sum, per Pauli matrix: each entry of either sums two exact
    # products, so the bits agree, signed zeros included
    def coeffs(op):
        return np.array([np.trace(op @ p) for p in PAULI])

    def operator(u):
        return 0.5 * (u[0] * PAULI[0] + u[1] * PAULI[1] + u[2] * PAULI[2] + u[3] * PAULI[3])

    def same(got, want):
        return got.tobytes() == np.asarray(want, dtype=got.dtype).tobytes()

    rng = make_rng(802)
    for _ in range(200):
        rho = random_density(2, rng)
        r = bloch_vector(rho)
        assert same(r, coeffs(rho.mat)[1:].real)
        r = rng.uniform(-0.5, 0.5, size=3)
        assert same(state_from_bloch(r).mat, operator(np.append(1.0, r)))
        bmap = build_phi(rng.uniform(0.0, 0.9), *rng.uniform(-4.0, 4.0, size=2))
        op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = coeffs(op)
        assert same(bmap.apply_operator(op),
                    operator(np.append(u[0], bmap.translation * u[0] + bmap.matrix @ u[1:])))


def test_phi_action_on_free_states():
    for a in (0.1, 0.5, 0.9):
        for theta in (0.0, np.pi / 4, 2.0):
            bm = build_phi(a, theta, 0.7)
            for c in (0.3, -np.sqrt(1 - a * a)):
                image = bm.translation + a * bm.matrix[:, 0]
                assert np.allclose(image, [a, 0, 0.5 * np.cos(theta) * (1 - a)], atol=1e-12)
                out = bm.apply_state(state_from_bloch([a, 0, c]))
                assert np.allclose(bloch_vector(out),
                                   [a, 0, 0.5 * np.cos(theta) * (1 - a)], atol=1e-12)


def test_phi_action_on_maximal_state():
    for a in (0.2, 0.6):
        for (theta, phi) in [(0.4, 1.0), (np.pi / 2, np.pi), (2.5, 5.5)]:
            bm = build_phi(a, theta, phi)
            out = bm.apply_state(max_superposition_state().density())
            target = [np.cos(phi) * np.sin(theta), np.sin(phi) * np.sin(theta), np.cos(theta)]
            assert np.allclose(bloch_vector(out), target, atol=1e-12)


def test_phi_choi_closed_form():
    a, theta, phi = 0.3, np.pi / 4, 0.0
    ct, st = np.cos(theta), np.sin(theta)
    e = np.exp
    expected = 0.5 * np.array([
        [0.5 * (2 + ct), (a + a * e(-1j * phi) * st) / (1 + a), -ct / 2,
         (a - e(-1j * phi) * st) / (1 + a)],
        [(a + a * e(1j * phi) * st) / (1 + a), 0.5 * (2 - ct),
         (a - e(1j * phi) * st) / (1 + a), ct / 2],
        [-ct / 2, (a - e(-1j * phi) * st) / (1 + a), 0.5 * (2 + ct),
         (a + a * e(-1j * phi) * st) / (1 + a)],
        [(a - e(1j * phi) * st) / (1 + a), ct / 2, (a + a * e(1j * phi) * st) / (1 + a),
         0.5 * (2 - ct)],
    ])
    assert np.abs(choi(build_phi(a, theta, phi)) - expected).max() < 1e-12


def test_phi_choi_spectrum_sampled():
    rng = make_rng(802)
    for _ in range(200):
        a = float(rng.uniform(0, 0.95))
        theta = float(rng.uniform(0, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        w = np.linalg.eigvalsh(choi(build_phi(a, theta, phi)))
        assert w[0] >= -1e-9
        assert np.abs(np.sort(w) - phi_choi_eigenvalues(a, theta, phi)).max() < 1e-9


def test_choi_identity_and_depolarizing():
    ident = BlochMap(translation=np.zeros(3), matrix=np.eye(3))
    w = np.linalg.eigvalsh(choi(ident))
    assert np.allclose(np.sort(w), [0, 0, 0, 2], atol=1e-12)
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert np.abs(choi(ident) - 2 * np.outer(bell, bell.conj())).max() < 1e-12
    depol = BlochMap(translation=np.zeros(3), matrix=np.zeros((3, 3)))
    assert np.abs(choi(depol) - 0.5 * np.eye(4)).max() < 1e-12


def test_channel_from_bloch_reproduces_action():
    rng = make_rng(803)
    for _ in range(50):
        a = float(rng.uniform(0, 0.9))
        bm = build_phi(a, float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi)))
        ch = channel_from_bloch(bm)
        assert ch.is_trace_preserving
        rho = random_density(2, rng)
        assert np.abs(apply_channel(ch, rho).mat - bm.apply_state(rho).mat).max() < 1e-9


def test_kraus_from_choi_matches_eigenpair_loop():
    # the per-eigenpair loop kraus_from_choi ran before it built one stack
    rng = make_rng(810)
    for _ in range(60):
        c = choi(build_phi(float(rng.uniform(0.0, 0.95)), float(rng.uniform(0.0, np.pi)),
                           float(rng.uniform(0.0, 2 * np.pi))))
        w, v = herm_eig(c)
        expected = [np.sqrt(lam) * vec.reshape(2, 2).T for lam, vec in zip(w, v.T) if lam > 1e-10]
        assert np.array_equal(kraus_from_choi(c), np.array(expected))


def test_bloch_map_rejects_wrong_size_operator():
    phi = build_phi(0.3, 1.0, 0.5)
    with pytest.raises(DimensionMismatch, match=re.escape("operator shape (3, 3) != (2, 2)")):
        phi.apply_operator(np.eye(3))
    with pytest.raises(DimensionMismatch, match=re.escape("operator shape (3, 3) != (2, 2)")):
        phi.apply_state(DensityMatrix(np.eye(3) / 3))
    with pytest.raises(ValueError, match="non-finite"):
        phi.apply_operator(np.diag([np.nan, 1.0]))


def test_kraus_from_choi_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        kraus_from_choi(np.eye(9) / 3)


def test_kraus_from_choi_rejects_non_hermitian():
    c = choi(build_phi(0.3, np.pi / 4, 0.0))
    c[0, 3] += 0.1
    with pytest.raises(NonHermitian):
        kraus_from_choi(c)


def test_free_qubit_kraus_examples():
    for a in (0.0, 0.5, 0.8):
        assert np.abs(free_qubit_kraus(2, (1, 1), a) - np.eye(2)).max() < 1e-12
        b = qubit_free_basis(a)
        k4 = free_qubit_kraus(4, (1, 1), a)
        assert np.linalg.norm(k4 @ b.state(0) - b.state(1)) < 1e-12
        assert np.linalg.norm(k4 @ b.state(1) - b.state(0)) < 1e-12
    b = qubit_free_basis(0.5)
    k1 = free_qubit_kraus(1, (1, 0), 0.5)
    assert np.linalg.norm(k1 @ b.state(0) - b.state(0)) < 1e-12
    assert np.linalg.norm(k1 @ b.state(1)) < 1e-12


def test_free_qubit_kraus_closed_forms():
    rng = make_rng(804)
    for _ in range(50):
        a = float(rng.uniform(0.01, 0.95))
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        big = 1 + np.sqrt(1 - a * a)
        small = 1 - np.sqrt(1 - a * a)
        scale = 1 / (2 * np.sqrt(1 - a * a))
        closed = {
            1: scale * np.array([[big * x - a * y, -a * x + big * y],
                                 [a * x - small * y, -small * x + a * y]]),
            2: scale * np.array([[big * x - small * y, a * (-x + y)],
                                 [-a * (-x + y), -small * x + big * y]]),
            3: scale * np.array([[a * x - small * y, -small * x + a * y],
                                 [big * x - a * y, -a * x + big * y]]),
            4: scale * np.array([[a * (x - y), big * y - small * x],
                                 [-small * y + big * x, -a * (x - y)]]),
        }
        for kind in (1, 2, 3, 4):
            built = free_qubit_kraus(kind, (x, y), a)
            assert np.abs(built - closed[kind]).max() < 1e-10
            assert is_free_kraus(built, qubit_free_basis(a)) is not None


def test_generate_from_m2_fixes_maximal_state():
    for a in (0.2, 0.7):
        ch = generate_from_m2(np.pi / 2, np.pi, a)  # target is the maximal state itself
        m2 = max_superposition_state().density()
        out = apply_channel(ch, m2)
        assert np.abs(out.mat - m2.mat).max() < 1e-10


def test_generate_from_m2_split_identities():
    m2 = max_superposition_state().amp
    for a in (0.1, 0.5, 0.9):
        for (theta, phi) in [(0.0, 0.0), (np.pi / 2, 0.0), (1.1, 2.2), (2.9, 4.4)]:
            ch = generate_from_m2(theta, phi, a)
            k1, k2, k3, k4 = ch.kraus
            target = qubit_state(theta, phi).amp
            assert np.linalg.norm(k2 @ m2 - target / np.sqrt(2)) < 1e-10
            assert np.linalg.norm(k4 @ m2 - target / np.sqrt(2)) < 1e-10
            assert np.linalg.norm(k1 @ m2) < 1e-10
            assert np.linalg.norm(k3 @ m2) < 1e-10
            assert np.linalg.norm(ch.defect) < 1e-9
            b = qubit_free_basis(a)
            assert all(is_free_kraus(k, b) is not None for k in ch.kraus)


def test_generate_from_m2_mixed_targets_by_convexity():
    rng = make_rng(805)
    a = 0.5
    m2 = max_superposition_state().density()
    for _ in range(20):
        rho = random_density(2, rng)
        w, vecs = np.linalg.eigh(rho.mat)
        total = np.zeros((2, 2), dtype=complex)
        for lam, vec in zip(w, vecs.T):
            r = bloch_vector(DensityMatrix(np.outer(vec, vec.conj())))
            theta = float(np.arccos(np.clip(r[2], -1, 1)))
            phi = float(np.arctan2(r[1], r[0]) % (2 * np.pi))
            total += lam * apply_channel(generate_from_m2(theta, phi, a), m2).mat
        assert np.abs(total - rho.mat).max() < 1e-9


def _transcribed_generation_coefficients(theta, phi, a):
    """gamma, delta and the shared type-1/3 weight of generate_from_m2, as
    formulas in the parametrisation of qubit_free_basis(a)."""
    root = np.sqrt(1 - a * a)
    big, small = 1 + root, 1 - root
    c_half = np.cos(theta / 2)
    s_half = np.exp(1j * phi) * np.sin(theta / 2)
    scale = 1.0 / (2 * (1 + a))
    delta = scale * ((small + a) * c_half - (a + big) * s_half)
    gamma = scale * ((big + a) * c_half - (a + small) * s_half)
    shared = np.sqrt(a * (1 + np.cos(phi) * np.sin(theta)) / (2 * (1 + a)))
    return gamma, delta, shared


def test_generate_from_m2_matches_transcribed_coefficients():
    rng = make_rng(808)
    for _ in range(300):
        a = float(rng.uniform(0.0, 0.95))
        theta, phi = float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))
        gamma, delta, shared = _transcribed_generation_coefficients(theta, phi, a)
        expected = (free_qubit_kraus(1, (shared, shared), a), free_qubit_kraus(2, (gamma, delta), a),
                    free_qubit_kraus(3, (shared, shared), a), free_qubit_kraus(4, (-delta, -gamma), a))
        for built, ref in zip(generate_from_m2(theta, phi, a).kraus, expected, strict=True):
            assert np.abs(built - ref).max() < 1e-13


def _transcribed_injection_operators(u, a):
    """The two routing operators of inject_unitary, from its coefficients c, d
    as formulas in the parametrisation of qubit_free_basis(a)."""
    root = np.sqrt(1 - a * a)
    big, small = 1 + root, 1 - root
    s = 2 * np.sqrt(1 + a)
    u00, u01, u10, u11 = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    c = np.array([
        [(big * u00 + a * (u01 - u10) - small * u11) / s,
         (big * u01 + a * (u00 - u11) - small * u10) / s],
        [(small * u01 + a * (u00 - u11) - big * u10) / s,
         (small * u00 + a * (u01 - u10) - big * u11) / s],
    ])
    d = np.array([
        [(small * u11 + a * (u10 - u01) - big * u00) / s,
         (small * u10 + a * (u11 - u00) - big * u01) / s],
        [(big * u10 + a * (u11 - u00) - small * u01) / s,
         (big * u11 + a * (u10 - u01) - small * u00) / s],
    ])
    product = tensor_basis(qubit_free_basis(a), qubit_free_basis(a))
    i, j = np.divmod(np.arange(4), 2)
    return (FreeKrausForm(c[j, i], 2 * j).matrix(product),
            FreeKrausForm(d[1 - j, i], 3 - 2 * j).matrix(product)), product


def test_inject_unitary_matches_transcribed_coefficients():
    rng = make_rng(809)
    for _ in range(100):
        a = float(rng.uniform(0.0, 0.95))
        u = haar_unitary(2, rng)
        (f0, f1), product = _transcribed_injection_operators(u, a)
        expected = [f0, f1] + complete_free([f0, f1], product)
        for built, ref in zip(inject_unitary(u, a).kraus, expected, strict=True):
            assert np.abs(built - ref).max() < 1e-13


def test_inject_unitary_orthonormal_identity():
    ch = inject_unitary(np.eye(2, dtype=complex), 0.0)
    f0, f1 = ch.kraus[0], ch.kraus[1]
    w = np.linalg.eigvalsh(dagger(f0) @ f0 + dagger(f1) @ f1)
    assert np.allclose(w, [1, 1, 1, 1], atol=1e-10)
    assert len(ch.kraus) == 2  # empty completion in the orthonormal limit


def test_inject_unitary_fourth_eigenvalue():
    rng = make_rng(806)
    u = haar_unitary(2, rng)
    ch = inject_unitary(u, 0.5)
    f0, f1 = ch.kraus[0], ch.kraus[1]
    w = np.sort(np.linalg.eigvalsh(dagger(f0) @ f0 + dagger(f1) @ f1))
    assert abs(w[0] - 1 / 9) < 1e-10
    assert np.allclose(w[1:], 1.0, atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inject_unitary_rejects_non_finite_u(bad):
    # a NaN u passed the unitarity check and failed later, inside Channel,
    # as a Kraus operator with non-finite entries
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with pytest.raises(ValueError, match="^u contains non-finite entries"):
        inject_unitary(u, 0.5)


def test_inject_unitary_action_identities():
    # the bit-flip-like unitary at a = 0.3 satisfies the two routing identities
    u = np.array([[0, 1], [-1, 0]], dtype=complex)
    a = 0.3
    ch = inject_unitary(u, a)
    f0, f1 = ch.kraus[0], ch.kraus[1]
    b = qubit_free_basis(a)
    m2 = max_superposition_state().amp
    for s in (b.state(0), b.state(1), np.array([1, 0], dtype=complex),
              np.array([0.6, 0.8j], dtype=complex)):
        assert np.linalg.norm(f0 @ np.kron(s, m2)
                              - np.kron(u @ s, b.state(0)) / np.sqrt(2)) < 1e-9
        assert np.linalg.norm(f1 @ np.kron(s, m2)
                              - np.kron(u @ s, b.state(1)) / np.sqrt(2)) < 1e-9
    for extra in ch.kraus[2:]:
        assert np.linalg.norm(extra @ np.kron(np.array([0.6, 0.8j]), m2)) < 1e-9


def test_inject_unitary_implements_rotation():
    rng = make_rng(807)
    for _ in range(30):
        a = float(rng.uniform(0, 0.9))
        u = haar_unitary(2, rng)
        ch = inject_unitary(u, a)
        rho = random_density(2, rng)
        m2 = max_superposition_state().density()
        joint = DensityMatrix(np.kron(rho.mat, m2.mat))
        out = apply_channel(ch, joint)
        reduced = partial_trace(out.mat, 2, 2, keep="a")
        target = u @ rho.mat @ dagger(u)
        assert 1 - fidelity(reduced, target) < 1e-8
        # the leftover second qubit is a free state
        leftover = partial_trace(out.mat, 2, 2, keep="b")
        assert is_free(DensityMatrix(leftover), qubit_free_basis(a), 1e-8)


def test_inject_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        inject_unitary(np.array([[1, 0], [0, 0.5]]), 0.3)


def test_maximal_state_is_distance_argmax():
    # over a dense Bloch-sphere grid the distance to the free segment peaks
    # uniquely at (-1, 0, 0) for a > 0
    for a in (0.3, 0.7):
        span = np.sqrt(1 - a * a)

        def seg_distance(r):
            dz = max(0.0, abs(r[2]) - span)
            return np.sqrt((r[0] - a) ** 2 + r[1] ** 2 + dz ** 2)

        thetas = np.linspace(0, np.pi, 100)
        phis = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        best = seg_distance([-1.0, 0.0, 0.0])
        second = 0.0
        for t in thetas:
            for p in phis:
                r = [np.cos(p) * np.sin(t), np.sin(p) * np.sin(t), np.cos(t)]
                d = seg_distance(r)
                if np.linalg.norm(np.subtract(r, [-1, 0, 0])) > 1e-9:
                    second = max(second, d)
        assert best > second + 1e-4


def test_phi_is_mfo_with_nonzero_certificate_residual():
    for a in (0.2, 0.5, 0.8):
        theta = np.pi / 4
        ch = channel_from_bloch(build_phi(a, theta, 0.0))
        assert is_mfo(ch, qubit_free_basis(a), 1e-8)
        assert abs(fo_certificate_residual(a, theta)) > 0.1
    assert abs(fo_certificate_residual(0.4, np.pi / 2)) < 1e-12


def test_heatmap_cells():
    a = 0.5
    basis = qubit_free_basis(a)
    source = qubit_state(np.pi / 2, 0.0)
    rank = superposition_rank(source, basis)
    assert abs(heatmap_cell(basis, source, rank, (np.pi / 2, 0.0)) - 1.0) < 1e-7
    # generic targets are strictly harder
    assert heatmap_cell(basis, source, rank, (1.1, 2.0)) < 1.0 - 1e-4
    # free targets always reachable: (pi/6, 0) is the first free state at a = 1/2
    assert abs(heatmap_cell(basis, source, rank, (np.pi / 6, 0.0)) - 1.0) < 1e-12
    # dual certificate value along the criterion's closed form
    from superpos.transform import enumerate_transformers

    for (x, z) in [(0.8, 0.3), (2.0, 4.0)]:
        ts = enumerate_transformers(source, qubit_state(x, z), basis)
        traces = [np.trace(dagger(f) @ f).real for f in ts.operators]
        assert np.allclose(traces, 6 - 4 * np.cos(z) * np.sin(x), atol=1e-9)


def test_deterministic_heatmap_cell_builds_no_completion(monkeypatch):
    # the self-conversion cell reaches 1, but heatmap_cell keeps only the value:
    # neither the transformers nor their completion are built for it
    calls = []
    for name in ("enumerate_transformers", "complete_free"):
        real = getattr(transform, name)
        monkeypatch.setattr(transform, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    basis = qubit_free_basis(0.5)
    source = qubit_state(np.pi / 2, 0.0)
    assert abs(heatmap_cell(basis, source, 2, (np.pi / 2, 0.0)) - 1.0) < 1e-7
    assert calls == []


def test_heatmap_free_source_reaches_every_free_target():
    # a rank-one target is free: the replacement channel reaches it from any
    # source, a free one included (the support-1 LMI alone gives 1 - a^2)
    for a in (0.2, 0.5, 0.8):
        basis = qubit_free_basis(a)
        theta = np.arccos(np.sqrt(1 - a * a))
        for k in range(2):
            source = PureState(basis.state(k))
            for target_angles in ((theta, 0.0), (np.pi - theta, 0.0)):
                assert superposition_rank(qubit_state(*target_angles), basis) == 1
                assert heatmap_cell(basis, source, 1, target_angles) == 1.0


@pytest.mark.parametrize("error", [NoConvergence("duality gap above tolerance"),
                                   ValueError("malformed input")], ids=["no-convergence", "value"])
def test_heatmap_cell_propagates_solver_errors(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr("superpos.qubit.max_conversion_prob", failing)
    basis = qubit_free_basis(0.5)
    source = qubit_state(np.pi / 2, 0.0)
    rank = superposition_rank(source, basis)
    with pytest.raises(type(error)):
        heatmap_cell(basis, source, rank, (1.1, 2.0))


def test_heatmap_from_free_source_is_zero_on_rank_two_targets():
    # the free state with Bloch vector (a, 0, sqrt(1 - a^2)) reaches no target
    # of superposition rank 2
    a = 0.5
    basis = qubit_free_basis(a)
    initial = (float(np.arccos(np.sqrt(1 - a * a))), 0.0)
    assert superposition_rank(qubit_state(*initial), basis) == 1
    rows = conversion_heatmap(a, initial, 8)
    ranks = np.array([superposition_rank(qubit_state(theta, phi), basis) for theta, phi, _ in rows])
    assert np.count_nonzero(ranks == 2) > 0
    assert np.all(rows[ranks == 2, 2] == 0.0)
