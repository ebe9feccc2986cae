"""Qubit apparatus: Bloch maps, the free-state-preserving channel family,
free Kraus types, maximal-superposition generation, unitary injection, and
conversion landscapes.

The computational frame is fixed so that the two pure free states have Bloch
vectors (a, 0, +sqrt(1-a^2)) and (a, 0, -sqrt(1-a^2)) with overlap a; the
state with Bloch vector (-1, 0, 0) is the unique maximal-superposition qubit
state for a > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis, new_free_basis, tensor_basis
from .errors import DimensionMismatch, InvalidState, NotUnitary
from .kraus import Channel, FreeKrausForm, free_channel
from .linalg import _Record, as_complex_matrix, as_hermitian_matrix, dagger
from .states import DensityMatrix, PureState, superposition_rank
from .transform import max_conversion_prob

PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])   # 1, x, y, z


def qubit_free_basis(a: float) -> FreeBasis:
    """Free qubit basis with overlap <c1|c2> = a, symmetric about the x-z plane."""
    if not 0.0 <= a < 1.0:
        raise ValueError(f"overlap a must lie in [0, 1), got {a}")
    plus, minus = np.sqrt(1 + a), np.sqrt(1 - a)
    c1 = 0.5 * np.array([plus + minus, plus - minus], dtype=complex)
    c2 = 0.5 * np.array([plus - minus, plus + minus], dtype=complex)
    return new_free_basis([c1, c2])


def max_superposition_state() -> PureState:
    """The qubit state with Bloch vector (-1, 0, 0): farthest from every free segment."""
    return PureState(np.array([1.0, -1.0]) / np.sqrt(2))


def _finite_angles(theta: float, phi: float) -> None:
    """ValueError naming theta or phi unless both polar angles are finite."""
    for name, angle in (("theta", theta), ("phi", phi)):
        if not math.isfinite(angle):
            raise ValueError(f"{name} must be a finite angle, got {angle}")


def qubit_state(theta: float, phi: float) -> PureState:
    """Pure state at polar angles (theta, phi) on the Bloch sphere; finite angles only."""
    _finite_angles(theta, phi)
    return PureState(np.array([math.cos(theta / 2),
                               complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)]))


def _pauli_coeffs(op: np.ndarray) -> np.ndarray:
    """The Pauli expansion u_k = tr(op sigma_k), k = 0..3, of a 2 x 2 operator."""
    return np.trace(op @ PAULI, axis1=1, axis2=2)


def _from_pauli(u) -> np.ndarray:
    """The 2 x 2 operator with Pauli expansion u: (1/2) sum_k u_k sigma_k."""
    return 0.5 * np.tensordot(u, PAULI, 1)


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector of a qubit state."""
    if rho.dim != 2:
        raise DimensionMismatch(f"need a qubit state, got dimension {rho.dim}")
    return _pauli_coeffs(rho.mat)[1:].real


def state_from_bloch(r) -> DensityMatrix:
    """Qubit state with the given Bloch vector (|r| <= 1)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimensionMismatch(f"Bloch vector must have 3 components, got {r.shape}")
    if np.linalg.norm(r) > 1.0 + 1e-10:
        raise InvalidState(f"Bloch vector length {np.linalg.norm(r):.12g} > 1")
    return DensityMatrix(_from_pauli(np.append(1.0, r)))


@dataclass(frozen=True, eq=False)
class BlochMap(_Record):
    """Affine Bloch-ball map of a qubit, r -> translation + matrix r; fields kept as read-only float copies."""

    translation: np.ndarray  # (3,) real
    matrix: np.ndarray       # (3, 3) real

    def __post_init__(self):
        t, m = np.asarray(self.translation), np.asarray(self.matrix)
        if (t.shape, m.shape) != ((3,), (3, 3)):
            raise DimensionMismatch(f"translation and matrix shapes {t.shape}, {m.shape} != (3,), (3, 3)")
        if not all(a.dtype.kind in "biuf" and np.isfinite(a).all() for a in (t, m)):
            raise ValueError("translation and matrix must hold finite real numbers")
        self._store(translation=t.astype(float), matrix=m.astype(float))   # copies, never the caller's arrays

    def apply_operator(self, op: np.ndarray) -> np.ndarray:
        """Linear extension of the map to arbitrary 2x2 operators."""
        u = _pauli_coeffs(as_complex_matrix(op, "operator", shape=(2, 2)))
        return _from_pauli(np.append(u[0], self.translation * u[0] + self.matrix @ u[1:]))

    def apply_state(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self.apply_operator(rho.mat))


def build_phi(a: float, theta: float, phi: float) -> BlochMap:
    """The free-state-preserving qubit map with translation t and rank-one action.

    Only the x component of the input Bloch vector survives; the map sends
    every free state to the same free state and the maximal-superposition
    vector (-1, 0, 0) to the polar-angle target (theta, phi), finite angles only.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"overlap a must lie in [0, 1), got {a}")
    _finite_angles(theta, phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    w = np.array([a - cp * st, -sp * st, -0.5 * ct * (1 + a)]) / (1 + a)
    t = np.array([a * (1 + cp * st) / (1 + a), a * sp * st / (1 + a), 0.5 * ct])
    return BlochMap(translation=t, matrix=np.column_stack([w, np.zeros((3, 2))]))


def choi(bloch_map: BlochMap) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) map(|i><j|); PSD iff completely positive."""
    images = np.array([bloch_map.apply_operator(e) for e in np.eye(4).reshape(4, 2, 2)])
    return images.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def kraus_from_choi(choi_matrix: np.ndarray) -> np.ndarray:
    """Kraus operators of a completely positive qubit map from its 4 x 4 Choi
    matrix, stacked: sqrt(lambda) reshape(v, (2, 2)).T for each eigenpair
    (lambda, v) with lambda above 1e-10.

    Raises ``DimensionMismatch`` for any other shape, ``NonHermitian`` (from
    ``as_hermitian_matrix``) for a non-Hermitian matrix and ``InvalidState``
    for an eigenvalue below -1e-8.
    """
    choi_matrix = as_hermitian_matrix(choi_matrix, "Choi matrix", shape=(4, 4))
    w, v = np.linalg.eigh(choi_matrix)
    if w[0] < -1e-8:
        raise InvalidState(f"Choi matrix has eigenvalue {w[0]:.3e}: not CP")
    keep = w > 1e-10
    return np.sqrt(w[keep])[:, None, None] * v.T[keep].reshape(-1, 2, 2).transpose(0, 2, 1)


def channel_from_bloch(bloch_map: BlochMap) -> Channel:
    """Kraus-operator channel realizing a completely positive Bloch map."""
    return Channel(kraus_from_choi(choi(bloch_map)))


def free_qubit_kraus(kind: int, params, a: float) -> np.ndarray:
    """One of the four free qubit Kraus types for overlap a.

    The free operator sending free state k to free state f(k) with
    coefficient params[k], where the index function f of kind 1 is (0, 0),
    of kind 2 (0, 1), of kind 3 (1, 1) and of kind 4 (1, 0). In the free frame
    kind 1 fills row 1, kind 2 the diagonal, kind 3 row 2, kind 4 the
    antidiagonal. There must be two params, both finite.
    """
    index_fns = {1: (0, 0), 2: (0, 1), 3: (1, 1), 4: (1, 0)}
    if isinstance(kind, bool) or kind not in index_fns:   # a bool is an int, but not a kind
        raise ValueError(f"kind must be 1..4, got {kind}")
    if len(params) != 2:
        raise ValueError(f"params must be two coefficients, got {len(params)}")
    coeffs = np.array([complex(params[0]), complex(params[1])])
    if not np.isfinite(coeffs).all():
        raise ValueError(f"params must be finite, got {tuple(coeffs.tolist())}")
    return FreeKrausForm(coeffs, np.array(index_fns[kind])).matrix(qubit_free_basis(a))


def generate_from_m2(theta_t: float, phi_t: float, a: float) -> Channel:
    """Trace-preserving free channel sending the maximal-superposition state to
    the pure target at polar angles (theta_t, phi_t) with certainty.

    With m and t the free-frame coefficients of source and target, the
    diagonal and antidiagonal types take (gamma, delta) = t / (sqrt(2) m) and
    (-delta, -gamma). Types 1 and 3 are s|c_k><w| with w = c_1^perp + c_2^perp,
    which annihilates the source, so D = 1 - K_2'K_2 - K_4'K_4 = 2 s^2 |w><w|; all
    four are built on one basis, with the index functions of ``free_qubit_kraus``.
    """
    basis = qubit_free_basis(a)
    m = basis.to_free_frame(max_superposition_state().amp)
    gamma, delta = basis.to_free_frame(qubit_state(theta_t, phi_t).amp) / (np.sqrt(2) * m)
    k2, k4 = FreeKrausForm(np.array([[gamma, delta], [-delta, -gamma]]),
                           np.array([[0, 1], [1, 0]])).matrix(basis)
    w = basis.reciprocal.sum(axis=1)
    defect = np.eye(2) - dagger(k2) @ k2 - dagger(k4) @ k4    # Channel's order: the same bits
    # <w|D|w> is 0, up to rounding of either sign, at a = 0 and for the source as target
    shared = np.sqrt(max(np.vdot(w, defect @ w).real, 0.0) / (2 * np.vdot(w, w).real ** 2))
    k1, k3 = FreeKrausForm(np.full((2, 2), complex(shared)), np.array([[0, 0], [1, 1]])).matrix(basis)
    return Channel((k1, k2, k3, k4))


def inject_unitary(u: np.ndarray, a: float) -> Channel:
    """Two-qubit free channel implementing the unitary u on the first qubit by
    consuming a maximal-superposition state on the second.

    The first two Kraus operators route the rotated state to the two free
    states of the ancilla; the remaining operators are the free completion
    and annihilate every input of the form (state (x) maximal superposition).
    With R = W'uV / sqrt(2) and m the maximal state's free-frame
    coefficients, the first operator (ancilla label j to system label j)
    takes c = R / m[:, None], the second (to 1 - j) d = R / m[::-1, None].
    """
    u = as_complex_matrix(u, "u", shape=(2, 2))
    if np.linalg.norm(dagger(u) @ u - np.eye(2)) > 1e-10:
        raise NotUnitary("u is not unitary to 1e-10")
    single = qubit_free_basis(a)
    m = single.to_free_frame(max_superposition_state().amp)
    r = dagger(single.reciprocal) @ u @ single.vectors / np.sqrt(2)
    c, d = r / m[:, None], r / m[::-1, None]
    product = tensor_basis(single, single)
    # input label 2i + j: f0 sends it to label 2j (system j, ancilla 0),
    # f1 to label 3 - 2j (system 1 - j, ancilla 1)
    i, j = np.divmod(np.arange(4), 2)
    forms = FreeKrausForm(np.array([c[j, i], d[1 - j, i]]), np.array([2 * j, 3 - 2 * j]))
    return free_channel(forms.matrix(product), product)


def fo_certificate_residual(a: float, theta: float) -> float:
    """Aggregated trace-preservation defect of the one-per-type free-Kraus
    coefficient system forced by the channel of ``build_phi``.

    For overlapping bases this witnesses channels that preserve the free set
    yet admit no free Kraus decomposition; pair it with ``kraus.is_mfo``.
    """
    return float(np.cos(theta) * (1.0 - a))


def conversion_heatmap(a: float, initial: tuple[float, float], grid_n: int) -> np.ndarray:
    """Optimal free conversion probability from one initial qubit state to a
    (grid_n x 2*grid_n) polar-angle grid of pure targets.

    Rank-one (free) targets are always reachable with probability 1: map both
    reciprocal rows onto the target free state and complete. Higher-rank
    targets than the source get probability 0. Every other cell is a
    support-2 conversion that ``heatmap_cell`` answers in closed form, with no
    solver run. Returns rows (theta, phi, p).
    """
    if isinstance(grid_n, bool) or not isinstance(grid_n, (int, np.integer)):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < 8:
        raise ValueError(f"grid_n must be at least 8, got {grid_n}")
    basis = qubit_free_basis(a)
    source = qubit_state(*initial)
    source_rank = superposition_rank(source, basis)
    thetas = np.linspace(0.0, np.pi, grid_n)
    phis = np.linspace(0.0, 2 * np.pi, 2 * grid_n, endpoint=False)
    return np.array([(theta, phi, heatmap_cell(basis, source, source_rank, (theta, phi)))
                     for theta in thetas for phi in phis])


def heatmap_cell(basis: FreeBasis, source: PureState, source_rank: int,
                 target_angles: tuple[float, float]) -> float:
    """Conversion probability for one heatmap target.

    Equal-rank targets take ``max_conversion_prob``'s closed form for support
    2, no solver run; its dual certifies the value within the default gap
    tolerance (``NoConvergence`` otherwise). Only the value is read, so a
    deterministic cell builds no completion: that is built on first read of
    ``completion``.
    """
    target = qubit_state(*target_angles)
    target_rank = superposition_rank(target, basis)
    if target_rank > source_rank:
        return 0.0
    if target_rank == 1:
        return 1.0
    return float(max_conversion_prob(source, target, basis).value)
