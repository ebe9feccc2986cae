"""Qubit apparatus: Bloch maps, the free-state-preserving channel family,
free Kraus types, maximal-superposition generation, unitary injection, and
conversion landscapes.

The computational frame is fixed so that the two pure free states have Bloch
vectors (a, 0, +sqrt(1-a^2)) and (a, 0, -sqrt(1-a^2)) with overlap a; the
state with Bloch vector (-1, 0, 0) is the unique maximal-superposition qubit
state for a > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import FreeBasis, new_free_basis, tensor_basis
from .errors import DimensionMismatch, InvalidState, NoConvergence, NotUnitary
from .kraus import Channel, FreeKrausForm, complete_free
from .linalg import dagger, herm_eig, hermitian_part
from .sdp import SdpSolution
from .states import DensityMatrix, PureState, superposition_rank
from .transform import max_conversion_prob

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


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


def qubit_state(theta: float, phi: float) -> PureState:
    """Pure state at polar angles (theta, phi) on the Bloch sphere."""
    return PureState(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector of a qubit state."""
    if rho.dim != 2:
        raise DimensionMismatch(f"need a qubit state, got dimension {rho.dim}")
    return np.array([np.trace(rho.mat @ PAULI[k]).real for k in (1, 2, 3)])


def state_from_bloch(r) -> DensityMatrix:
    """Qubit state with the given Bloch vector (|r| <= 1)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimensionMismatch(f"Bloch vector must have 3 components, got {r.shape}")
    if np.linalg.norm(r) > 1.0 + 1e-10:
        raise InvalidState(f"Bloch vector length {np.linalg.norm(r):.12g} > 1")
    m = 0.5 * (PAULI[0] + r[0] * PAULI[1] + r[1] * PAULI[2] + r[2] * PAULI[3])
    return DensityMatrix(m)


@dataclass(frozen=True)
class BlochMap:
    """Affine Bloch-ball representation of a qubit map: r -> translation + matrix r."""

    translation: np.ndarray  # (3,) real
    matrix: np.ndarray       # (3, 3) real

    def apply_operator(self, op: np.ndarray) -> np.ndarray:
        """Linear extension of the map to arbitrary 2x2 operators."""
        op = np.asarray(op, dtype=complex)
        u0 = np.trace(op)
        uvec = np.array([np.trace(op @ PAULI[k]) for k in (1, 2, 3)])
        out = self.translation * u0 + self.matrix @ uvec
        return 0.5 * (u0 * PAULI[0] + out[0] * PAULI[1] + out[1] * PAULI[2] + out[2] * PAULI[3])

    def apply_state(self, rho: DensityMatrix) -> DensityMatrix:
        return DensityMatrix(self.apply_operator(rho.mat))


def build_phi(a: float, theta: float, phi: float) -> BlochMap:
    """The free-state-preserving qubit map with translation t and rank-one action.

    Only the x component of the input Bloch vector survives; the map sends
    every free state to the same free state and the maximal-superposition
    vector (-1, 0, 0) to the polar-angle target (theta, phi).
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"overlap a must lie in [0, 1), got {a}")
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    w = np.array([a - cp * st, -sp * st, -0.5 * ct * (1 + a)]) / (1 + a)
    t = np.array([a * (1 + cp * st) / (1 + a), a * sp * st / (1 + a), 0.5 * ct])
    matrix = np.zeros((3, 3))
    matrix[:, 0] = w
    return BlochMap(translation=t, matrix=matrix)


def choi(bloch_map: BlochMap) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) map(|i><j|); PSD iff completely positive."""
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, bloch_map.apply_operator(e))
    return c


def kraus_from_choi(choi_matrix: np.ndarray, tol: float = 1e-10) -> list[np.ndarray]:
    """Kraus operators of a completely positive qubit map from its Choi matrix."""
    res = herm_eig(hermitian_part(choi_matrix))
    if res.eigenvalues[0] < -1e-8:
        raise InvalidState(f"Choi matrix has eigenvalue {res.eigenvalues[0]:.3e}: not CP")
    ops = []
    for lam, vec in zip(res.eigenvalues, res.eigenvectors.T):
        if lam > tol:
            ops.append(np.sqrt(lam) * vec.reshape(2, 2).T)
    return ops


def channel_from_bloch(bloch_map: BlochMap) -> Channel:
    """Kraus-operator channel realizing a completely positive Bloch map."""
    return Channel(tuple(kraus_from_choi(choi(bloch_map))))


def _shape_constants(a: float) -> tuple[float, float, float]:
    root = np.sqrt(1 - a * a)
    return 1 + root, 1 - root, 1 / (2 * root)


def free_qubit_kraus(kind: int, params, a: float) -> np.ndarray:
    """One of the four free qubit Kraus types for overlap a.

    The free operator sending free state k to free state f(k) with
    coefficient params[k], where the index function f of kind 1 is (0, 0),
    of kind 2 (0, 1), of kind 3 (1, 1) and of kind 4 (1, 0). In the free frame
    kind 1 fills row 1, kind 2 the diagonal, kind 3 row 2, kind 4 the
    antidiagonal.
    """
    index_fns = {1: (0, 0), 2: (0, 1), 3: (1, 1), 4: (1, 0)}
    if kind not in index_fns:
        raise ValueError(f"kind must be 1..4, got {kind}")
    coeffs = np.array([complex(params[0]), complex(params[1])])
    return FreeKrausForm(coeffs, np.array(index_fns[kind])).matrix(qubit_free_basis(a))


def generate_from_m2(theta_t: float, phi_t: float, a: float) -> Channel:
    """Trace-preserving free channel sending the maximal-superposition state to
    the pure target at polar angles (theta_t, phi_t) with certainty.

    Uses one Kraus operator of each free type; the two diagonal-type
    operators each carry half the target amplitude while the two others
    annihilate the source state.
    """
    big, small, _ = _shape_constants(a)
    c_half = np.cos(theta_t / 2)
    s_half = np.exp(1j * phi_t) * np.sin(theta_t / 2)
    scale = 1.0 / (2 * (1 + a))
    delta = scale * ((small + a) * c_half - (a + big) * s_half)
    gamma = scale * ((big + a) * c_half - (a + small) * s_half)
    # normalization forces the cross factor inside the square root
    shared = np.sqrt(a * (1 + np.cos(phi_t) * np.sin(theta_t)) / (2 * (1 + a)))
    ops = (
        free_qubit_kraus(1, (shared, shared), a),
        free_qubit_kraus(2, (gamma, delta), a),
        free_qubit_kraus(3, (shared, shared), a),
        free_qubit_kraus(4, (-delta, -gamma), a),
    )
    return Channel(ops)


def inject_unitary(u: np.ndarray, a: float) -> Channel:
    """Two-qubit free channel implementing the unitary u on the first qubit by
    consuming a maximal-superposition state on the second.

    The first two Kraus operators route the rotated state to the two free
    states of the ancilla; the remaining operators are the free completion
    and annihilate every input of the form (state (x) maximal superposition).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 unitary, got shape {u.shape}")
    if np.linalg.norm(dagger(u) @ u - np.eye(2)) > 1e-10:
        raise NotUnitary("u is not unitary to 1e-10")
    big, small, _ = _shape_constants(a)
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
    single = qubit_free_basis(a)
    product = tensor_basis(single, single)
    # input label 2i + j: f0 sends it to label 2j (system j, ancilla 0),
    # f1 to label 3 - 2j (system 1 - j, ancilla 1)
    i, j = np.divmod(np.arange(4), 2)
    f0 = FreeKrausForm(c[j, i], 2 * j).matrix(product)
    f1 = FreeKrausForm(d[1 - j, i], 3 - 2 * j).matrix(product)
    completion = complete_free([f0, f1], product)
    return Channel(tuple([f0, f1] + completion))


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
    targets than the source get probability 0. Cells whose solve does not
    converge are reported as NaN. Returns rows (theta, phi, p).
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be at least 8, got {grid_n}")
    basis = qubit_free_basis(a)
    source = qubit_state(*initial)
    source_rank = superposition_rank(source, basis)
    thetas = np.linspace(0.0, np.pi, grid_n)
    phis = np.linspace(0.0, 2 * np.pi, 2 * grid_n, endpoint=False)
    rows = []
    for theta in thetas:
        for phi in phis:
            rows.append((theta, phi, heatmap_cell(basis, source, source_rank, (theta, phi))))
    return np.array(rows)


def heatmap_cell(basis: FreeBasis, source: PureState, source_rank: int,
                 target_angles: tuple[float, float]) -> float:
    """Conversion probability for one heatmap target; NaN on ``NoConvergence``.

    Each solve runs at ``max_conversion_prob``'s default gap tolerance.
    """
    target = qubit_state(*target_angles)
    target_rank = superposition_rank(target, basis)
    if target_rank > source_rank:
        return 0.0
    if target_rank < source_rank:
        return 1.0
    try:
        sol: SdpSolution = max_conversion_prob(source, target, basis)
    except NoConvergence:
        return float("nan")
    return float(sol.value)
