"""Resource theory of superposition over finite non-orthogonal bases.

The free states are statistical mixtures of a fixed normalized, linearly
independent basis; the free operations are channels built from Kraus
operators that map each basis state onto a single basis state. This package
provides the frame algebra, free-operation calculus, superposition measures,
optimal pure-state conversion via an embedded SDP with dual certificates,
qubit Bloch-geometry constructions, a channel-discrimination game, and the
faithful conversion of superposition into entanglement.
"""

from .basis import (
    FreeBasis,
    filter_probability,
    new_free_basis,
    orthonormal_basis,
    symmetric_basis_d3,
    tensor_basis,
)
from .entangle import ConversionMap, faithful_conversion, verify_faithful
from .game import GameSpec, GameStats, build_game, discriminate, outcome_states, simulate
from .kraus import (
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
from .linalg import fidelity, herm_eig
from .measures import (
    MeasureReport,
    l1_measure,
    rank_measure,
    rel_entropy_measure,
    robustness,
)
from .qubit import (
    BlochMap,
    bloch_vector,
    build_phi,
    channel_from_bloch,
    choi,
    conversion_heatmap,
    fo_certificate_residual,
    free_qubit_kraus,
    generate_from_m2,
    inject_unitary,
    max_superposition_state,
    qubit_free_basis,
    qubit_state,
    state_from_bloch,
)
from .sdp import LmiProblem, SdpSolution, solve_cover, solve_lmi, verify_dual
from .states import (
    DensityMatrix,
    PureState,
    free_expansion,
    free_mixture,
    is_free,
    schmidt_rank,
    superposition_rank,
)
from .transform import (
    TransformerSet,
    candidate_states_d3,
    enumerate_transformers,
    max_conversion_prob,
)

__version__ = "0.1.0"
